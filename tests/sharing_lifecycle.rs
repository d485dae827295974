//! Spectrum-sharing lifecycle over real TCP: operators come and go,
//! leases expire, plans get recycled, and gateways pass the
//! assignments through hardware validation and go live on them — the
//! full inter-network control plane.

use alphawan_system::alphawan::master::server::MasterServer;
use alphawan_system::alphawan::master::RegionSpec;
use alphawan_system::alphawan::MasterClient;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::region::StandardChannelPlan;

fn region() -> RegionSpec {
    RegionSpec {
        band_low_hz: 916_800_000,
        spectrum_hz: 1_600_000,
        expected_networks: 2,
    }
}

#[test]
fn master_plan_validates_and_lands_on_a_gateway() {
    let server = MasterServer::start(region()).unwrap();
    let mut client = MasterClient::connect(server.addr()).unwrap();
    let id = client.register("op-x").unwrap();
    let plan = client.request_channels(id).unwrap();
    client.bye().unwrap();
    server.shutdown();

    // The operator's gateway validates the Master-assigned plan
    // against its radio (capped to one radio's chain budget), then
    // reconfigures onto it.
    let profile = GatewayProfile::rak7268cv2();
    let mut gw = Gateway::new(
        0,
        1,
        profile,
        GatewayConfig::new(profile, StandardChannelPlan::us915_subband(0).channels).unwrap(),
    );
    let channels = plan[..plan.len().min(8)].to_vec();
    let config = GatewayConfig::new(profile, channels.clone()).expect("plan fits one radio");
    gw.reconfigure(config);
    assert_eq!(gw.config().channels(), &channels[..]);
}

#[test]
fn expired_lease_recycles_the_plan_slot() {
    let server = MasterServer::start(region()).unwrap();
    // Lease ages are driven through `MasterNode::tick`, not by
    // sleeping: the server only ever ticks the node forward to its own
    // wall-clock age, which stays far below this TTL, so the leases
    // expire exactly when the test says and a slow host cannot expire
    // the wrong one.
    server.node().lock().set_lease_ttl_ms(60_000);

    let mut c1 = MasterClient::connect(server.addr()).unwrap();
    let a = c1.register("op-a").unwrap();
    let plan_a = c1.request_channels(a).unwrap();
    let mut c2 = MasterClient::connect(server.addr()).unwrap();
    let b = c2.register("op-b").unwrap();
    let _plan_b = c2.request_channels(b).unwrap();

    // Region is full for a third operator while both leases are live.
    let mut c3 = MasterClient::connect(server.addr()).unwrap();
    let c = c3.register("op-c").unwrap();
    assert!(c3.request_channels(c).is_err(), "region must be full");

    // op-b heartbeats 40 s in; op-a stays silent. At 70 s op-a's lease
    // is past the TTL and op-b's is 30 s old.
    server.node().lock().tick(40_000);
    c2.request_channels(b).unwrap();
    server.node().lock().tick(70_000);
    // op-c retries and inherits op-a's freed slot (the same plan).
    let plan_c = c3.request_channels(c).expect("freed slot reassigned");
    assert_eq!(plan_c, plan_a);

    // op-a coming back is treated as a fresh request; with both slots
    // taken again, it must now be refused.
    assert!(c1.request_channels(a).is_err());
    server.shutdown();
}
