//! End-to-end integration tests: the paper's headline results in
//! miniature, exercised through the public APIs of every crate.

use alphawan_system::alphawan::master::server::MasterServer;
use alphawan_system::alphawan::master::RegionSpec;
use alphawan_system::alphawan::planner::IntraNetworkPlanner;
use alphawan_system::alphawan::MasterClient;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{overlap_ratio, Channel, ChannelGrid};
use alphawan_system::lora_phy::interference::DETECTION_OVERLAP_THRESHOLD;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::end_aligned_burst;
use alphawan_system::sim::world::{LossCause, SimWorld};

/// A flat, strong-link topology (urban clutter floor applied).
fn flat_topology(nodes: usize, gws: usize, seed: u64) -> Topology {
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut topo = Topology::new((500.0, 400.0), nodes, gws, model, seed);
    topo.clamp_loss(108.0, f64::INFINITY);
    topo
}

fn eight_channels() -> Vec<Channel> {
    ChannelGrid::standard(916_800_000, 1_600_000).channels()
}

fn homogeneous_gateways(n: usize, network: u32) -> Vec<Gateway> {
    let profile = GatewayProfile::rak7268cv2();
    (0..n)
        .map(|j| {
            Gateway::new(
                j,
                network,
                profile,
                GatewayConfig::new(profile, eight_channels()).unwrap(),
            )
        })
        .collect()
}

fn orthogonal(users: usize) -> Vec<(usize, Channel, DataRate)> {
    let chans = eight_channels();
    (0..users)
        .map(|i| (i, chans[i % 8], DataRate::from_index(i / 8 % 6).unwrap()))
        .collect()
}

#[test]
fn headline_sixteen_packet_cap() {
    // Fig 2a: 48 orthogonal users, 3 homogeneous gateways ⇒ exactly 16.
    let topo = flat_topology(48, 3, 1);
    let mut world = SimWorld::new(topo, vec![1; 48], homogeneous_gateways(3, 1));
    let plans = end_aligned_burst(&orthogonal(48), 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    assert_eq!(recs.iter().filter(|r| r.delivered).count(), 16);
    // Every loss is decoder contention — nothing else is wrong here.
    assert!(recs
        .iter()
        .filter(|r| !r.delivered)
        .all(|r| r.cause == Some(LossCause::DecoderContentionIntra)));
}

#[test]
fn headline_coexisting_networks_share_sixteen() {
    // Fig 2b: two co-located networks on the same plan sum to 16.
    let topo = flat_topology(32, 2, 2);
    let mut gws = homogeneous_gateways(2, 1);
    gws[1] = Gateway::new(
        1,
        2,
        GatewayProfile::rak7268cv2(),
        GatewayConfig::new(GatewayProfile::rak7268cv2(), eight_channels()).unwrap(),
    );
    let node_network: Vec<u32> = (0..32).map(|i| 1 + (i % 2) as u32).collect();
    let mut world = SimWorld::new(topo, node_network, gws);
    let plans = end_aligned_burst(&orthogonal(32), 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    let total = recs.iter().filter(|r| r.delivered).count();
    assert_eq!(total, 16, "aggregate capacity shared across networks");
    let inter = recs
        .iter()
        .filter(|r| r.cause == Some(LossCause::DecoderContentionInter))
        .count();
    assert!(inter > 0, "cross-network decoder contention must appear");
}

#[test]
fn headline_alphawan_reaches_oracle() {
    // Fig 12a at sufficient gateways: the planner lifts 48 users to the
    // full 1.6 MHz oracle with 5 gateways.
    let topo = flat_topology(48, 5, 3);
    let mut planner = IntraNetworkPlanner::new(eight_channels(), 5);
    planner.ga.generations = 60;
    let outcome = planner.plan(&topo, vec![1.0; 48]);
    let profile = GatewayProfile::rak7268cv2();
    let gws: Vec<Gateway> = outcome
        .gateway_channels
        .iter()
        .enumerate()
        .map(|(j, c)| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, c.clone()).unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo, vec![1; 48], gws);
    let assigns: Vec<_> = outcome
        .node_settings
        .iter()
        .enumerate()
        .map(|(i, &(ch, dr, _))| (i, ch, dr))
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    let delivered = recs.iter().filter(|r| r.delivered).count();
    assert!(
        delivered >= 46,
        "AlphaWAN should approach 48, got {delivered}"
    );
}

#[test]
fn headline_master_isolates_operators() {
    // Strategy ⑧ end-to-end over real TCP: misaligned plans keep
    // foreign packets out of each other's decoder pipelines.
    let server = MasterServer::start(RegionSpec {
        band_low_hz: 916_800_000,
        spectrum_hz: 1_600_000,
        expected_networks: 2,
    })
    .unwrap();
    let mut c1 = MasterClient::connect(server.addr()).unwrap();
    let id1 = c1.register("op-1").unwrap();
    let plan1 = c1.request_channels(id1).unwrap();
    let mut c2 = MasterClient::connect(server.addr()).unwrap();
    let id2 = c2.register("op-2").unwrap();
    let plan2 = c2.request_channels(id2).unwrap();
    server.shutdown();

    for a in &plan1 {
        for b in &plan2 {
            assert!(overlap_ratio(a, b) < DETECTION_OVERLAP_THRESHOLD);
        }
    }

    // Two 12-node networks transmitting concurrently on their plans.
    let topo = flat_topology(24, 2, 4);
    let profile = GatewayProfile::rak7268cv2();
    let gws = vec![
        Gateway::new(
            0,
            1,
            profile,
            GatewayConfig::new(profile, plan1[..8].to_vec()).unwrap(),
        ),
        Gateway::new(
            1,
            2,
            profile,
            GatewayConfig::new(profile, plan2[..8].to_vec()).unwrap(),
        ),
    ];
    let node_network: Vec<u32> = (0..24).map(|i| 1 + (i / 12) as u32).collect();
    let mut world = SimWorld::new(topo, node_network, gws);
    let assigns: Vec<_> = (0..24)
        .map(|i| {
            let plan = if i < 12 { &plan1 } else { &plan2 };
            (i, plan[i % 8], DataRate::from_index(i % 6).unwrap())
        })
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    let delivered = recs.iter().filter(|r| r.delivered).count();
    assert!(
        delivered >= 22,
        "misaligned networks barely interfere: {delivered}"
    );
    let foreign: u64 = world
        .gateways
        .iter()
        .map(|g| g.stats().foreign_filtered)
        .sum();
    assert_eq!(foreign, 0, "no foreign packet may enter a decoder");
}

#[test]
fn strategy1_fewer_channels_raises_capacity() {
    // Fig 5a: 5 gateways on 2 channels each lift 8-channel spectrum
    // capacity from 16 to 48.
    use alphawan_system::alphawan::strategy::strategy1_fewer_channels;
    let topo = flat_topology(48, 5, 5);
    let profile = GatewayProfile::rak7268cv2();
    let cfgs = strategy1_fewer_channels(&eight_channels(), 5, 2);
    let gws: Vec<Gateway> = cfgs
        .into_iter()
        .enumerate()
        .map(|(j, c)| Gateway::new(j, 1, profile, GatewayConfig::new(profile, c).unwrap()))
        .collect();
    let mut world = SimWorld::new(topo, vec![1; 48], gws);
    let plans = end_aligned_burst(&orthogonal(48), 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    assert_eq!(recs.iter().filter(|r| r.delivered).count(), 48);
}
