//! Quickstart: see the decoder contention problem, then fix it.
//!
//! Builds a 48-node LoRaWAN in 1.6 MHz of spectrum with five COTS
//! gateways, demonstrates that standard (homogeneous) operation caps at
//! 16 concurrent packets regardless of gateway count, then runs the
//! AlphaWAN channel planner and shows the same hardware carrying the
//! full 48-user theoretical load.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use alphawan_system::alphawan::planner::IntraNetworkPlanner;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{oracle_capacity, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::end_aligned_burst;
use alphawan_system::sim::world::SimWorld;

fn main() {
    let spectrum_hz = 1_600_000u32;
    let channels = ChannelGrid::standard(916_800_000, spectrum_hz).channels();
    let users = 48usize;
    let gws = 5usize;
    println!(
        "spectrum: {:.1} MHz ({} channels); theoretical capacity: {} concurrent users",
        spectrum_hz as f64 / 1e6,
        channels.len(),
        oracle_capacity(spectrum_hz)
    );

    // A compact urban deployment; links comfortably close everywhere.
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut topo = Topology::new((600.0, 450.0), users, gws, model, 7);
    // Urban clutter floor: bounds received-power spreads to realistic
    // levels (see DESIGN.md calibration notes).
    topo.clamp_loss(108.0, f64::INFINITY);
    let profile = GatewayProfile::rak7268cv2();

    // --- Standard LoRaWAN: every gateway on the same channel plan.
    let standard_gateways: Vec<Gateway> = (0..gws)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels.clone()).unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo.clone(), vec![1; users], standard_gateways);
    let assigns: Vec<_> = (0..users)
        .map(|i| {
            (
                i,
                channels[i % channels.len()],
                alphawan_system::lora_phy::types::DataRate::from_index(i / channels.len() % 6)
                    .unwrap(),
            )
        })
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    let delivered = recs.iter().filter(|r| r.delivered).count();
    println!(
        "standard LoRaWAN, {gws} homogeneous gateways: {delivered}/{users} received \
         (the decoder contention problem: one SX1302 pool's worth)"
    );

    // --- AlphaWAN: jointly plan gateway channels and node settings.
    let mut planner = IntraNetworkPlanner::new(channels.clone(), gws);
    planner.ga.generations = 60;
    let outcome = planner.plan(&topo, vec![1.0; users]);
    println!(
        "AlphaWAN channel plan computed (objective {:.1}); gateway channel counts: {:?}",
        outcome.objective,
        outcome
            .gateway_channels
            .iter()
            .map(|c| c.len())
            .collect::<Vec<_>>()
    );
    let planned_gateways: Vec<Gateway> = outcome
        .gateway_channels
        .iter()
        .enumerate()
        .map(|(j, chans)| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, chans.clone()).unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo, vec![1; users], planned_gateways);
    let assigns: Vec<_> = outcome
        .node_settings
        .iter()
        .enumerate()
        .map(|(i, &(ch, dr, _))| (i, ch, dr))
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    let recs = world.run(&plans);
    let delivered = recs.iter().filter(|r| r.delivered).count();
    println!("AlphaWAN, same 5 gateways: {delivered}/{users} received");
}
