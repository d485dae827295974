//! Capacity probing tool: how many concurrent users can a deployment
//! actually receive?
//!
//! Sweeps gateway counts for a given spectrum and prints standard
//! LoRaWAN vs AlphaWAN capacity, plus the theoretical bound — a
//! miniature Fig 12a you can point at your own parameters.
//!
//! ```text
//! cargo run --release --example capacity_probe [spectrum_mhz] [max_gws]
//! ```

use alphawan_system::alphawan::planner::IntraNetworkPlanner;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{oracle_capacity, Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::end_aligned_burst;
use alphawan_system::sim::world::SimWorld;

fn main() {
    let mut args = std::env::args().skip(1);
    let spectrum_mhz: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4.8);
    let max_gws: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(15);
    let spectrum_hz = (spectrum_mhz * 1e6) as u32;
    let channels = ChannelGrid::standard(916_800_000, spectrum_hz).channels();
    let users = oracle_capacity(spectrum_hz);
    println!(
        "probing {spectrum_mhz} MHz ({} channels, oracle {} users), 1..{max_gws} gateways",
        channels.len(),
        users
    );
    println!(
        "{:>9}  {:>8}  {:>8}  {:>6}",
        "gateways", "standard", "alphawan", "oracle"
    );

    for gws in (1..=max_gws).step_by(2) {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let mut topo = Topology::new((500.0, 400.0), users, gws, model, 3);
        topo.clamp_loss(108.0, f64::INFINITY);
        let std_cap = probe_standard(&topo, &channels, users, gws);
        let alpha_cap = probe_alphawan(&topo, &channels, users, gws);
        println!("{gws:>9}  {std_cap:>8}  {alpha_cap:>8}  {users:>6}");
    }
}

fn probe_standard(topo: &Topology, channels: &[Channel], users: usize, gws: usize) -> usize {
    let profile = GatewayProfile::rak7268cv2();
    let n_plans = (channels.len() / 8).max(1);
    let gateways: Vec<Gateway> = (0..gws)
        .map(|j| {
            let p = j % n_plans;
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels[p * 8..(p + 1) * 8].to_vec()).unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo.clone(), vec![1; users], gateways);
    let assigns: Vec<_> = (0..users)
        .map(|i| {
            (
                i,
                channels[i % channels.len()],
                DataRate::from_index(i / channels.len() % 6).unwrap(),
            )
        })
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    world.run(&plans).iter().filter(|r| r.delivered).count()
}

fn probe_alphawan(topo: &Topology, channels: &[Channel], users: usize, gws: usize) -> usize {
    let profile = GatewayProfile::rak7268cv2();
    let mut planner = IntraNetworkPlanner::new(channels.to_vec(), gws);
    planner.ga.population = 24;
    planner.ga.generations = 60;
    let outcome = planner.plan(topo, vec![1.0; users]);
    let gateways: Vec<Gateway> = outcome
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
    let mut world = SimWorld::new(topo.clone(), vec![1; users], gateways);
    let assigns: Vec<_> = outcome
        .node_settings
        .iter()
        .enumerate()
        .map(|(i, &(ch, dr, _))| (i, ch, dr))
        .collect();
    let plans = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    world.run(&plans).iter().filter(|r| r.delivered).count()
}
