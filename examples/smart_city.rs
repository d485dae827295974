//! Smart-city scale-up: thousands of duty-cycled meters on one network.
//!
//! Reenacts the paper's §5.2.1 scenario at one scale: 6,000 smart-city
//! devices (meters, parking sensors, air-quality probes) at 1% duty
//! over 15 gateways / 4.8 MHz, comparing the operational baseline (ADR
//! provisioning, uncoordinated transmissions) against AlphaWAN's
//! planned channels + coordinated duty scheduling.
//!
//! ```text
//! cargo run --release --example smart_city
//! ```

use alphawan_system::alphawan::planner::IntraNetworkPlanner;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_mac::duty::DutyCycleGovernor;
use alphawan_system::lora_phy::channel::ChannelGrid;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::snr::demod_snr_floor_db;
use alphawan_system::lora_phy::types::{DataRate, TxPowerDbm};
use alphawan_system::sim::metrics::RunMetrics;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::{duty_cycled, TxPlan};
use alphawan_system::sim::world::SimWorld;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 6_000;
const GWS: usize = 15;
const HORIZON_US: u64 = 30_000_000;

fn main() {
    let channels = ChannelGrid::standard(916_800_000, 4_800_000).channels();
    let model = PathLossModel {
        shadowing_sigma_db: 2.0,
        ..Default::default()
    };
    let mut topo = Topology::new((1_200.0, 900.0), USERS, GWS, model, 42);
    topo.clamp_loss(108.0, f64::INFINITY);
    let profile = GatewayProfile::rak7268cv2();

    // Sanity: the duty governor shows what 1% duty means per device.
    let gov = DutyCycleGovernor::new(0.01);
    println!(
        "a DR5 meter may send at most {:.0} packets/hour under 1% duty",
        gov.max_tx_per_hour(41_216)
    );

    // --- Operational baseline: homogeneous gateways + ADR settings.
    let baseline_gateways: Vec<Gateway> = (0..GWS)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels[(j % 3) * 8..(j % 3) * 8 + 8].to_vec())
                    .unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo.clone(), vec![1; USERS], baseline_gateways);
    let mut rng = StdRng::seed_from_u64(1);
    let assigns: Vec<(usize, _, DataRate)> = (0..USERS)
        .map(|i| {
            let best = (0..GWS)
                .map(|j| world.topo.snr_db(i, j, TxPowerDbm(14.0)))
                .fold(f64::NEG_INFINITY, f64::max);
            let dr = *DataRate::ALL
                .iter()
                .rev()
                .find(|dr| best - 10.0 >= demod_snr_floor_db(dr.spreading_factor()))
                .unwrap_or(&DataRate::DR0);
            (i, channels[rng.gen_range(0..channels.len())], dr)
        })
        .collect();
    let plans = duty_cycled(&assigns, 23, 0.01, HORIZON_US, 5);
    let recs = world.run(&plans);
    let m = RunMetrics::from_records(&recs, None);
    println!(
        "baseline: {} packets sent, PRR {:.1}%, throughput {:.1} kbit/s",
        m.sent,
        m.prr() * 100.0,
        m.throughput_bps() / 1e3
    );

    // --- AlphaWAN: planned channels + coordinated duty schedule.
    let mut planner = IntraNetworkPlanner::new(channels.clone(), GWS);
    planner.ga.population = 16;
    planner.ga.generations = 24;
    let outcome = planner.plan(&topo, vec![1.0; USERS]);
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
    let mut world = SimWorld::new(topo, vec![1; USERS], planned_gateways);
    // Coordinated schedule: stagger each (channel, DR) group's members.
    let mut group_pos: std::collections::HashMap<(u32, usize), u64> = Default::default();
    let mut plans: Vec<TxPlan> = Vec::new();
    for (i, &(ch, dr, _)) in outcome.node_settings.iter().enumerate() {
        let airtime =
            alphawan_system::lora_phy::airtime::lorawan_uplink_airtime(dr.spreading_factor(), 23)
                .total_us();
        let period = airtime * 100;
        let pos = group_pos.entry((ch.center_hz, dr.index())).or_insert(0);
        let phase = (*pos % 100) * (period / 100);
        *pos += 1;
        let mut t = phase;
        while t < HORIZON_US {
            plans.push(TxPlan {
                node: i,
                channel: ch,
                dr,
                start_us: t,
                payload_len: 23,
            });
            t += period;
        }
    }
    plans.sort_by_key(|p| p.start_us);
    let recs = world.run(&plans);
    let m = RunMetrics::from_records(&recs, None);
    println!(
        "alphawan: {} packets sent, PRR {:.1}%, throughput {:.1} kbit/s",
        m.sent,
        m.prr() * 100.0,
        m.throughput_bps() / 1e3
    );
}
