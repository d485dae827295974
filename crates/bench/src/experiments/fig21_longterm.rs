//! Figure 21 (Appendix D) — one year of user expansion.
//!
//! A 10-gateway network starts with 1,180 users; ~150 join weekly.
//! Week 13: a new application adds 7,000 users (both strategies also
//! add 5 gateways). Week 27: the spectrum saturates; 1.6 MHz more is
//! authorized. Week 43: a second operator (5 gateways, 3,430 users)
//! appears in the same spectrum. AlphaWAN replans/shares at every
//! event and holds PRR ≳90%; standard LoRaWAN degrades stepwise.

use crate::experiments::{band_channels, duty_workload, quick_ga, BAND_LOW_HZ};
use crate::report::{pct, Table};
use crate::scenario::adr_data_rate;
use alphawan::master::divider::ChannelDivider;
use alphawan::planner::IntraNetworkPlanner;
use baselines::standard::standard_gateway_configs;
use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::Channel;
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::{DataRate, TxPowerDbm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::metrics::RunMetrics;
use sim::topology::Topology;
use sim::world::SimWorld;

const MAX_OP1_USERS: usize = 1_180 + 52 * 150 + 7_000;
const OP2_USERS: usize = 3_430;
const MAX_OP1_GWS: usize = 15;
const OP2_GWS: usize = 5;
const WINDOW_US: u64 = 30_000_000;

struct WeekState {
    week: usize,
    op1_users: usize,
    op1_gws: usize,
    spectrum_hz: u32,
    op2_present: bool,
}

impl WeekState {
    fn at(week: usize) -> WeekState {
        let mut users = 1_180 + (week - 1) * 150;
        if week >= 13 {
            users += 7_000;
        }
        WeekState {
            week,
            op1_users: users,
            op1_gws: if week >= 13 { 15 } else { 10 },
            spectrum_hz: if week >= 27 { 6_400_000 } else { 4_800_000 },
            op2_present: week >= 43,
        }
    }
}

/// Run this experiment: build its scenario, measure, and emit the
/// table/CSV outputs (plus obs events when a session is active).
pub fn run() {
    // One fixed deployment at maximum size; each week activates a
    // prefix (the synthetic equivalent of the paper's 100k-trace pool
    // from 500 sites; see DESIGN.md). Link losses are floored at the
    // urban clutter level so SNRs match the paper's −15…+5 dB traces.
    let mut topo = Topology::new(
        (2_100.0, 1_600.0),
        MAX_OP1_USERS + OP2_USERS,
        MAX_OP1_GWS + OP2_GWS,
        PathLossModel::default(),
        210_000,
    );
    topo.clamp_loss(108.0, f64::INFINITY);

    let mut t = Table::new(
        "Fig 21 — weekly PRR over one year of expansion",
        &[
            "week",
            "users_total",
            "alphawan_prr",
            "lorawan_prr",
            "event",
        ],
    );
    // Every week's two runs are pure functions of (topo, week): fan
    // them over the sweep runner and merge in week order, identical to
    // the serial loop at any worker count. `weekly_prr` builds its
    // worlds directly (never through the obs session), so no event
    // stream can interleave nondeterministically.
    let weeks: Vec<WeekState> = (1..=53usize).map(WeekState::at).collect();
    let runner = crate::sweep::SweepRunner::per_core();
    let results = runner.run(weeks.len(), |i| {
        let s = &weeks[i];
        (weekly_prr(&topo, s, true), weekly_prr(&topo, s, false))
    });

    for (s, &(alpha, std)) in weeks.iter().zip(&results) {
        let week = s.week;
        let total_users = s.op1_users + if s.op2_present { OP2_USERS } else { 0 };
        let event = match week {
            13 => "7k-user surge, +5 GWs",
            27 => "spectrum +1.6 MHz",
            43 => "2nd operator arrives",
            _ => "",
        };
        t.row(vec![
            week.to_string(),
            total_users.to_string(),
            pct(alpha),
            pct(std),
            event.to_string(),
        ]);
    }
    t.emit("fig21_longterm");
}

fn weekly_prr(topo: &Topology, s: &WeekState, alphawan: bool) -> f64 {
    let profile = GatewayProfile::rak7268cv2();
    let channels = band_channels(s.spectrum_hz);

    // Active participants this week.
    let op1_nodes: Vec<usize> = (0..s.op1_users).collect();
    let op1_gws: Vec<usize> = (0..s.op1_gws).collect();
    let op2_nodes: Vec<usize> =
        (MAX_OP1_USERS..MAX_OP1_USERS + if s.op2_present { OP2_USERS } else { 0 }).collect();
    let op2_gws: Vec<usize> =
        (MAX_OP1_GWS..MAX_OP1_GWS + if s.op2_present { OP2_GWS } else { 0 }).collect();

    // Channel allocations per operator.
    let (op1_channels, op2_channels) = if alphawan && s.op2_present {
        let divider = ChannelDivider::new(BAND_LOW_HZ, s.spectrum_hz, 2, 0.5);
        (divider.plan(0), divider.plan(1))
    } else {
        (channels.clone(), channels.clone())
    };

    // Gateway configurations and node settings.
    let mut gw_cfgs: Vec<(usize, u32, Vec<Channel>)> = Vec::new();
    let mut assigns: Vec<(usize, Channel, DataRate)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(213_000 + s.week as u64);

    let provision_std = |nodes: &[usize],
                         gws: &[usize],
                         net: u32,
                         chans: &[Channel],
                         gw_cfgs: &mut Vec<(usize, u32, Vec<Channel>)>,
                         assigns: &mut Vec<(usize, Channel, DataRate)>,
                         rng: &mut StdRng| {
        let std_cfgs = standard_gateway_configs(BAND_LOW_HZ, s.spectrum_hz, gws.len());
        for (cfg, &g) in std_cfgs.into_iter().zip(gws) {
            gw_cfgs.push((g, net, cfg));
        }
        for &n in nodes {
            assigns.push((
                n,
                chans[rng.gen_range(0..chans.len())],
                adr_data_rate(topo, n, TxPowerDbm(14.0)),
            ));
        }
    };

    if alphawan {
        for (nodes, gws, net, chans) in [
            (&op1_nodes, &op1_gws, 1u32, &op1_channels),
            (&op2_nodes, &op2_gws, 2u32, &op2_channels),
        ] {
            if nodes.is_empty() {
                continue;
            }
            let sub = crate::scenario::subtopology(topo, nodes, gws);
            let mut planner = IntraNetworkPlanner::new(chans.clone(), gws.len());
            planner.ga = quick_ga(nodes.len());
            let outcome = planner.plan(&sub, vec![1.0; nodes.len()]);
            for (slot, &g) in gws.iter().enumerate() {
                gw_cfgs.push((g, net, outcome.gateway_channels[slot].clone()));
            }
            assigns.extend(
                nodes
                    .iter()
                    .zip(&outcome.node_settings)
                    .map(|(&n, &(ch, dr, _))| (n, ch, dr)),
            );
        }
    } else {
        provision_std(
            &op1_nodes,
            &op1_gws,
            1,
            &op1_channels,
            &mut gw_cfgs,
            &mut assigns,
            &mut rng,
        );
        if !op2_nodes.is_empty() {
            provision_std(
                &op2_nodes,
                &op2_gws,
                2,
                &op2_channels,
                &mut gw_cfgs,
                &mut assigns,
                &mut rng,
            );
        }
    }

    // Assemble the world over the *active* node set: remap indices.
    let active_nodes: Vec<usize> = op1_nodes.iter().chain(op2_nodes.iter()).copied().collect();
    let active_gws: Vec<usize> = gw_cfgs.iter().map(|(g, _, _)| *g).collect();
    let sub = crate::scenario::subtopology(topo, &active_nodes, &active_gws);
    let gateways: Vec<Gateway> = gw_cfgs
        .iter()
        .enumerate()
        .map(|(i, (_, net, chans))| {
            Gateway::new(
                i,
                *net,
                profile,
                GatewayConfig::new(profile, chans.clone()).expect("weekly config valid"),
            )
        })
        .collect();
    let node_network: Vec<u32> = active_nodes
        .iter()
        .map(|&n| if n < MAX_OP1_USERS { 1 } else { 2 })
        .collect();
    let mut world = SimWorld::new(sub, node_network, gateways);

    // Remap assignments to the compact index space.
    let index_of: std::collections::HashMap<usize, usize> = active_nodes
        .iter()
        .enumerate()
        .map(|(compact, &global)| (global, compact))
        .collect();
    let compact_assigns: Vec<(usize, Channel, DataRate)> = assigns
        .iter()
        .map(|&(n, ch, dr)| (index_of[&n], ch, dr))
        .collect();

    let plans = if alphawan {
        // AlphaWAN's server scatters each slot group over the duty
        // period (coordinated scheduling, as in Fig 13).
        crate::scenario::coordinated_schedule(
            &compact_assigns,
            0.01,
            WINDOW_US,
            crate::scenario::PAYLOAD_LEN,
        )
    } else {
        duty_workload(&compact_assigns, WINDOW_US, 214_000 + s.week as u64)
    };
    let recs = world.run(&plans);
    RunMetrics::from_records(&recs, None).prr()
}
