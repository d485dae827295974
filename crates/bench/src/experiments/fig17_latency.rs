//! Figure 17 — latency of an AlphaWAN capacity upgrade.
//!
//! (a) single network at 4k/8k/12k users (4/8/12 gateways): CP solving
//! and gateway rebooting dominate; (b) 2–4 coexisting networks add
//! 0.17–0.28 s of operator↔Master exchanges; totals stay within the
//! paper's <10 s suspension budget.
//!
//! CP solve, config distribution and Master TCP round-trips are
//! *measured*; gateway reboot is the paper's calibrated 4.62 s constant
//! (see DESIGN.md substitutions).

use crate::experiments::{band_channels, quick_ga};
use crate::report::{f3, Table};
use alphawan::master::server::MasterServer;
use alphawan::master::RegionSpec;
use alphawan::planner::IntraNetworkPlanner;
use alphawan::upgrade::CapacityUpgrade;
use lora_phy::pathloss::PathLossModel;
use sim::topology::Topology;

/// Run this experiment: build its scenario, measure, and emit the
/// table/CSV outputs (plus obs events when a session is active).
pub fn run() {
    part_a();
    part_b();
}

fn setup(users: usize, gws: usize) -> (IntraNetworkPlanner, alphawan::cp::CpProblem) {
    let channels = band_channels(4_800_000);
    let topo = Topology::new(
        (2_100.0, 1_600.0),
        users,
        gws,
        PathLossModel::default(),
        190_000 + users as u64,
    );
    let mut planner = IntraNetworkPlanner::new(channels, gws);
    planner.ga = quick_ga(users);
    let problem = planner.problem(&topo, vec![1.0; users]);
    (planner, problem)
}

fn part_a() {
    let mut t = Table::new(
        "Fig 17a — capacity-upgrade latency, single network (seconds)",
        &[
            "users",
            "gateways",
            "cp_solve",
            "config_dist",
            "gw_reboot",
            "total",
        ],
    );
    for (users, gws) in [(4_000usize, 4usize), (8_000, 8), (12_000, 12)] {
        let (planner, problem) = setup(users, gws);
        let up = CapacityUpgrade { ga: planner.ga };
        let (_, lat) = up
            .run(&planner, &problem, "op", None)
            .expect("upgrade runs");
        t.row(vec![
            users.to_string(),
            gws.to_string(),
            f3(lat.cp_solve.as_secs_f64()),
            f3(lat.config_distribution.as_secs_f64()),
            f3(lat.gateway_reboot.as_secs_f64()),
            f3(lat.total().as_secs_f64()),
        ]);
    }
    t.emit("fig17a_latency");
}

fn part_b() {
    let mut t = Table::new(
        "Fig 17b — upgrade latency with coexisting networks (seconds)",
        &["networks", "cp_solve_max", "master_comm_max", "total"],
    );
    for nets in 2usize..=4 {
        let server = MasterServer::start(RegionSpec {
            band_low_hz: crate::experiments::BAND_LOW_HZ,
            spectrum_hz: 4_800_000,
            expected_networks: nets,
        })
        .expect("master server starts");
        // Each network (3k users, 3 gateways) upgrades independently;
        // the paper runs them in parallel, so the wall time is the max.
        let mut cp_max = 0.0f64;
        let mut comm_max = 0.0f64;
        let mut reboot = 0.0f64;
        for net in 0..nets {
            let (planner, problem) = setup(3_000, 3);
            let up = CapacityUpgrade { ga: planner.ga };
            let (_, lat) = up
                .run(
                    &planner,
                    &problem,
                    &format!("op-{net}"),
                    Some(server.addr()),
                )
                .expect("upgrade with master runs");
            cp_max = cp_max.max(lat.cp_solve.as_secs_f64());
            comm_max = comm_max.max(lat.master_comm.as_secs_f64());
            reboot = lat.gateway_reboot.as_secs_f64();
        }
        t.row(vec![
            nets.to_string(),
            f3(cp_max),
            f3(comm_max),
            f3(cp_max + comm_max + reboot),
        ]);
        server.shutdown();
    }
    t.emit("fig17b_latency_coex");
    println!("paper: operator↔Master 0.17–0.28 s over WAN; loopback is far faster");
}
