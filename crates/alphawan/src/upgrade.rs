//! Capacity-upgrade orchestration and latency accounting (Fig. 17).
//!
//! "A capacity upgrade operation in AlphaWAN comprises centralized
//! computation (solving the CP optimization problem), distribution of
//! optimal channel configurations to gateways, and rebooting the
//! gateways with the updated settings. When multiple networks coexist,
//! an additional spectrum sharing procedure is required, involving
//! message exchanges between operators and the AlphaWAN Master."
//!
//! CP solving, config distribution (serialization) and Master
//! communication are genuinely *measured* here; the gateway reboot is a
//! calibrated constant (firmware behaviour we cannot reproduce —
//! paper: 4.62 s mean), documented in DESIGN.md.

use crate::cp::ga::{GaConfig, GaSolver};
use crate::cp::CpProblem;
use crate::master::client::MasterClient;
use crate::planner::{IntraNetworkPlanner, PlanOutcome};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Mean COTS gateway reboot time measured by the paper (Fig. 17a).
pub const GATEWAY_REBOOT_MEAN: Duration = Duration::from_millis(4_620);

/// Latency breakdown of one capacity upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeLatency {
    /// CP optimization wall time (measured).
    pub cp_solve: Duration,
    /// Operator ↔ Master exchanges (measured over real TCP; zero when
    /// no spectrum sharing is involved).
    pub master_comm: Duration,
    /// Serializing + dispatching per-gateway configurations (measured).
    pub config_distribution: Duration,
    /// Gateway reboot (calibrated constant; gateways reboot in
    /// parallel, so this is one reboot, not a sum).
    pub gateway_reboot: Duration,
}

impl UpgradeLatency {
    /// End-to-end upgrade latency ("from the initiation of a capacity
    /// upgrade command to the point when the last gateway completes its
    /// reboot").
    pub fn total(&self) -> Duration {
        self.cp_solve + self.master_comm + self.config_distribution + self.gateway_reboot
    }
}

/// A capacity-upgrade run.
#[derive(Default)]
pub struct CapacityUpgrade {
    pub ga: GaConfig,
}

impl CapacityUpgrade {
    /// Upgrade one network: solve the CP problem, materialize the plan
    /// and account the latency. If `master` is given, first performs the
    /// spectrum-sharing exchange (register + request channels).
    pub fn run(
        &self,
        planner: &IntraNetworkPlanner,
        problem: &CpProblem,
        operator: &str,
        master: Option<SocketAddr>,
    ) -> std::io::Result<(PlanOutcome, UpgradeLatency)> {
        // Phase 0: spectrum sharing (real TCP round-trips).
        let t0 = Instant::now();
        if let Some(addr) = master {
            let mut client = MasterClient::connect(addr)?;
            let id = client.register(operator)?;
            let _plan = client.request_channels(id)?;
            client.bye()?;
        }
        let master_comm = if master.is_some() {
            t0.elapsed()
        } else {
            Duration::ZERO
        };

        // Phase 1: CP solving (measured).
        let t1 = Instant::now();
        let (solution, objective) = GaSolver::new(self.ga).solve(problem);
        let cp_solve = t1.elapsed();

        // Phase 2: config distribution — serialize each gateway's new
        // configuration as the backhaul payload.
        let t2 = Instant::now();
        let outcome = planner.materialize(problem, solution, objective);
        let mut dispatched = 0usize;
        for chans in &outcome.gateway_channels {
            let payload = serde_json::to_vec(chans).expect("channel config serializes");
            dispatched += payload.len();
        }
        // Guard against the serializer being optimized away.
        assert!(dispatched > 0 || outcome.gateway_channels.is_empty());
        let config_distribution = t2.elapsed();

        Ok((
            outcome,
            UpgradeLatency {
                cp_solve,
                master_comm,
                config_distribution,
                gateway_reboot: GATEWAY_REBOOT_MEAN,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::server::MasterServer;
    use crate::master::RegionSpec;
    use lora_phy::channel::ChannelGrid;
    use sim::topology::Topology;

    fn small_setup() -> (IntraNetworkPlanner, CpProblem) {
        let topo = Topology::new(
            (400.0, 400.0),
            12,
            3,
            lora_phy::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            2,
        );
        let mut planner =
            IntraNetworkPlanner::new(ChannelGrid::standard(916_800_000, 1_600_000).channels(), 3);
        planner.ga.generations = 20;
        planner.ga.population = 16;
        let problem = planner.problem(&topo, vec![1.0; 12]);
        (planner, problem)
    }

    #[test]
    fn upgrade_without_sharing() {
        let (planner, problem) = small_setup();
        let up = CapacityUpgrade { ga: planner.ga };
        let (outcome, lat) = up.run(&planner, &problem, "op", None).unwrap();
        assert!(problem.feasible(&outcome.solution));
        assert_eq!(lat.master_comm, Duration::ZERO);
        assert!(lat.cp_solve > Duration::ZERO);
        assert_eq!(lat.gateway_reboot, GATEWAY_REBOOT_MEAN);
        assert!(lat.total() > GATEWAY_REBOOT_MEAN);
    }

    #[test]
    fn an_upgrade_plans_what_the_solver_finds() {
        let (planner, problem) = small_setup();
        let up = CapacityUpgrade { ga: planner.ga };
        let (outcome, _) = up.run(&planner, &problem, "op", None).unwrap();
        let (solution, objective) = GaSolver::new(planner.ga).solve(&problem);
        assert_eq!(outcome.solution, solution);
        assert_eq!(outcome.objective.to_bits(), objective.to_bits());
    }

    #[test]
    fn upgrade_with_master_measures_comm() {
        let server = MasterServer::start(RegionSpec {
            band_low_hz: 916_800_000,
            spectrum_hz: 1_600_000,
            expected_networks: 2,
        })
        .unwrap();
        let (planner, problem) = small_setup();
        let up = CapacityUpgrade { ga: planner.ga };
        let (_, lat) = up
            .run(&planner, &problem, "op-a", Some(server.addr()))
            .unwrap();
        assert!(lat.master_comm > Duration::ZERO);
        // Paper: operator-to-Master spends 0.17–0.28 s over a WAN; on
        // loopback it must be far below a second.
        assert!(lat.master_comm < Duration::from_secs(1));
        server.shutdown();
    }

    #[test]
    fn total_under_ten_seconds_at_small_scale() {
        // Fig 17: full upgrades complete within ~6 s; our small instance
        // must stay well under the paper's 10 s suspension bound.
        let (planner, problem) = small_setup();
        let up = CapacityUpgrade { ga: planner.ga };
        let (_, lat) = up.run(&planner, &problem, "op", None).unwrap();
        assert!(lat.total() < Duration::from_secs(10), "{:?}", lat.total());
    }
}
