//! The intra-network channel planner: ties the CP model to a concrete
//! deployment (topology + traffic) and emits the artifacts a LoRaWAN
//! stack consumes — gateway channel configurations and per-device MAC
//! commands (§4.3.3's "CP solver" module).

use crate::cp::ga::{GaConfig, GaSolver};
use crate::cp::{CpProblem, CpSolution, GatewayLimits};
use lora_mac::commands::{tx_power_index_for_dbm, LinkAdrReq, MacCommand, NewChannelReq};
use lora_phy::channel::Channel;
use lora_phy::types::{DataRate, TxPowerDbm};
use sim::topology::Topology;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct IntraNetworkPlanner {
    /// Candidate channels (the operator's allocation — standard plan or
    /// a Master assignment).
    pub channels: Vec<Channel>,
    pub gw_limits: Vec<GatewayLimits>,
    pub ga: GaConfig,
    /// Tx power assumed when building the reach matrix.
    pub tx_power: TxPowerDbm,
}

/// The planner's output, ready to deploy.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    pub solution: CpSolution,
    pub objective: f64,
    /// Channel set per gateway.
    pub gateway_channels: Vec<Vec<Channel>>,
    /// (channel, data rate, Tx power) per node.
    pub node_settings: Vec<(Channel, DataRate, TxPowerDbm)>,
}

impl IntraNetworkPlanner {
    /// Planner over a uniform COTS fleet.
    pub fn new(channels: Vec<Channel>, n_gateways: usize) -> IntraNetworkPlanner {
        IntraNetworkPlanner {
            channels,
            gw_limits: vec![GatewayLimits::sx1302(); n_gateways],
            ga: GaConfig::default(),
            tx_power: TxPowerDbm(14.0),
        }
    }

    /// Build the CP problem for a topology and per-node traffic weights.
    pub fn problem(&self, topo: &Topology, traffic: Vec<f64>) -> CpProblem {
        assert_eq!(traffic.len(), topo.nodes.len());
        assert_eq!(self.gw_limits.len(), topo.gateways.len());
        let reach = topo.reach_matrix(self.tx_power);
        CpProblem::new(
            self.channels.clone(),
            reach,
            traffic,
            self.gw_limits.clone(),
        )
    }

    /// Build the CP problem *from operational logs* — the production
    /// path of §4.3.3: "the log parser interprets the metadata from all
    /// gateways to extract information such as user traffic and
    /// user-gateway link profiles for the CP input", with the traffic
    /// estimator supplying peak-window per-device rates.
    ///
    /// Returns the problem plus the device order used for node indices
    /// (so a solution maps back to DevAddrs).
    pub fn problem_from_logs(
        &self,
        logs: &netserver::logparser::LogParser,
        estimator: &netserver::estimator::TrafficEstimator,
        n_gateways: usize,
        peak_windows: usize,
    ) -> (CpProblem, Vec<lora_mac::device::DevAddr>) {
        use lora_phy::snr::demod_snr_floor_db;

        let devices = logs.devices();
        // Reach matrix from measured per-gateway SNRs: ring `l` (data
        // rate 5−l) is usable toward gateway j iff the best observed
        // SNR clears that data rate's demodulation floor.
        let reach = devices
            .iter()
            .map(|&dev| {
                let profile = logs.profile(dev).expect("device came from the log");
                (0..n_gateways)
                    .map(|j| {
                        let snr = profile.best_snr_per_gw.get(&j).copied();
                        let mut row = [false; lora_phy::pathloss::DISTANCE_RINGS];
                        if let Some(snr) = snr {
                            for (l, slot) in row.iter_mut().enumerate() {
                                let dr = DataRate::from_index(5 - l).unwrap();
                                *slot = snr >= demod_snr_floor_db(dr.spreading_factor());
                            }
                        }
                        row
                    })
                    .collect()
            })
            .collect();
        // Traffic U from the highest-demand windows ("aggressively uses
        // samples with high capacity demand", §4.3.1); devices absent
        // from the peaks keep a small floor so they stay planned.
        let peaks = estimator.peak_samples(peak_windows);
        let traffic = devices
            .iter()
            .map(|dev| {
                let peak: u64 = peaks
                    .iter()
                    .map(|s| s.per_device.get(dev).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                (peak as f64).max(0.1)
            })
            .collect();
        (
            CpProblem::new(
                self.channels.clone(),
                reach,
                traffic,
                self.gw_limits.clone(),
            ),
            devices,
        )
    }

    /// Solve and materialize the plan.
    pub fn plan(&self, topo: &Topology, traffic: Vec<f64>) -> PlanOutcome {
        let problem = self.problem(topo, traffic);
        let (solution, objective) = GaSolver::new(self.ga).solve(&problem);
        self.materialize(&problem, solution, objective)
    }

    /// Convert a solution into channels/settings.
    pub fn materialize(
        &self,
        problem: &CpProblem,
        solution: CpSolution,
        objective: f64,
    ) -> PlanOutcome {
        let gateway_channels = solution
            .gw_channels
            .iter()
            .map(|chs| chs.iter().map(|&k| problem.channels[k]).collect())
            .collect();
        let node_settings = (0..problem.n_nodes())
            .map(|i| {
                (
                    problem.channels[solution.node_channel[i]],
                    solution.node_dr(i),
                    self.tx_power,
                )
            })
            .collect();
        PlanOutcome {
            solution,
            objective,
            gateway_channels,
            node_settings,
        }
    }
}

impl PlanOutcome {
    /// MAC commands that retune node `i` to its planned settings: a
    /// NewChannelReq installing the frequency in slot 0 plus a
    /// LinkADRReq selecting it with the planned DR and power — exactly
    /// the COTS-compatible control surface the paper claims (§4.3.3).
    pub fn commands_for_node(&self, i: usize) -> Vec<MacCommand> {
        let (ch, dr, power) = self.node_settings[i];
        vec![
            MacCommand::NewChannelReq(NewChannelReq {
                ch_index: 0,
                freq_hz: ch.center_hz,
                max_dr: DataRate::DR5,
                min_dr: DataRate::DR0,
            }),
            MacCommand::LinkAdrReq(LinkAdrReq {
                data_rate: dr,
                tx_power_idx: tx_power_index_for_dbm(power.0),
                ch_mask: 0b1, // only the freshly installed channel
                redundancy: 1,
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_mac::device::{DevAddr, Device};
    use lora_phy::channel::ChannelGrid;

    fn planner(n_gw: usize) -> IntraNetworkPlanner {
        let mut p = IntraNetworkPlanner::new(
            ChannelGrid::standard(916_800_000, 1_600_000).channels(),
            n_gw,
        );
        p.ga.generations = 40;
        p.ga.population = 24;
        p
    }

    #[test]
    fn plan_connects_all_nodes_on_dense_testbed() {
        let topo = Topology::new(
            (800.0, 800.0),
            48,
            5,
            lora_phy::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            3,
        );
        let pl = planner(5);
        let problem = pl.problem(&topo, vec![1.0; 48]);
        let outcome = pl.plan(&topo, vec![1.0; 48]);
        assert!(problem.feasible(&outcome.solution));
        assert!(problem.all_connected(&outcome.solution));
        assert_eq!(outcome.node_settings.len(), 48);
        assert_eq!(outcome.gateway_channels.len(), 5);
    }

    #[test]
    fn materialize_names_grid_channels_and_ring_data_rates() {
        let mut pl = planner(2);
        pl.tx_power = TxPowerDbm(8.0);
        let topo = Topology::new(
            (300.0, 300.0),
            3,
            2,
            lora_phy::pathloss::PathLossModel::default(),
            1,
        );
        let problem = pl.problem(&topo, vec![1.0; 3]);
        let solution = CpSolution {
            gw_channels: vec![vec![0, 5], vec![7]],
            node_channel: vec![5, 0, 7],
            node_ring: vec![0, 5, 2],
        };
        let grid = &problem.channels;
        let outcome = pl.materialize(&problem, solution.clone(), 1.5);
        assert_eq!(outcome.solution, solution);
        assert_eq!(outcome.objective, 1.5);
        assert_eq!(
            outcome.gateway_channels,
            [vec![grid[0], grid[5]], vec![grid[7]]]
        );
        // Ring l is the reach of DR(5 − l); every node gets the
        // planner's Tx power.
        let want = [
            (grid[5], DataRate::DR5, TxPowerDbm(8.0)),
            (grid[0], DataRate::DR0, TxPowerDbm(8.0)),
            (grid[7], DataRate::DR3, TxPowerDbm(8.0)),
        ];
        assert_eq!(outcome.node_settings, want);
    }

    #[test]
    fn commands_reconfigure_a_cots_device() {
        let topo = Topology::new(
            (400.0, 400.0),
            4,
            2,
            lora_phy::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            5,
        );
        let pl = planner(2);
        let outcome = pl.plan(&topo, vec![1.0; 4]);
        // Apply the planner's commands to a real Device model.
        let mut dev = Device::new(DevAddr::new(1, 0), vec![Channel::khz125(916_900_000)]);
        for cmd in outcome.commands_for_node(0) {
            dev.apply(&cmd);
        }
        let (ch, dr, _) = outcome.node_settings[0];
        assert_eq!(dev.enabled_channels(), vec![ch]);
        assert_eq!(dev.data_rate, dr);
    }

    #[test]
    fn log_driven_problem_matches_observations() {
        use lora_mac::device::DevAddr;
        use netserver::estimator::TrafficEstimator;
        use netserver::logparser::{LogParser, UplinkLog};

        let mut logs = LogParser::new(1_000_000);
        let mut est = TrafficEstimator::new(1_000_000);
        // Device 1: strong at gw0 (+8 dB), weak at gw1 (−18 dB), chatty.
        // Device 2: only gw1 hears it, barely (−19 dB), quiet.
        let entries = [
            (DevAddr(1), 0usize, 8.0, 10u64),
            (DevAddr(1), 1, -18.0, 10),
            (DevAddr(1), 0, 7.0, 500_000),
            (DevAddr(2), 1, -19.0, 20),
        ];
        for (dev, gw, snr, t) in entries {
            logs.ingest(&UplinkLog {
                dev_addr: dev,
                gw_id: gw,
                channel: Channel::khz125(916_900_000),
                dr: DataRate::DR0,
                snr_db: snr,
                timestamp_us: t,
            });
        }
        est.record(DevAddr(1), 10);
        est.record(DevAddr(1), 500_000);
        est.record(DevAddr(2), 20);

        let pl = planner(2);
        let (problem, devices) = pl.problem_from_logs(&logs, &est, 2, 3);
        assert_eq!(devices, vec![DevAddr(1), DevAddr(2)]);
        // Device 1 at gw0: +8 dB clears every ring including DR5 (−7.5).
        assert!(problem.reach[0][0].iter().all(|&b| b));
        // Device 1 at gw1: −18 dB only clears DR0 (−20), i.e. ring 5.
        assert!(!problem.reach[0][1][0]);
        assert!(problem.reach[0][1][5]);
        // Device 2 never reaches gw0.
        assert!(problem.reach[1][0].iter().all(|&b| !b));
        // Peak-window traffic: dev1 = 2 in window 0, dev2 = 1.
        assert_eq!(problem.traffic, vec![2.0, 1.0]);
        // And the problem is solvable end-to-end.
        let (sol, _) = crate::cp::ga::GaSolver::new(pl.ga).solve(&problem);
        assert!(problem.feasible(&sol));
        assert!(problem.all_connected(&sol));
    }

    #[test]
    fn traffic_weights_shift_risk() {
        // A node with huge traffic must not be parked on an overloaded
        // gateway when an alternative exists.
        let topo = Topology::new(
            (300.0, 300.0),
            6,
            2,
            lora_phy::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            7,
        );
        let pl = planner(2);
        let mut traffic = vec![1.0; 6];
        traffic[0] = 30.0; // heavy hitter
        let problem = pl.problem(&topo, traffic.clone());
        let outcome = pl.plan(&topo, traffic);
        assert!(problem.feasible(&outcome.solution));
    }
}
