//! The Channel Planning (CP) problem — the §4.3.1 formulation.
//!
//! A LoRaWAN network is the triplet (GW, ND, CH); `R ∈ {0,1}^{ND×GW×DR}`
//! records reachability per discrete transmission-distance ring, `U`
//! carries per-node traffic rates, and each gateway `j` has decoder
//! budget `C_j`, channel budget `P_j` and radio bandwidth `B_j`.
//!
//! Decisions: gateway channel sets `h_{jk}`, node channels `f_{ik}` and
//! node distance rings `d_{il}` (ring ⇒ data rate + Tx power). The
//! objective minimizes `Σ_i U_i · Φ_i` where `Φ_i` is the minimum
//! decoder-overflow risk among the gateways serving node `i` — a
//! knapsack-style NP-hard problem solved approximately by [`ga`] with
//! [`greedy`] seeding, and checked in tests against an exhaustive
//! oracle on small instances.

pub mod anneal;
pub mod eval;
pub mod ga;
pub mod greedy;

use lora_phy::channel::Channel;
use lora_phy::pathloss::DISTANCE_RINGS;
use lora_phy::types::DataRate;
use serde::{Deserialize, Serialize};

/// Per-gateway hardware budgets (the constants `C_j`, `P_j`, `B_j`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayLimits {
    /// Decoders, `C_j`.
    pub decoders: usize,
    /// Maximum operating channels, `P_j`.
    pub max_channels: usize,
    /// Radio bandwidth, `B_j`, Hz.
    pub bandwidth_hz: u32,
}

impl GatewayLimits {
    /// Budgets of the paper's reference SX1302 gateway.
    pub fn sx1302() -> GatewayLimits {
        GatewayLimits {
            decoders: 16,
            max_channels: 8,
            bandwidth_hz: 1_600_000,
        }
    }
}

/// A CP problem instance.
#[derive(Debug, Clone)]
pub struct CpProblem {
    /// The candidate channel set CH (a standard 200 kHz grid).
    pub channels: Vec<Channel>,
    /// `reach[i][j][l]`: node `i` reaches gateway `j` at ring `l`
    /// (ring 0 = shortest range = DR5).
    pub reach: Vec<Vec<[bool; DISTANCE_RINGS]>>,
    /// Per-node traffic weight `U_i` (packets per window).
    pub traffic: Vec<f64>,
    pub gw_limits: Vec<GatewayLimits>,
    /// Penalty weight for an unconnected node (must dwarf any
    /// achievable risk).
    pub disconnect_penalty: f64,
    /// Penalty per duplicate (channel, ring) assignment — an extension
    /// to the paper's formulation that discourages channel contention
    /// among concurrent users (documented in DESIGN.md).
    pub duplicate_penalty: f64,
}

thread_local! {
    /// Reusable duplicate-slot counters for [`CpProblem::objective`]
    /// (grown once per thread to the largest grid seen, cleared
    /// sparsely after each call).
    static SLOT_SCRATCH: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl CpProblem {
    /// Problem with default penalties.
    pub fn new(
        channels: Vec<Channel>,
        reach: Vec<Vec<[bool; DISTANCE_RINGS]>>,
        traffic: Vec<f64>,
        gw_limits: Vec<GatewayLimits>,
    ) -> CpProblem {
        assert_eq!(reach.len(), traffic.len());
        assert!(reach.iter().all(|r| r.len() == gw_limits.len()));
        let total_traffic: f64 = traffic.iter().sum();
        CpProblem {
            channels,
            reach,
            traffic,
            gw_limits,
            disconnect_penalty: (total_traffic + 1.0) * 10.0,
            duplicate_penalty: 1.0,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.traffic.len()
    }

    pub fn n_gateways(&self) -> usize {
        self.gw_limits.len()
    }

    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel-grid spacing in Hz (assumes a uniform grid).
    pub fn channel_spacing_hz(&self) -> u32 {
        if self.channels.len() < 2 {
            return 200_000;
        }
        self.channels[1].center_hz - self.channels[0].center_hz
    }

    /// How many grid channels fit inside one gateway's radio bandwidth.
    pub fn window_channels(&self, j: usize) -> usize {
        (self.gw_limits[j].bandwidth_hz / self.channel_spacing_hz()) as usize
    }

    /// Evaluate a solution: the §4.3.1 objective plus penalties.
    /// Lower is better; a fully-connected, contention-free plan scores 0.
    pub fn objective(&self, sol: &CpSolution) -> f64 {
        debug_assert_eq!(sol.node_channel.len(), self.n_nodes());
        // Gateway channel masks.
        let masks: Vec<u64> = sol
            .gw_channels
            .iter()
            .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
            .collect();

        // k_j: traffic contending at gateway j.
        let mut k = vec![0f64; self.n_gateways()];
        for i in 0..self.n_nodes() {
            let ch = sol.node_channel[i];
            let ring = sol.node_ring[i];
            for j in 0..self.n_gateways() {
                if (masks[j] >> ch) & 1 == 1 && self.reach[i][j][ring] {
                    k[j] += self.traffic[i];
                }
            }
        }
        // φ_j: overflow risk.
        let phi: Vec<f64> = k
            .iter()
            .zip(&self.gw_limits)
            .map(|(&kj, lim)| (kj - lim.decoders as f64).max(0.0))
            .collect();

        // Φ_i: best-gateway risk per node; disconnected ⇒ penalty.
        let mut obj = 0.0;
        for i in 0..self.n_nodes() {
            let ch = sol.node_channel[i];
            let ring = sol.node_ring[i];
            let mut best: Option<f64> = None;
            for j in 0..self.n_gateways() {
                if (masks[j] >> ch) & 1 == 1 && self.reach[i][j][ring] {
                    best = Some(best.map_or(phi[j], |b: f64| b.min(phi[j])));
                }
            }
            match best {
                Some(risk) => obj += self.traffic[i] * risk,
                None => obj += self.disconnect_penalty,
            }
        }

        // Duplicate (channel, ring) pressure (extension, see DESIGN.md).
        // Counted through a reusable dense scratch keyed by
        // `channel * DISTANCE_RINGS + ring` — the same slot index the
        // [`eval`] engine uses — instead of a per-call HashMap: no
        // allocation after warm-up and a deterministic accumulation
        // order. Only the touched slots are cleared afterwards, so the
        // pass stays O(nodes) regardless of grid size.
        let n_slots = self.n_channels() * DISTANCE_RINGS;
        let dup_units = SLOT_SCRATCH.with(|cell| {
            let mut counts = cell.borrow_mut();
            if counts.len() < n_slots {
                counts.resize(n_slots, 0);
            }
            let mut units = 0u64;
            for (&ch, &ring) in sol.node_channel.iter().zip(&sol.node_ring) {
                let slot = ch * DISTANCE_RINGS + ring;
                counts[slot] += 1;
                if counts[slot] >= 2 {
                    units += 1;
                }
            }
            for (&ch, &ring) in sol.node_channel.iter().zip(&sol.node_ring) {
                counts[ch * DISTANCE_RINGS + ring] = 0;
            }
            units
        });
        obj += self.duplicate_penalty * dup_units as f64;
        obj
    }

    /// Validate hard constraints: gateway channel budgets, bandwidth
    /// spans, channel indices in range.
    pub fn feasible(&self, sol: &CpSolution) -> bool {
        if sol.gw_channels.len() != self.n_gateways()
            || sol.node_channel.len() != self.n_nodes()
            || sol.node_ring.len() != self.n_nodes()
        {
            return false;
        }
        for (j, chs) in sol.gw_channels.iter().enumerate() {
            if chs.is_empty() || chs.len() > self.gw_limits[j].max_channels {
                return false;
            }
            if chs.iter().any(|&k| k >= self.n_channels()) {
                return false;
            }
            let lo = chs
                .iter()
                .map(|&k| self.channels[k].low_hz())
                .fold(f64::INFINITY, f64::min);
            let hi = chs
                .iter()
                .map(|&k| self.channels[k].high_hz())
                .fold(f64::NEG_INFINITY, f64::max);
            if hi - lo > self.gw_limits[j].bandwidth_hz as f64 {
                return false;
            }
        }
        sol.node_channel.iter().all(|&c| c < self.n_channels())
            && sol.node_ring.iter().all(|&r| r < DISTANCE_RINGS)
    }

    /// Whether every node is connected under `sol`.
    #[cfg(test)]
    pub(crate) fn all_connected(&self, sol: &CpSolution) -> bool {
        let masks: Vec<u64> = sol
            .gw_channels
            .iter()
            .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
            .collect();
        (0..self.n_nodes()).all(|i| {
            (0..self.n_gateways()).any(|j| {
                (masks[j] >> sol.node_channel[i]) & 1 == 1 && self.reach[i][j][sol.node_ring[i]]
            })
        })
    }
}

/// A CP solution: the decision variables in direct encoding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpSolution {
    /// Channel indices each gateway listens on (`h_{jk}`).
    pub gw_channels: Vec<Vec<usize>>,
    /// Channel index per node (`f_{ik}`).
    pub node_channel: Vec<usize>,
    /// Distance ring per node (`d_{il}`; ring 0 = DR5 … ring 5 = DR0).
    pub node_ring: Vec<usize>,
}

impl CpSolution {
    /// Data rate implied by a node's ring.
    pub fn node_dr(&self, i: usize) -> DataRate {
        DataRate::from_index(5 - self.node_ring[i]).expect("ring < 6")
    }
}

#[cfg(test)]
mod brute;

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::ChannelGrid;

    /// Two gateways, four channels, four nodes all reaching both
    /// gateways at every ring.
    fn tiny() -> CpProblem {
        let channels = ChannelGrid::standard(920_000_000, 800_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; 2]; 4];
        let traffic = vec![1.0; 4];
        let limits = vec![
            GatewayLimits {
                decoders: 2,
                max_channels: 4,
                bandwidth_hz: 1_600_000
            };
            2
        ];
        CpProblem::new(channels, reach, traffic, limits)
    }

    #[test]
    fn a_radio_window_holds_its_bandwidth_over_the_grid_spacing() {
        let limits = |bandwidth_hz| GatewayLimits {
            decoders: 16,
            max_channels: 8,
            bandwidth_hz,
        };
        let problem = |channels: Vec<Channel>| {
            let reach = vec![vec![[true; DISTANCE_RINGS]; 2]; 1];
            let gateways = vec![limits(1_600_000), limits(800_000)];
            CpProblem::new(channels, reach, vec![1.0], gateways)
        };
        let standard = problem(ChannelGrid::standard(920_000_000, 1_600_000).channels());
        assert_eq!(standard.channel_spacing_hz(), 200_000);
        assert_eq!(
            (standard.window_channels(0), standard.window_channels(1)),
            (8, 4)
        );
        // Half-overlapping channels sit 62.5 kHz apart; a window counts
        // whole spacings only.
        let dense = problem(ChannelGrid::overlapping(920_000_000, 1_600_000, 0.5).channels());
        assert_eq!(dense.channel_spacing_hz(), 62_500);
        assert_eq!(dense.window_channels(0), 25);
        // One channel has no spacing of its own: the standard grid's.
        let single = problem(vec![Channel::khz125(920_000_000)]);
        assert_eq!(single.channel_spacing_hz(), 200_000);
    }

    #[test]
    fn balanced_plan_scores_zero() {
        let p = tiny();
        // GW0 on channels {0,1}, GW1 on {2,3}; two nodes each; distinct
        // (channel, ring) pairs.
        let sol = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 1, 2, 3],
            node_ring: vec![5, 5, 5, 5],
        };
        assert!(p.feasible(&sol));
        assert!(p.all_connected(&sol));
        assert_eq!(p.objective(&sol), 0.0);
    }

    #[test]
    fn overload_scores_positive() {
        let p = tiny();
        // All four nodes on GW0's two channels: k_0 = 4 > C = 2.
        let sol = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 0, 1, 1],
            node_ring: vec![5, 4, 5, 4],
        };
        let obj = p.objective(&sol);
        // φ_0 = 2, each node pays U·2 = 2 ⇒ 8.
        assert_eq!(obj, 8.0);
    }

    #[test]
    fn disconnection_penalized_heavily() {
        let p = tiny();
        // Node 0 on channel 3 but no gateway listens there.
        let sol = CpSolution {
            gw_channels: vec![vec![0], vec![1]],
            node_channel: vec![3, 0, 1, 1],
            node_ring: vec![5; 4],
        };
        assert!(!p.all_connected(&sol));
        assert!(p.objective(&sol) >= p.disconnect_penalty);
    }

    #[test]
    fn duplicate_assignments_penalized() {
        let p = tiny();
        let unique = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 0, 2, 2],
            node_ring: vec![5, 4, 5, 4],
        };
        let dup = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 0, 2, 2],
            node_ring: vec![5, 5, 5, 5], // two (0,5) and two (2,5) pairs
        };
        assert!(p.objective(&dup) > p.objective(&unique));
    }

    #[test]
    fn infeasible_shapes_rejected() {
        let p = tiny();
        let mut sol = CpSolution {
            gw_channels: vec![vec![0], vec![1]],
            node_channel: vec![0; 4],
            node_ring: vec![0; 4],
        };
        assert!(p.feasible(&sol));
        sol.gw_channels[0] = vec![]; // empty gateway
        assert!(!p.feasible(&sol));
        sol.gw_channels[0] = vec![9]; // out-of-range channel
        assert!(!p.feasible(&sol));
        sol.gw_channels[0] = vec![0, 1, 2, 3, 0]; // over budget
        assert!(!p.feasible(&sol));
    }

    #[test]
    fn bandwidth_span_enforced() {
        let channels = ChannelGrid::standard(920_000_000, 4_800_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; 1]; 1];
        let p = CpProblem::new(channels, reach, vec![1.0], vec![GatewayLimits::sx1302()]);
        // Channels 0 and 23 span 4.6 MHz ≫ 1.6 MHz.
        let sol = CpSolution {
            gw_channels: vec![vec![0, 23]],
            node_channel: vec![0],
            node_ring: vec![5],
        };
        assert!(!p.feasible(&sol));
    }

    #[test]
    fn ring_to_dr_mapping() {
        let sol = CpSolution {
            gw_channels: vec![],
            node_channel: vec![0, 0],
            node_ring: vec![0, 5],
        };
        assert_eq!(sol.node_dr(0), DataRate::DR5);
        assert_eq!(sol.node_dr(1), DataRate::DR0);
    }
}
