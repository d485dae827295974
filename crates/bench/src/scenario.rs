//! Shared scenario builders for the paper's experiments.

use alphawan::planner::PlanOutcome;
use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::Channel;
use lora_phy::pathloss::PathLossModel;
use lora_phy::snr::demod_snr_floor_db;
use lora_phy::types::{DataRate, TxPowerDbm};
use sim::topology::{grid_positions, Topology};
use sim::traffic::{end_aligned_burst, TxPlan};
use sim::world::{PacketRecord, SimWorld};

/// PHY payload length used throughout the paper's experiments:
/// a 10-byte application payload + 13 bytes of LoRaWAN framing.
pub const PAYLOAD_LEN: usize = 23;

/// One operator's deployment inside a shared area.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Operator id stamped on this network's nodes and gateways.
    pub network_id: u32,
    /// How many end devices the operator deploys.
    pub n_nodes: usize,
    /// Channel configuration per gateway (defines the gateway count).
    pub gw_channels: Vec<Vec<Channel>>,
}

/// Builds a multi-network [`SimWorld`] over one urban area.
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    /// Deployment area, metres.
    pub area_m: (f64, f64),
    /// Seed for placement and frozen shadowing.
    pub seed: u64,
    /// Log-normal shadowing sigma, dB.
    pub shadowing_db: f64,
    /// Minimum link loss (dense-urban clutter floor). No node enjoys a
    /// free-space link to a rooftop gateway; this bounds the received
    /// power spread to what the paper's testbed traces show (SNRs of
    /// −15…+5 dB, Appendix D), keeping near-far cross-SF suppression at
    /// realistic levels.
    pub min_link_loss_db: f64,
    /// Maximum link loss (cap). `INFINITY` by default; experiments that
    /// reproduce the paper's strong-link lab regime (every gateway
    /// hears every node, §3.2's identical-reception condition) set a
    /// finite cap.
    pub max_link_loss_db: f64,
    /// The coexisting operator deployments.
    pub networks: Vec<NetworkSpec>,
}

impl WorldBuilder {
    /// A compact urban testbed (default 1.2 km × 0.9 km: every node
    /// reaches a gateway at any data rate, so decoder behaviour — not
    /// raw SNR — dominates, as in the paper's §5.1 probes).
    pub fn testbed(seed: u64) -> WorldBuilder {
        WorldBuilder {
            area_m: (1_200.0, 900.0),
            seed,
            shadowing_db: 2.0,
            min_link_loss_db: 108.0,
            max_link_loss_db: f64::INFINITY,
            networks: Vec::new(),
        }
    }

    /// Add one operator's deployment.
    pub fn network(mut self, spec: NetworkSpec) -> WorldBuilder {
        self.networks.push(spec);
        self
    }

    /// Node index range of network `idx` in the built world.
    pub fn node_range(&self, idx: usize) -> std::ops::Range<usize> {
        let start: usize = self.networks[..idx].iter().map(|n| n.n_nodes).sum();
        start..start + self.networks[idx].n_nodes
    }

    /// Gateway index range of network `idx` in the built world.
    pub fn gw_range(&self, idx: usize) -> std::ops::Range<usize> {
        let start: usize = self.networks[..idx]
            .iter()
            .map(|n| n.gw_channels.len())
            .sum();
        start..start + self.networks[idx].gw_channels.len()
    }

    /// Materialize the world. All networks' gateways share one grid
    /// (co-located deployments, as in §5.1.4); nodes are uniform over
    /// the area. When the process runs with --obs-out, the world
    /// streams its events to the session; otherwise no sink is
    /// attached and runs stay on the unobserved path.
    pub fn build(&self) -> SimWorld {
        self.build_with_sink(crate::obs_session::world_sink())
    }

    /// [`Self::build`] with an explicit observability sink (or none),
    /// bypassing the process-wide session. Parallel sweeps use this to
    /// buffer each job's events locally (e.g. into an
    /// [`obs::SharedSink`]-wrapped [`obs::VecSink`]) and replay them
    /// into the session in deterministic job order after the merge.
    pub fn build_with_sink(&self, sink: Option<Box<dyn obs::ObsSink>>) -> SimWorld {
        let n_nodes: usize = self.networks.iter().map(|n| n.n_nodes).sum();
        let n_gws: usize = self.networks.iter().map(|n| n.gw_channels.len()).sum();
        let model = PathLossModel {
            shadowing_sigma_db: self.shadowing_db,
            ..Default::default()
        };
        let mut topo = Topology::new(self.area_m, n_nodes, n_gws, model, self.seed);
        topo.clamp_loss(self.min_link_loss_db, self.max_link_loss_db);

        let profile = GatewayProfile::rak7268cv2();
        let mut gateways = Vec::with_capacity(n_gws);
        let mut node_network = Vec::with_capacity(n_nodes);
        let mut gw_idx = 0usize;
        for spec in &self.networks {
            for chans in &spec.gw_channels {
                let config = GatewayConfig::new(profile, chans.clone())
                    .expect("scenario channel config valid for an SX1302");
                gateways.push(Gateway::new(gw_idx, spec.network_id, profile, config));
                gw_idx += 1;
            }
            node_network.extend(std::iter::repeat_n(spec.network_id, spec.n_nodes));
        }
        let mut world = SimWorld::new(topo, node_network, gateways);
        if let Some(sink) = sink {
            world.set_obs_sink(sink);
        }
        world
    }
}

/// The §5.1 assignment: distinct (channel, data-rate) combinations,
/// node `i` on channel `i mod C` with data rate `(i / C) mod 6`.
pub fn orthogonal_assignments(
    node_ids: &[usize],
    channels: &[Channel],
) -> Vec<(usize, Channel, DataRate)> {
    node_ids
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (
                n,
                channels[i % channels.len()],
                DataRate::from_index((i / channels.len()) % 6).unwrap(),
            )
        })
        .collect()
}

/// Distance-aware orthogonal assignment: nodes are sorted by their
/// best-gateway path loss and grouped onto channels so that co-channel
/// users have similar received powers (within a group, the nearest node
/// takes the fastest data rate — what ADR/TPC provisioning produces in
/// a real deployment). This keeps the near-far cross-SF suppression
/// from corrupting capacity probes, matching the paper's testbed where
/// all scheduled transmissions were individually receivable.
pub fn balanced_orthogonal_assignments(
    topo: &Topology,
    node_ids: &[usize],
    channels: &[Channel],
) -> Vec<(usize, Channel, DataRate)> {
    let mut by_loss: Vec<usize> = node_ids.to_vec();
    let min_loss = |i: usize| -> f64 {
        topo.loss_db[i]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    };
    by_loss.sort_by(|&a, &b| min_loss(a).total_cmp(&min_loss(b)).then(a.cmp(&b)));

    let n = by_loss.len();
    let group = n.div_ceil(channels.len()).clamp(1, 6);
    by_loss
        .chunks(group)
        .enumerate()
        .flat_map(|(g, chunk)| {
            chunk.iter().enumerate().map(move |(r, &node)| {
                // Nearest in the chunk → fastest data rate.
                (node, g, DataRate::from_index(5 - r).unwrap())
            })
        })
        .map(|(node, g, dr)| (node, channels[g % channels.len()], dr))
        .collect()
}

/// Per-group transmit power control: equalize received powers within
/// each channel group (up to the 2–20 dBm device range) so co-channel
/// cross-SF suppression does not corrupt controlled capacity probes.
/// The paper's probes configure each node's parameters individually
/// (§5.1.1) — this is that provisioning step.
pub fn apply_group_tpc(world: &mut SimWorld, assignments: &[(usize, Channel, DataRate)]) {
    use std::collections::HashMap;
    let mut groups: HashMap<u32, Vec<(usize, Channel, DataRate)>> = HashMap::new();
    for &(node, ch, dr) in assignments {
        groups.entry(ch.center_hz).or_default().push((node, ch, dr));
    }
    // A node's reference loss is to its *serving* gateway — the best
    // gateway actually listening on its channel (Strategy ⑦ may be a
    // distant one), falling back to the global best if none listens.
    let serving_loss = |world: &SimWorld, i: usize, ch: &Channel| -> f64 {
        let over_listeners = world
            .gateways
            .iter()
            .enumerate()
            .filter(|(_, g)| g.rx_channel_for(ch).is_some())
            .map(|(j, _)| world.topo.loss_db[i][j])
            .fold(f64::INFINITY, f64::min);
        if over_listeners.is_finite() {
            over_listeners
        } else {
            world.topo.loss_db[i]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
        }
    };
    let noise = lora_phy::snr::noise_floor_dbm(lora_phy::types::Bandwidth::Khz125);
    for nodes in groups.values() {
        let loss_max = nodes
            .iter()
            .map(|&(i, ch, _)| serving_loss(world, i, &ch))
            .fold(f64::NEG_INFINITY, f64::max);
        for &(i, ch, dr) in nodes {
            let loss = serving_loss(world, i, &ch);
            // Equalize toward the weakest group member, but never push
            // this node's own link below its data rate's demodulation
            // floor (+2 dB margin).
            let equalized = 14.0 - (loss_max - loss);
            let own_floor = demod_snr_floor_db(dr.spreading_factor()) + 2.0 + loss + noise;
            world.node_power[i] = TxPowerDbm(equalized.max(own_floor).min(14.0)).quantized();
        }
    }
}

/// Coordinated periodic duty schedule: every user transmits once per
/// duty period (`airtime / duty`), and members of the same
/// (channel, DR) slot group are phase-staggered by the network server
/// so they never overlap while a group has ≤ `1/duty` members — the
/// scheduling discipline of the paper's §5.2.1 emulation ("distinct
/// time slots").
pub fn coordinated_schedule(
    assignments: &[(usize, Channel, DataRate)],
    duty: f64,
    horizon_us: u64,
    payload_len: usize,
) -> Vec<TxPlan> {
    use lora_phy::airtime::PacketParams;
    let phases = (1.0 / duty) as u64;
    let mut group_pos: std::collections::HashMap<(u32, usize), u64> =
        std::collections::HashMap::new();
    let mut plans = Vec::new();
    for &(node, channel, dr) in assignments {
        let airtime = PacketParams::lorawan_uplink(
            dr.spreading_factor(),
            lora_phy::types::Bandwidth::Khz125,
            payload_len,
        )
        .airtime()
        .total_us();
        let period = (airtime as f64 / duty) as u64;
        let pos = group_pos
            .entry((channel.center_hz, dr.index()))
            .or_insert(0);
        let phase = (*pos % phases) * (period / phases);
        *pos += 1;
        let mut t = phase;
        while t < horizon_us {
            plans.push(TxPlan {
                node,
                channel,
                dr,
                start_us: t,
                payload_len,
            });
            t += period;
        }
    }
    plans.sort_by_key(|p| p.start_us);
    plans
}

/// Map a planner outcome onto global node ids.
pub fn planned_assignments(
    outcome: &PlanOutcome,
    node_ids: &[usize],
) -> Vec<(usize, Channel, DataRate)> {
    assert_eq!(outcome.node_settings.len(), node_ids.len());
    node_ids
        .iter()
        .zip(&outcome.node_settings)
        .map(|(&n, &(ch, dr, _))| (n, ch, dr))
        .collect()
}

/// Run one fully-overlapping concurrent burst (end-aligned, so decoders
/// cannot free mid-burst across mixed spreading factors) and return the
/// per-packet records; the delivered count is the "maximum concurrent
/// users" capacity metric of §2.2/§5.1.
pub fn capacity_probe(
    world: &mut SimWorld,
    assignments: &[(usize, Channel, DataRate)],
) -> Vec<PacketRecord> {
    world.reset();
    let plans: Vec<TxPlan> = end_aligned_burst(assignments, PAYLOAD_LEN, 2_000_000, 1_000);
    world.run(&plans)
}

/// The data rate standard ADR would settle on for a node, judged from
/// its best gateway's SNR with the standard 10 dB installation margin
/// (Fig. 6's mechanism, without needing 20 uplinks of warm-up).
pub fn adr_data_rate(topo: &Topology, node: usize, tx: TxPowerDbm) -> DataRate {
    let best_snr = (0..topo.gateways.len())
        .map(|j| topo.snr_db(node, j, tx))
        .fold(f64::NEG_INFINITY, f64::max);
    let margin = 10.0;
    // Highest data rate whose demod floor clears the margin.
    for dr in DataRate::ALL.iter().rev() {
        if best_snr - margin >= demod_snr_floor_db(dr.spreading_factor()) {
            return *dr;
        }
    }
    DataRate::DR0
}

/// Extract a per-network sub-topology (that network's nodes and
/// gateways only) so an operator can plan over its own deployment.
pub fn subtopology(topo: &Topology, node_ids: &[usize], gw_ids: &[usize]) -> Topology {
    topo.subset(node_ids, gw_ids)
}

/// Evenly spread `n` positions — re-exported convenience.
pub fn grid(area: (f64, f64), n: usize) -> Vec<sim::topology::Pos> {
    grid_positions(area, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::ChannelGrid;

    fn eight() -> Vec<Channel> {
        ChannelGrid::standard(916_800_000, 1_600_000).channels()
    }

    #[test]
    fn builder_places_networks() {
        let b = WorldBuilder::testbed(1)
            .network(NetworkSpec {
                network_id: 1,
                n_nodes: 10,
                gw_channels: vec![eight(); 2],
            })
            .network(NetworkSpec {
                network_id: 2,
                n_nodes: 5,
                gw_channels: vec![eight(); 1],
            });
        let w = b.build();
        assert_eq!(w.topo.nodes.len(), 15);
        assert_eq!(w.gateways.len(), 3);
        assert_eq!(b.node_range(0), 0..10);
        assert_eq!(b.node_range(1), 10..15);
        assert_eq!(b.gw_range(1), 2..3);
        assert_eq!(w.node_network[0], 1);
        assert_eq!(w.node_network[14], 2);
        assert_eq!(w.gateways[2].network_id, 2);
    }

    #[test]
    fn orthogonal_assignments_distinct() {
        let ids: Vec<usize> = (0..48).collect();
        let a = orthogonal_assignments(&ids, &eight());
        let mut combos: Vec<(u32, usize)> =
            a.iter().map(|(_, c, d)| (c.center_hz, d.index())).collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), 48, "all (channel, DR) combos distinct");
    }

    #[test]
    fn probe_reproduces_sixteen_cap() {
        let b = WorldBuilder::testbed(3).network(NetworkSpec {
            network_id: 1,
            n_nodes: 20,
            gw_channels: vec![eight(); 1],
        });
        let mut w = b.build();
        let ids: Vec<usize> = (0..20).collect();
        let assigns = balanced_orthogonal_assignments(&w.topo, &ids, &eight());
        apply_group_tpc(&mut w, &assigns);
        let recs = capacity_probe(&mut w, &assigns);
        let delivered = recs.iter().filter(|r| r.delivered).count();
        assert_eq!(delivered, 16);
    }

    #[test]
    fn balanced_assignments_distinct_and_grouped() {
        let b = WorldBuilder::testbed(9).network(NetworkSpec {
            network_id: 1,
            n_nodes: 48,
            gw_channels: vec![eight(); 1],
        });
        let w = b.build();
        let ids: Vec<usize> = (0..48).collect();
        let a = balanced_orthogonal_assignments(&w.topo, &ids, &eight());
        assert_eq!(a.len(), 48);
        let mut combos: Vec<(u32, usize)> =
            a.iter().map(|(_, c, d)| (c.center_hz, d.index())).collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), 48, "all (channel, DR) combos distinct");
    }

    #[test]
    fn adr_rate_sane() {
        let b = WorldBuilder::testbed(4).network(NetworkSpec {
            network_id: 1,
            n_nodes: 30,
            gw_channels: vec![eight(); 9],
        });
        let w = b.build();
        // Dense grid: most nodes should get a fast data rate.
        let fast = (0..30)
            .filter(|&i| adr_data_rate(&w.topo, i, TxPowerDbm(14.0)) >= DataRate::DR3)
            .count();
        assert!(fast > 15, "only {fast}/30 fast");
    }

    #[test]
    fn coordinated_slots_never_overlap_within_a_group() {
        use lora_phy::airtime::PacketParams;
        use lora_phy::types::Bandwidth;
        let [shared, alone] = [eight()[0], eight()[1]];
        // Ten users fill the one slot group a 10% duty allows; two
        // more sit on another channel.
        let assigns: Vec<(usize, Channel, DataRate)> = (0..12)
            .map(|i| (i, if i < 10 { shared } else { alone }, DataRate::DR5))
            .collect();
        let horizon_us = 2_000_000;
        let plans = coordinated_schedule(&assigns, 0.1, horizon_us, 10);
        let airtime =
            PacketParams::lorawan_uplink(DataRate::DR5.spreading_factor(), Bandwidth::Khz125, 10)
                .airtime()
                .total_us();
        let period = airtime * 10;
        assert!(
            plans.windows(2).all(|w| w[0].start_us <= w[1].start_us),
            "sorted"
        );
        assert!(plans.iter().all(|p| p.start_us < horizon_us));
        for node in 0..12 {
            let starts: Vec<u64> = plans
                .iter()
                .filter(|p| p.node == node)
                .map(|p| p.start_us)
                .collect();
            assert!(
                starts.windows(2).all(|w| w[1] - w[0] == period),
                "node {node}: once a period"
            );
        }
        let group: Vec<u64> = plans
            .iter()
            .filter(|p| p.channel == shared)
            .map(|p| p.start_us)
            .collect();
        assert!(
            group.windows(2).all(|w| w[1] - w[0] >= airtime),
            "slot-group members overlap"
        );
        // The lone channel's users start on phases of their own group.
        let firsts: Vec<u64> = [10, 11]
            .iter()
            .map(|&n| plans.iter().find(|p| p.node == n).unwrap().start_us)
            .collect();
        assert_eq!(firsts, [0, airtime]);
    }

    #[test]
    fn subtopology_slices_consistently() {
        let b = WorldBuilder::testbed(5)
            .network(NetworkSpec {
                network_id: 1,
                n_nodes: 6,
                gw_channels: vec![eight(); 2],
            })
            .network(NetworkSpec {
                network_id: 2,
                n_nodes: 4,
                gw_channels: vec![eight(); 2],
            });
        let w = b.build();
        let sub = subtopology(&w.topo, &[6, 7, 8, 9], &[2, 3]);
        assert_eq!(sub.nodes.len(), 4);
        assert_eq!(sub.gateways.len(), 2);
        assert_eq!(sub.loss_db[0][0], w.topo.loss_db[6][2]);
        assert_eq!(sub.loss_db[3][1], w.topo.loss_db[9][3]);
    }
}
