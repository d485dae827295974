//! The simulation world: medium arbitration + gateway pipeline + server
//! deduplication + loss-cause classification.
//!
//! A run processes three events per transmission — start (interference
//! registration), lock-on (decoder admission at every gateway, in global
//! lock-on order) and end (PHY verdicts, decoder release, delivery).
//!
//! A packet is *delivered* if at least one gateway of its own network
//! receives it (LoRaWAN's any-gateway reception, Appendix B). A lost
//! packet is booked to the paper's taxonomy (Fig. 4 / Fig. 13c) —
//! decoder contention, channel contention, other, plus the chaos
//! layer's infrastructure bucket — by one fold, `metrics::LossFold`.
//!
//! # One engine, one spec
//!
//! Every run — [`SimWorld::run`], [`SimWorld::run_streamed`], their
//! `_with_faults` forms and [`SimWorld::run_sharded_with_faults`] — executes
//! on the chunk-fed engine in [`crate::shard`]; this module holds the
//! world and the record and counter types. The world keeps each shard's
//! engine buffers between runs, so a repeat run clears them instead of
//! allocating them again. The engine is bit-for-bit equivalent to the
//! executable specification in [`crate::reference`]; the workspace
//! `sim_equivalence` proptest holds the two to record-for-record
//! identity.

use crate::shard::{ShardOpts, ShardState};
use crate::topology::Topology;
use crate::traffic::TxPlan;
use gateway::radio::{Gateway, PacketAtGateway};
use lora_phy::airtime::lorawan_uplink_airtime;
use lora_phy::channel::Channel;
use lora_phy::types::{DataRate, TxPowerDbm};
use obs::{ObsEvent, ObsSink};
use serde::{Deserialize, Serialize};

/// A materialized transmission (a [`TxPlan`] with computed airtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// Simulator-global transmission id (index into the plan list).
    pub id: u64,
    /// Packet-lifecycle trace id ([`obs::packet_trace`] of the world's
    /// run epoch and `id`), threaded through every event this
    /// transmission generates. Deterministic for a fixed (epoch, id).
    pub trace: u64,
    /// Sending node index.
    pub node: usize,
    /// Operator/network of the sender.
    pub network_id: u32,
    /// Uplink channel.
    pub channel: Channel,
    /// Uplink data rate.
    pub dr: DataRate,
    /// First preamble symbol on air, µs.
    pub start_us: u64,
    /// Preamble end (gateway lock-on instant), µs.
    pub lock_on_us: u64,
    /// Airtime end, µs.
    pub end_us: u64,
    /// PHY payload length, bytes.
    pub payload_len: usize,
}

impl Transmission {
    /// Plan `p` on air as transmission `id` of run `epoch`, sent by a
    /// node of `network_id`.
    pub(crate) fn from_plan(p: &TxPlan, id: u64, epoch: u64, network_id: u32) -> Transmission {
        let airtime = lorawan_uplink_airtime(p.dr.spreading_factor(), p.payload_len);
        Transmission {
            id,
            trace: obs::packet_trace(epoch, id),
            node: p.node,
            network_id,
            channel: p.channel,
            dr: p.dr,
            start_us: p.start_us,
            lock_on_us: airtime.lock_on_at(p.start_us),
            end_us: airtime.end_at(p.start_us),
            payload_len: p.payload_len,
        }
    }

    /// The packet as a gateway hears it at `rssi_dbm` / `snr_db`.
    pub(crate) fn at_gateway(&self, rssi_dbm: f64, snr_db: f64) -> PacketAtGateway {
        PacketAtGateway {
            tx_id: self.id,
            trace: self.trace,
            network_id: self.network_id,
            channel: self.channel,
            sf: self.dr.spreading_factor(),
            rssi_dbm,
            snr_db,
            lock_on_us: self.lock_on_us,
            end_us: self.end_us,
        }
    }

    /// Stream the packet's `PacketOutcome`: delivered exactly when the
    /// loss fold booked no `cause`.
    pub(crate) fn emit_outcome(
        &self,
        sink: &mut (impl ObsSink + ?Sized),
        cause: Option<LossCause>,
    ) {
        if sink.enabled() {
            sink.record(&ObsEvent::PacketOutcome {
                t_us: self.end_us,
                trace: self.trace,
                tx: self.id,
                delivered: cause.is_none(),
                cause: cause.map(LossCause::obs_kind),
            });
        }
    }

    /// The packet's record: delivered exactly when some gateway in
    /// `receiving_gateways` received it.
    pub(crate) fn record(
        &self,
        receiving_gateways: Vec<usize>,
        cause: Option<LossCause>,
    ) -> PacketRecord {
        PacketRecord {
            tx_id: self.id,
            node: self.node,
            network_id: self.network_id,
            channel: self.channel,
            dr: self.dr,
            start_us: self.start_us,
            end_us: self.end_us,
            payload_len: self.payload_len,
            delivered: !receiving_gateways.is_empty(),
            receiving_gateways,
            cause,
        }
    }
}

/// Why a packet was lost (paper taxonomy, Fig. 4, plus the chaos
/// layer's infrastructure bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossCause {
    /// Own-network packets exhausted the decoder pool.
    DecoderContentionIntra,
    /// Foreign-network packets held the decoders (Fig. 3e/f).
    DecoderContentionInter,
    /// Same-channel same-SF collision within the network.
    ChannelContentionIntra,
    /// Same-channel same-SF collision with a coexisting network.
    ChannelContentionInter,
    /// Interference, poor SNR, out of range, …
    Other,
    /// Lost to injected infrastructure failure (gateway crash mid-run,
    /// decoder lock-up, …): the packet would have been delivered on
    /// healthy hardware. Separates "lost to contention" from "lost to
    /// infrastructure" in fault-injection runs.
    Infrastructure,
}

impl LossCause {
    /// The observability mirror of this cause (`obs` is a leaf crate
    /// and defines its own copy of the taxonomy).
    pub fn obs_kind(self) -> obs::LossKind {
        match self {
            LossCause::DecoderContentionIntra => obs::LossKind::DecoderIntra,
            LossCause::DecoderContentionInter => obs::LossKind::DecoderInter,
            LossCause::ChannelContentionIntra => obs::LossKind::ChannelIntra,
            LossCause::ChannelContentionInter => obs::LossKind::ChannelInter,
            LossCause::Other => obs::LossKind::Other,
            LossCause::Infrastructure => obs::LossKind::Infrastructure,
        }
    }
}

/// Per-packet outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// Transmission id.
    pub tx_id: u64,
    /// Sending node index.
    pub node: usize,
    /// Operator/network of the sender.
    pub network_id: u32,
    /// Uplink channel.
    pub channel: Channel,
    /// Uplink data rate.
    pub dr: DataRate,
    /// First preamble symbol on air, µs.
    pub start_us: u64,
    /// Airtime end, µs.
    pub end_us: u64,
    /// PHY payload length, bytes.
    pub payload_len: usize,
    /// Whether at least one own-network gateway received the packet.
    pub delivered: bool,
    /// Gateways (by index) that successfully received the packet.
    pub receiving_gateways: Vec<usize>,
    /// Loss cause when not delivered.
    pub cause: Option<LossCause>,
}

/// Aggregate counters from the most recent run, exposed via
/// [`SimWorld::last_run_stats`]. The world never streams these into its
/// attached obs sink — `wall_us` is host wall-clock, and runs must stay
/// byte-identical for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimRunStats {
    /// Transmissions in the plan.
    pub txs: u64,
    /// Events processed (3 × txs).
    pub events: u64,
    /// Gateways in the world.
    pub gateways: u32,
    /// (transmission, gateway) admission pairs actually visited at
    /// lock-on after the candidate cull.
    pub candidate_visits: u64,
    /// `txs × gateways`: the pairs the un-indexed loop would visit.
    pub candidate_ceiling: u64,
    /// Interference contributions added at TxStart (collider-list
    /// pushes, sorted-index inserts, leak folds).
    #[serde(default)]
    pub accum_updates: u64,
    /// Leak contributions exactly undone at TxEnd.
    #[serde(default)]
    pub accum_undos: u64,
    /// Dead collider-list and sorted-index entries compacted out.
    #[serde(default)]
    pub accum_evictions: u64,
    /// Time-wheel level cascades across all shards.
    #[serde(default)]
    pub wheel_cascades: u64,
    /// Host wall-clock duration of the run, µs.
    pub wall_us: u64,
}

impl SimRunStats {
    /// Fraction of the full (transmission, gateway) product the lock-on
    /// loop actually visited (1.0 = no cull).
    pub fn cull_ratio(&self) -> f64 {
        if self.candidate_ceiling == 0 {
            1.0
        } else {
            self.candidate_visits as f64 / self.candidate_ceiling as f64
        }
    }
}

/// The simulation world.
pub struct SimWorld {
    /// Deployment geometry and frozen link losses.
    pub topo: Topology,
    /// The gateways under simulation.
    pub gateways: Vec<Gateway>,
    /// Operator of each node.
    pub node_network: Vec<u32>,
    /// Current Tx power of each node (set by ADR / planning).
    pub node_power: Vec<TxPowerDbm>,
    /// CIC mode (Shahid et al., SIGCOMM'21): same-channel same-SF
    /// collisions are resolved at the PHY, so both packets survive the
    /// collision — but still compete for decoders, exactly how the
    /// paper evaluates CIC ("we apply the same decoder resource
    /// constraints of COTS gateways to CIC", §5.2.1).
    pub cic: bool,
    /// Attached observability sink, if any ([`SimWorld::set_obs_sink`]).
    pub(crate) obs: Option<Box<dyn ObsSink>>,
    /// Runs completed so far; disambiguates trace ids when one process
    /// (and one JSONL stream) hosts many runs. Advances on every run,
    /// observed or not, so attaching a sink never shifts the ids.
    pub(crate) run_epoch: u64,
    /// Counters from the most recent run.
    pub(crate) last_stats: Option<SimRunStats>,
    /// Per-shard counters from the most recent run (see
    /// [`crate::shard`]).
    pub(crate) last_shard_stats: Option<Vec<crate::shard::ShardRunStats>>,
    /// Each shard's engine buffers, handed from one run to the next.
    pub(crate) engine: Vec<ShardState>,
}

impl SimWorld {
    /// Build a world; node powers default to 14 dBm.
    pub fn new(topo: Topology, node_network: Vec<u32>, gateways: Vec<Gateway>) -> SimWorld {
        assert_eq!(topo.nodes.len(), node_network.len());
        let n = topo.nodes.len();
        SimWorld {
            topo,
            gateways,
            node_network,
            node_power: vec![TxPowerDbm(14.0); n],
            cic: false,
            obs: None,
            run_epoch: 0,
            last_stats: None,
            last_shard_stats: None,
            engine: Vec::new(),
        }
    }

    /// The epoch the *next* run will mint trace ids under (the number
    /// of runs completed so far).
    pub fn run_epoch(&self) -> u64 {
        self.run_epoch
    }

    /// Attach an observability sink: subsequent runs stream typed
    /// [`ObsEvent`]s into it (transmission starts, lock-ons, decoder
    /// acquire/release/drops, per-packet outcomes). Use
    /// [`obs::SharedSink`] to keep a reading handle outside the world.
    pub fn set_obs_sink(&mut self, sink: Box<dyn ObsSink>) {
        self.obs = Some(sink);
    }

    /// Detach and return the current observability sink, if any.
    pub fn take_obs_sink(&mut self) -> Option<Box<dyn ObsSink>> {
        self.obs.take()
    }

    /// Stream every gateway's identity, in global order: analyzers
    /// need the gateway→network ownership map before any packet event
    /// to classify decoder holds as own- vs foreign-network.
    pub(crate) fn emit_gateway_info(&self, sink: &mut dyn ObsSink) {
        if sink.enabled() {
            for g in &self.gateways {
                sink.record(&ObsEvent::GatewayInfo {
                    gw: g.id as u32,
                    network: g.network_id,
                    capacity: g.pool().capacity() as u32,
                });
            }
        }
    }

    /// Counters from the most recent run of any kind: events
    /// processed, candidate-cull ratio and wall time. `None` before the
    /// first run.
    pub fn last_run_stats(&self) -> Option<SimRunStats> {
        self.last_stats
    }

    /// Reset gateway pipelines and stats between runs.
    pub fn reset(&mut self) {
        for g in &mut self.gateways {
            g.reset();
        }
    }

    /// Execute the planned transmissions and return one record per plan.
    pub fn run(&mut self, plans: &[TxPlan]) -> Vec<PacketRecord> {
        self.run_with_faults(plans, &crate::faults::NoFaults)
    }

    /// [`Self::run`] under an infrastructure-fault schedule: crashed
    /// gateways detect nothing (and lose receptions in flight when the
    /// crash window overlaps them), locked-up decoders shrink admission
    /// capacity, and losses that healthy hardware would have avoided
    /// are classified [`LossCause::Infrastructure`].
    ///
    /// One shard, so the engine runs on the calling thread: no spawn,
    /// no channel ([`Self::run_sharded_with_faults`] is the same run
    /// spread over threads).
    pub fn run_with_faults(
        &mut self,
        plans: &[TxPlan],
        faults: &dyn crate::faults::InfraFaults,
    ) -> Vec<PacketRecord> {
        let opts = ShardOpts {
            max_shards: 1,
            ..ShardOpts::default()
        };
        self.run_sharded_with_faults(plans, faults, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Pos;
    use crate::traffic::{concurrent_burst, BurstScheme};
    use gateway::config::GatewayConfig;
    use gateway::profile::GatewayProfile;
    use lora_phy::pathloss::PathLossModel;
    use lora_phy::region::StandardChannelPlan;

    /// A small, shadowing-free world where every link is strong and
    /// near-far power differences stay below the cross-SF rejection
    /// margin — SNR is never the limiting factor.
    fn clean_world(n_nodes: usize, gw_networks: &[u32]) -> SimWorld {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let topo = Topology::new((100.0, 100.0), n_nodes, gw_networks.len(), model, 1);
        let profile = GatewayProfile::rak7268cv2();
        let plan = StandardChannelPlan::us915_subband(0);
        let gateways = gw_networks
            .iter()
            .enumerate()
            .map(|(i, &net)| {
                Gateway::new(
                    i,
                    net,
                    profile,
                    GatewayConfig::new(profile, plan.channels.clone()).unwrap(),
                )
            })
            .collect();
        SimWorld::new(topo, vec![1; n_nodes], gateways)
    }

    /// Distinct (channel, DR) assignments over the sub-band-0 plan.
    fn orthogonal_assignments(n: usize) -> Vec<(usize, Channel, DataRate)> {
        let plan = StandardChannelPlan::us915_subband(0);
        (0..n)
            .map(|i| {
                (
                    i,
                    plan.channels[i % 8],
                    DataRate::from_index(i / 8 % 6).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn sixteen_cap_single_gateway() {
        // Fig 2a: 20 orthogonal concurrent users, one gateway ⇒ 16
        // received, 4 lost to decoder contention.
        let mut w = clean_world(20, &[1]);
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        let delivered = recs.iter().filter(|r| r.delivered).count();
        assert_eq!(delivered, 16);
        let decoder_losses = recs
            .iter()
            .filter(|r| r.cause == Some(LossCause::DecoderContentionIntra))
            .count();
        assert_eq!(decoder_losses, 4);
        // FCFS: exactly the first 16 by lock-on order.
        for r in &recs {
            assert_eq!(r.delivered, r.tx_id < 16, "tx {}", r.tx_id);
        }
    }

    #[test]
    fn homogeneous_extra_gateways_do_not_help() {
        // Fig 2a: 3 gateways with identical channel plans still ⇒ 16.
        let mut w = clean_world(20, &[1, 1, 1]);
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        assert_eq!(recs.iter().filter(|r| r.delivered).count(), 16);
    }

    #[test]
    fn heterogeneous_gateways_do_help() {
        // Strategy ②: two gateways covering disjoint halves of the plan
        // lift capacity above 16 for 24 users on 8 channels... here we
        // give each gateway 4 distinct channels and 24 orthogonal users.
        let profile = GatewayProfile::rak7268cv2();
        let plan = StandardChannelPlan::us915_subband(0);
        let mut w = clean_world(24, &[1, 1]);
        w.gateways[0]
            .reconfigure(GatewayConfig::new(profile, plan.channels[..4].to_vec()).unwrap());
        w.gateways[1]
            .reconfigure(GatewayConfig::new(profile, plan.channels[4..].to_vec()).unwrap());
        let plans = concurrent_burst(
            &orthogonal_assignments(24),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        let delivered = recs.iter().filter(|r| r.delivered).count();
        assert_eq!(
            delivered, 24,
            "12 users per gateway fit in 16 decoders each"
        );
    }

    #[test]
    fn coexisting_networks_sum_to_sixteen() {
        // Fig 2b: two networks, same spectrum, one gateway each with the
        // same plan: total received across both networks = 16.
        let mut w = clean_world(20, &[1, 2]);
        w.node_network = (0..20).map(|i| if i % 2 == 0 { 1 } else { 2 }).collect();
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        let net1 = recs
            .iter()
            .filter(|r| r.delivered && r.network_id == 1)
            .count();
        let net2 = recs
            .iter()
            .filter(|r| r.delivered && r.network_id == 2)
            .count();
        assert_eq!(net1 + net2, 16, "aggregate cap across coexisting networks");
        // Losses are inter-network decoder contention.
        let inter = recs
            .iter()
            .filter(|r| r.cause == Some(LossCause::DecoderContentionInter))
            .count();
        assert_eq!(inter, 4);
    }

    #[test]
    fn same_settings_collide() {
        // Two nodes, identical channel+DR, fully overlapping in time,
        // equal received power ⇒ both lost to intra channel contention.
        let mut w = clean_world(2, &[1]);
        w.topo.loss_db[0][0] = 80.0;
        w.topo.loss_db[1][0] = 80.0;
        let ch = StandardChannelPlan::us915_subband(0).channels[0];
        let plans = vec![
            TxPlan {
                node: 0,
                channel: ch,
                dr: DataRate::DR5,
                start_us: 0,
                payload_len: 10,
            },
            TxPlan {
                node: 1,
                channel: ch,
                dr: DataRate::DR5,
                start_us: 1_000,
                payload_len: 10,
            },
        ];
        let recs = w.run(&plans);
        assert!(recs.iter().all(|r| !r.delivered));
        assert!(recs
            .iter()
            .all(|r| r.cause == Some(LossCause::ChannelContentionIntra)));
    }

    #[test]
    fn capture_lets_strong_packet_survive() {
        // Same settings but one node much closer: the strong one wins.
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let mut topo = Topology::new((2_000.0, 100.0), 2, 1, model, 1);
        // Place node 0 near the gateway, node 1 far.
        topo.nodes[0] = Pos {
            x_m: topo.gateways[0].x_m + 50.0,
            y_m: topo.gateways[0].y_m,
        };
        topo.nodes[1] = Pos {
            x_m: topo.gateways[0].x_m + 900.0,
            y_m: topo.gateways[0].y_m,
        };
        let topo = {
            // Re-freeze losses for the new positions (no shadowing).
            let mut t = topo;
            for i in 0..2 {
                for j in 0..1 {
                    t.loss_db[i][j] = t.model.mean_loss_db(t.nodes[i].dist_m(&t.gateways[j]));
                }
            }
            t
        };
        let profile = GatewayProfile::rak7268cv2();
        let plan = StandardChannelPlan::us915_subband(0);
        let gw = Gateway::new(
            0,
            1,
            profile,
            GatewayConfig::new(profile, plan.channels.clone()).unwrap(),
        );
        let mut w = SimWorld::new(topo, vec![1, 1], vec![gw]);
        let ch = plan.channels[0];
        let plans = vec![
            TxPlan {
                node: 0,
                channel: ch,
                dr: DataRate::DR4,
                start_us: 0,
                payload_len: 10,
            },
            TxPlan {
                node: 1,
                channel: ch,
                dr: DataRate::DR4,
                start_us: 500,
                payload_len: 10,
            },
        ];
        let recs = w.run(&plans);
        assert!(recs[0].delivered, "strong near packet captures");
        assert!(!recs[1].delivered);
        assert_eq!(recs[1].cause, Some(LossCause::ChannelContentionIntra));
    }

    #[test]
    fn misaligned_networks_do_not_contend() {
        // Strategy ⑧ in miniature: network 2 on 40%-shifted channels.
        // Network 1's gateway never admits network 2's packets.
        let mut w = clean_world(20, &[1]);
        w.node_network = (0..20).map(|i| if i < 10 { 1 } else { 2 }).collect();
        let plan = StandardChannelPlan::us915_subband(0);
        let assigns: Vec<(usize, Channel, DataRate)> = (0..20)
            .map(|i| {
                let base = plan.channels[i % 8];
                let ch = if i < 10 {
                    base
                } else {
                    Channel::khz125(base.center_hz + 50_000) // 40% shift
                };
                (i, ch, DataRate::from_index(i / 8 % 6).unwrap())
            })
            .collect();
        let plans = concurrent_burst(
            &assigns,
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        // All 10 of network 1 delivered (no foreign occupation).
        let net1_ok = recs
            .iter()
            .filter(|r| r.network_id == 1 && r.delivered)
            .count();
        assert_eq!(net1_ok, 10);
        let foreign_filtered = w.gateways[0].stats().foreign_filtered;
        assert_eq!(
            foreign_filtered, 0,
            "misaligned packets never entered the pipeline"
        );
    }

    #[test]
    fn obs_sink_sees_full_event_stream() {
        use obs::{LossKind, SharedSink, TraceAnalyzer, VecSink};
        // Same 20-user burst as `sixteen_cap_single_gateway`, observed.
        let shared = SharedSink::new(VecSink::new());
        let mut w = clean_world(20, &[1]);
        w.set_obs_sink(Box::new(shared.handle()));
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        assert_eq!(recs.iter().filter(|r| r.delivered).count(), 16);
        let mut analyzer = TraceAnalyzer::new();
        shared.with(|v| analyzer.observe_all(v.events()));
        let report = analyzer.into_report();
        let count = |kind: &str| report.events.get(kind).copied().unwrap_or(0);
        assert_eq!(count("tx_start"), 20);
        assert_eq!(count("packet_lock_on"), 20);
        assert_eq!(count("decoder_acquired"), 16);
        assert_eq!(count("decoder_released"), 16);
        assert_eq!(count("pool_full_drop"), 4);
        assert_eq!(report.delivered, 16);
        assert_eq!(report.lost.get(&Some(LossKind::DecoderIntra)), Some(&4));
        let [gw] = report.gateways[..] else {
            panic!("one gateway, one run: {:?}", report.gateways)
        };
        assert_eq!(gw.peak_in_use, 16, "the pool saturated");
        assert_eq!(gw.capacity, 16);
        let closed = report
            .timelines
            .values()
            .flat_map(|tl| &tl.holds)
            .filter(|h| h.end_us.is_some())
            .count();
        assert_eq!(closed, 16, "one closed hold per admission");
        // The sink survives the run and can be detached.
        assert!(w.take_obs_sink().is_some());
        assert!(w.take_obs_sink().is_none());
    }

    #[test]
    fn obs_instrumented_run_matches_unobserved() {
        // Identical records with and without a sink attached.
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let mut plain = clean_world(20, &[1]);
        let recs_plain = plain.run(&plans);
        let mut observed = clean_world(20, &[1]);
        observed.set_obs_sink(Box::new(obs::VecSink::new()));
        let recs_obs = observed.run(&plans);
        assert_eq!(recs_plain, recs_obs);
    }

    #[test]
    fn out_of_range_is_other() {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let topo = Topology::new((60_000.0, 60_000.0), 1, 1, model, 1);
        let profile = GatewayProfile::rak7268cv2();
        let plan = StandardChannelPlan::us915_subband(0);
        let gw = Gateway::new(
            0,
            1,
            profile,
            GatewayConfig::new(profile, plan.channels.clone()).unwrap(),
        );
        let mut w = SimWorld::new(topo, vec![1], vec![gw]);
        let plans = vec![TxPlan {
            node: 0,
            channel: plan.channels[0],
            dr: DataRate::DR5,
            start_us: 0,
            payload_len: 10,
        }];
        let recs = w.run(&plans);
        assert!(!recs[0].delivered);
        assert_eq!(recs[0].cause, Some(LossCause::Other));
    }

    #[test]
    fn run_stats_report_cull_and_events() {
        let mut w = clean_world(20, &[1]);
        assert!(w.last_run_stats().is_none());
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let _ = w.run(&plans);
        let stats = w.last_run_stats().expect("a run happened");
        assert_eq!(stats.txs, 20);
        assert_eq!(stats.events, 60, "three events per transmission");
        assert_eq!(stats.gateways, 1);
        assert_eq!(stats.candidate_ceiling, 20);
        assert!(stats.candidate_visits <= stats.candidate_ceiling);
        assert!(stats.cull_ratio() <= 1.0 && stats.cull_ratio() > 0.0);
    }

    #[test]
    fn pool_drop_outranks_collision_at_another_gateway() {
        // Packet P (node 16) is dropped by gateway `full`, whose pool 16
        // long fillers hold, with a clean verdict there; at gateway
        // `clear` it is admitted but captured by Q (node 17), which is
        // 20 dB stronger there and out of range at `full`. Decoder
        // contention outranks the collision whichever gateway comes
        // first, in the engine and in the spec alike.
        let ch = StandardChannelPlan::us915_subband(0).channels[0];
        let fillers = orthogonal_assignments(16);
        for (full, clear) in [(0, 1), (1, 0)] {
            let mut plans: Vec<TxPlan> = fillers
                .iter()
                .map(|&(node, channel, dr)| TxPlan {
                    node,
                    channel,
                    dr,
                    start_us: node as u64 * 1_000,
                    payload_len: 10,
                })
                .collect();
            for (node, start_us) in [(16, 500_000), (17, 500_100)] {
                plans.push(TxPlan {
                    node,
                    channel: ch,
                    dr: DataRate::DR5,
                    start_us,
                    payload_len: 10,
                });
            }
            let build = || {
                let mut w = clean_world(18, &[1, 1]);
                for (node, _, _) in &fillers {
                    w.topo.loss_db[*node][full] = 80.0;
                    w.topo.loss_db[*node][clear] = 200.0;
                }
                w.topo.loss_db[16][full] = 80.0;
                w.topo.loss_db[16][clear] = 100.0;
                w.topo.loss_db[17][full] = 200.0;
                w.topo.loss_db[17][clear] = 80.0;
                w
            };
            let engine = build().run(&plans);
            let spec = crate::reference::run_with_faults_reference(
                &mut build(),
                &plans,
                &crate::faults::NoFaults,
            );
            assert_eq!(engine, spec);
            assert!(engine[..16].iter().all(|r| r.receiving_gateways == [full]));
            assert_eq!(engine[17].receiving_gateways, [clear], "Q captured P");
            assert!(!engine[16].delivered);
            assert_eq!(
                engine[16].cause,
                Some(LossCause::DecoderContentionIntra),
                "full pool at gateway {full}"
            );
        }
    }

    #[test]
    fn records_echo_their_plans() {
        let plan = StandardChannelPlan::us915_subband(0);
        let mut w = clean_world(30, &[1, 2]);
        w.node_network = (0..30).map(|i| 1 + (i % 3 == 0) as u32).collect();
        let plans: Vec<TxPlan> = (0..30)
            .map(|i| TxPlan {
                node: 29 - i,
                channel: plan.channels[i * 5 % 8],
                dr: DataRate::from_index(i % 6).unwrap(),
                start_us: 7_919 * (i * i % 31) as u64,
                payload_len: 1 + i * 7 % 51,
            })
            .collect();
        let recs = w.run(&plans);
        assert_eq!(recs.len(), plans.len());
        for (i, (r, p)) in recs.iter().zip(&plans).enumerate() {
            assert_eq!(r.tx_id, i as u64);
            assert_eq!(
                (r.node, r.network_id, r.channel, r.dr),
                (p.node, w.node_network[p.node], p.channel, p.dr),
                "tx {i}"
            );
            assert_eq!((r.start_us, r.payload_len), (p.start_us, p.payload_len));
            let airtime = lorawan_uplink_airtime(p.dr.spreading_factor(), p.payload_len);
            assert_eq!(r.end_us - r.start_us, airtime.total_us(), "tx {i}");
            assert_eq!(r.delivered, !r.receiving_gateways.is_empty());
            assert_eq!(r.delivered, r.cause.is_none());
        }
    }

    #[test]
    fn run_matches_reference_loop() {
        // Spot equivalence of the engine and the spec on the capacity
        // scenario (the workspace proptest covers random worlds):
        // identical records and stats.
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let mut fast = clean_world(20, &[1, 1]);
        let fast_recs = fast.run(&plans);
        let mut slow = clean_world(20, &[1, 1]);
        let slow_recs = crate::reference::run_with_faults_reference(
            &mut slow,
            &plans,
            &crate::faults::NoFaults,
        );
        assert_eq!(fast_recs, slow_recs);
        for (a, b) in fast.gateways.iter().zip(&slow.gateways) {
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn cic_resolves_the_collision_standard_does_not() {
        let ch = StandardChannelPlan::us915_subband(0).channels[0];
        let plans: Vec<TxPlan> = [0, 1_000]
            .into_iter()
            .enumerate()
            .map(|(node, start_us)| TxPlan {
                node,
                channel: ch,
                dr: DataRate::DR5,
                start_us,
                payload_len: 10,
            })
            .collect();
        for (cic, delivered) in [(false, 0), (true, 2)] {
            let mut w = clean_world(2, &[1]);
            w.topo.loss_db[0][0] = 80.0;
            w.topo.loss_db[1][0] = 80.0;
            w.cic = cic;
            let recs = w.run(&plans);
            assert_eq!(
                recs.iter().filter(|r| r.delivered).count(),
                delivered,
                "cic {cic}"
            );
        }
    }

    #[test]
    fn cic_still_bounded_by_decoders() {
        // 20 collision-free users through a 16-decoder gateway: CIC
        // cannot lift the decoder cap.
        let mut w = clean_world(20, &[1]);
        w.cic = true;
        let plans = concurrent_burst(
            &orthogonal_assignments(20),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let recs = w.run(&plans);
        assert_eq!(recs.iter().filter(|r| r.delivered).count(), 16);
    }

    #[test]
    fn run_epoch_advances_on_every_run_with_or_without_a_sink() {
        let plans = concurrent_burst(
            &orthogonal_assignments(4),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let mut w = clean_world(4, &[1]);
        assert_eq!(w.run_epoch(), 0);
        w.run(&plans);
        assert_eq!(w.run_epoch(), 1, "an unobserved run still advances");
        let shared = obs::SharedSink::new(obs::VecSink::new());
        w.set_obs_sink(Box::new(shared.handle()));
        w.run(&plans);
        assert_eq!(w.run_epoch(), 2);
        // The observed run minted its trace ids under the epoch it ran
        // in, so attaching a sink late never reuses an earlier run's ids.
        let minted: Vec<(u64, u64)> = shared.with(|v| {
            v.events()
                .iter()
                .filter_map(|e| match *e {
                    ObsEvent::TxStart { trace, tx, .. } => Some((trace, tx)),
                    _ => None,
                })
                .collect()
        });
        assert_eq!(minted.len(), 4);
        for (trace, tx) in minted {
            assert_eq!(trace, obs::packet_trace(1, tx));
        }
    }
}
