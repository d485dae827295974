//! Run metrics used throughout the paper's §5 — PRR, throughput, loss
//! breakdowns — and `LossFold`, the one place a lost packet is booked
//! to a Fig 4 cause.

use crate::accum::Verdict;
use crate::shard::Seen;
use crate::world::{LossCause, PacketRecord};
use serde::{Deserialize, Serialize};

/// What one gateway of a packet's own network made of it: how
/// admission saw it, the PHY verdict there, and whether the gateway
/// crashed while it held the packet's decoder (`false` unless
/// [`Seen::Admitted`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fate {
    pub(crate) seen: Seen,
    pub(crate) verdict: Verdict,
    pub(crate) crashed_mid_rx: bool,
}

/// The Fig 4 classifier: folds a packet's [`Fate`]s at its own
/// network's gateways, in ascending gateway order, into its
/// [`LossCause`]. A lost packet is booked to the first rung that holds:
/// **infrastructure** (some gateway would have decoded it but was down
/// at lock-on, crashed mid-reception, or dropped it with decoders
/// locked up), **decoder contention** (some gateway dropped it for want
/// of a decoder with a clean verdict; *inter* if foreign packets held
/// decoders at any of them), **channel contention** (a same-settings
/// collision; *inter*/*intra* by the first one's strongest collider),
/// else **other**.
///
/// The engine and the spec ([`crate::reference`]) both book through
/// this fold. That costs the differential no independence that matters:
/// the ladder is bookkeeping, not physics — each side still derives
/// every fate (admission order, decoder holds, verdicts, crash windows)
/// on its own, so a disagreement there still shows as differing
/// records. A fault in the ladder itself is witnessed instead by this
/// module's `the_ladder_books_each_rung_in_order`,
/// `foreign_held_ors_across_gateways`, `the_first_collision_names_the_network`,
/// `a_delivered_packet_books_no_cause`, and by
/// `world::tests::pool_drop_outranks_collision_at_another_gateway`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LossFold {
    infrastructure: bool,
    /// `Some` once a clean decoder drop is seen; OR of `foreign_held`.
    decoder: Option<bool>,
    /// The first collision's strongest colliding network.
    collision: Option<u32>,
}

impl LossFold {
    /// Fold in the packet's fate at the next own-network gateway.
    #[inline]
    pub(crate) fn note(&mut self, fate: Fate) {
        match (fate.seen, fate.verdict) {
            (_, Verdict::Collision { with_network }) => {
                self.collision.get_or_insert(with_network);
            }
            (_, Verdict::Interference) => {}
            (Seen::Admitted, Verdict::Ok) => self.infrastructure |= fate.crashed_mid_rx,
            (Seen::DownAtLockOn, Verdict::Ok)
            | (Seen::Dropped { lockup: true, .. }, Verdict::Ok) => self.infrastructure = true,
            (Seen::Dropped { foreign_held, .. }, Verdict::Ok) => {
                *self.decoder.get_or_insert(false) |= foreign_held;
            }
        }
    }

    /// The cause of a packet of `network_id` with the fates folded so
    /// far: `None` if it was `delivered`.
    #[inline]
    pub(crate) fn cause(&self, network_id: u32, delivered: bool) -> Option<LossCause> {
        if delivered {
            return None;
        }
        Some(match (self.infrastructure, self.decoder, self.collision) {
            (true, _, _) => LossCause::Infrastructure,
            (_, Some(true), _) => LossCause::DecoderContentionInter,
            (_, Some(false), _) => LossCause::DecoderContentionIntra,
            (_, _, Some(net)) if net == network_id => LossCause::ChannelContentionIntra,
            (_, _, Some(_)) => LossCause::ChannelContentionInter,
            (_, _, None) => LossCause::Other,
        })
    }
}

/// Counts per loss cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossBreakdown {
    /// Decoder contention against the packet's own network.
    pub decoder_intra: u64,
    /// Decoder contention against coexisting networks.
    pub decoder_inter: u64,
    /// Same-settings collisions within the packet's own network.
    pub channel_intra: u64,
    /// Same-settings collisions with coexisting networks.
    pub channel_inter: u64,
    /// SNR / interference / out-of-range losses.
    pub other: u64,
    /// Losses caused by injected infrastructure faults (gateway
    /// crashes, decoder lock-ups) — separates "lost to contention"
    /// from "lost to infrastructure" in chaos runs. Zero in fault-free
    /// runs.
    pub infrastructure: u64,
}

impl LossBreakdown {
    /// Total losses across all causes.
    pub fn total(&self) -> u64 {
        self.decoder_intra
            + self.decoder_inter
            + self.channel_intra
            + self.channel_inter
            + self.other
            + self.infrastructure
    }

    /// Count one loss of the given cause.
    pub fn add(&mut self, cause: LossCause) {
        match cause {
            LossCause::DecoderContentionIntra => self.decoder_intra += 1,
            LossCause::DecoderContentionInter => self.decoder_inter += 1,
            LossCause::ChannelContentionIntra => self.channel_intra += 1,
            LossCause::ChannelContentionInter => self.channel_inter += 1,
            LossCause::Other => self.other += 1,
            LossCause::Infrastructure => self.infrastructure += 1,
        }
    }

    /// Add another breakdown's counts in.
    pub(crate) fn merge(&mut self, other: &LossBreakdown) {
        self.decoder_intra += other.decoder_intra;
        self.decoder_inter += other.decoder_inter;
        self.channel_intra += other.channel_intra;
        self.channel_inter += other.channel_inter;
        self.other += other.other;
        self.infrastructure += other.infrastructure;
    }

    /// All decoder-contention losses.
    pub fn decoder(&self) -> u64 {
        self.decoder_intra + self.decoder_inter
    }

    /// All channel-contention losses.
    pub fn channel(&self) -> u64 {
        self.channel_intra + self.channel_inter
    }

    /// All contention losses (decoder + channel), as opposed to
    /// infrastructure losses.
    pub fn contention(&self) -> u64 {
        self.decoder() + self.channel()
    }
}

/// Aggregate metrics of one run (optionally filtered to one network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Packets transmitted.
    pub sent: u64,
    /// Packets received by at least one own-network gateway.
    pub delivered: u64,
    /// Losses by cause.
    pub losses: LossBreakdown,
    /// Delivered application payload, bytes.
    pub delivered_payload_bytes: u64,
    /// Run horizon (max end − min start), µs.
    pub horizon_us: u64,
}

impl RunMetrics {
    /// Compute metrics over all records, or only those of `network`.
    pub fn from_records(records: &[PacketRecord], network: Option<u32>) -> RunMetrics {
        let mut s = NetSummary::default();
        for r in records
            .iter()
            .filter(|r| network.is_none_or(|n| r.network_id == n))
        {
            s.note(r.start_us, r.end_us, r.payload_len, r.delivered, r.cause);
        }
        RunMetrics {
            sent: s.sent,
            delivered: s.delivered,
            losses: s.losses,
            delivered_payload_bytes: s.delivered_payload_bytes,
            horizon_us: s.horizon_us(),
        }
    }

    /// Packet reception ratio.
    pub fn prr(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Packet loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        1.0 - self.prr()
    }

    /// Goodput in bits per second over the run horizon.
    pub fn throughput_bps(&self) -> f64 {
        if self.horizon_us == 0 {
            0.0
        } else {
            self.delivered_payload_bytes as f64 * 8.0 * 1e6 / self.horizon_us as f64
        }
    }

    /// Fraction of losses attributable to each cause, in the order
    /// (decoder-intra, decoder-inter, channel-intra, channel-inter,
    /// other, infrastructure), relative to packets *sent* (the paper's
    /// Fig 4 stacks, extended with the chaos layer's bucket — which is
    /// 0 in fault-free runs, keeping the original five additive).
    pub fn loss_fractions(&self) -> [f64; 6] {
        if self.sent == 0 {
            return [0.0; 6];
        }
        let s = self.sent as f64;
        [
            self.losses.decoder_intra as f64 / s,
            self.losses.decoder_inter as f64 / s,
            self.losses.channel_intra as f64 / s,
            self.losses.channel_inter as f64 / s,
            self.losses.other as f64 / s,
            self.losses.infrastructure as f64 / s,
        ]
    }
}

/// Per-network aggregate of a run, foldable one packet at a time —
/// the record-free outcome the streaming shard loop accumulates so a
/// million-node run never materializes per-packet [`PacketRecord`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSummary {
    /// Packets transmitted.
    pub sent: u64,
    /// Packets received by at least one own-network gateway.
    pub delivered: u64,
    /// Losses by cause.
    pub losses: LossBreakdown,
    /// Delivered application payload, bytes.
    pub delivered_payload_bytes: u64,
    /// Earliest transmission start, µs (`u64::MAX` while empty).
    pub t_min_us: u64,
    /// Latest transmission end, µs.
    pub t_max_us: u64,
}

impl Default for NetSummary {
    fn default() -> NetSummary {
        NetSummary {
            sent: 0,
            delivered: 0,
            losses: LossBreakdown::default(),
            delivered_payload_bytes: 0,
            t_min_us: u64::MAX,
            t_max_us: 0,
        }
    }
}

impl NetSummary {
    /// Fold one packet outcome in.
    pub fn note(
        &mut self,
        start_us: u64,
        end_us: u64,
        payload_len: usize,
        delivered: bool,
        cause: Option<LossCause>,
    ) {
        self.sent += 1;
        self.t_min_us = self.t_min_us.min(start_us);
        self.t_max_us = self.t_max_us.max(end_us);
        if delivered {
            self.delivered += 1;
            self.delivered_payload_bytes += payload_len as u64;
        } else if let Some(c) = cause {
            self.losses.add(c);
        }
    }

    /// Merge another summary in (shard roll-up).
    pub fn merge(&mut self, other: &NetSummary) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.losses.merge(&other.losses);
        self.delivered_payload_bytes += other.delivered_payload_bytes;
        self.t_min_us = self.t_min_us.min(other.t_min_us);
        self.t_max_us = self.t_max_us.max(other.t_max_us);
    }

    /// Packet delivery ratio.
    pub fn pdr(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Run horizon (max end − min start), µs; 0 while empty.
    pub fn horizon_us(&self) -> u64 {
        if self.sent == 0 {
            0
        } else {
            self.t_max_us - self.t_min_us
        }
    }

    /// Distribution over the seven packet outcomes (delivered + the six
    /// loss causes), normalized by packets sent. All-zero while empty.
    pub fn outcome_distribution(&self) -> [f64; 7] {
        if self.sent == 0 {
            return [0.0; 7];
        }
        let s = self.sent as f64;
        [
            self.delivered as f64 / s,
            self.losses.decoder_intra as f64 / s,
            self.losses.decoder_inter as f64 / s,
            self.losses.channel_intra as f64 / s,
            self.losses.channel_inter as f64 / s,
            self.losses.other as f64 / s,
            self.losses.infrastructure as f64 / s,
        ]
    }
}

/// Aggregate outcome of one run: the global fold plus one
/// [`NetSummary`] per network, keyed deterministically.
///
/// This is what sharded/streamed runs return instead of a record list,
/// and what the **statistical-equivalence gate** compares at scales
/// where the bit-exact `sim::reference` loop cannot run (see
/// [`RunSummary::statistically_equivalent`] and `docs/SCALING.md`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Fold over every packet of the run.
    pub total: NetSummary,
    /// Fold per network id, ascending in id — so iteration and
    /// serialization order are deterministic regardless of the order
    /// outcomes were folded in.
    pub per_network: Vec<(u32, NetSummary)>,
}

impl RunSummary {
    /// The fold for `network_id`, created empty (at its sorted
    /// position) on first sight.
    fn net_entry(&mut self, network_id: u32) -> &mut NetSummary {
        let i = match self.per_network.binary_search_by_key(&network_id, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.per_network
                    .insert(i, (network_id, NetSummary::default()));
                i
            }
        };
        &mut self.per_network[i].1
    }

    /// The fold for `network_id`, if any packet of that network was
    /// noted.
    pub fn network(&self, network_id: u32) -> Option<&NetSummary> {
        self.per_network
            .binary_search_by_key(&network_id, |e| e.0)
            .ok()
            .map(|i| &self.per_network[i].1)
    }

    /// Fold one packet outcome in.
    pub fn note(
        &mut self,
        network_id: u32,
        start_us: u64,
        end_us: u64,
        payload_len: usize,
        delivered: bool,
        cause: Option<LossCause>,
    ) {
        self.total
            .note(start_us, end_us, payload_len, delivered, cause);
        self.net_entry(network_id)
            .note(start_us, end_us, payload_len, delivered, cause);
    }

    /// Merge another summary in (shard roll-up; order-independent).
    pub fn merge(&mut self, other: &RunSummary) {
        self.total.merge(&other.total);
        for (net, s) in &other.per_network {
            self.net_entry(*net).merge(s);
        }
    }

    /// Build a summary from materialized records (the small-scale
    /// anchor: `RunSummary::from_records(&world.run(..))` must equal
    /// the streamed fold exactly).
    pub fn from_records(records: &[PacketRecord]) -> RunSummary {
        let mut s = RunSummary::default();
        for r in records {
            s.note(
                r.network_id,
                r.start_us,
                r.end_us,
                r.payload_len,
                r.delivered,
                r.cause,
            );
        }
        s
    }

    /// Largest absolute per-network PDR difference versus `other`
    /// (includes the global fold; a network present on one side only
    /// compares against an empty fold).
    pub fn pdr_gap(&self, other: &RunSummary) -> f64 {
        let mut gap = (self.total.pdr() - other.total.pdr()).abs();
        let empty = NetSummary::default();
        let nets = self
            .per_network
            .iter()
            .chain(other.per_network.iter())
            .map(|e| e.0);
        for net in nets {
            let a = self.network(net).unwrap_or(&empty);
            let b = other.network(net).unwrap_or(&empty);
            gap = gap.max((a.pdr() - b.pdr()).abs());
        }
        gap
    }

    /// Total-variation distance between the global outcome
    /// distributions (delivered + six loss causes): `½ Σ |pᵢ − qᵢ|`,
    /// in `[0, 1]`.
    pub fn loss_tv_distance(&self, other: &RunSummary) -> f64 {
        let p = self.total.outcome_distribution();
        let q = other.total.outcome_distribution();
        p.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0
    }

    /// The statistical-equivalence gate: per-network PDR within
    /// `pdr_tol` and outcome-distribution TV distance within `tv_tol`
    /// of `other`. `Err` carries a human-readable violation report.
    ///
    /// Used where the bit-exact reference cannot run (e.g. 1M nodes):
    /// an N-shard streamed run is compared against a 1-shard streamed
    /// run of the same workload, which this crate *proves* byte-equal
    /// at small scale — so a gate failure at large scale means scale
    /// itself broke determinism (overflow, allocation-order leak, …).
    pub fn statistically_equivalent(
        &self,
        other: &RunSummary,
        pdr_tol: f64,
        tv_tol: f64,
    ) -> Result<(), String> {
        let mut violations = Vec::new();
        if self.total.sent != other.total.sent {
            violations.push(format!(
                "sent diverged: {} vs {}",
                self.total.sent, other.total.sent
            ));
        }
        let gap = self.pdr_gap(other);
        if gap > pdr_tol {
            violations.push(format!("PDR gap {gap:.6} > tolerance {pdr_tol}"));
        }
        let tv = self.loss_tv_distance(other);
        if tv > tv_tol {
            violations.push(format!(
                "loss-distribution TV distance {tv:.6} > tolerance {tv_tol}"
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// Per-data-rate usage distribution over sent packets (Fig. 6d/e,
/// Fig. 13d input): fraction of packets per DR index 0..=5.
pub fn dr_distribution(records: &[PacketRecord]) -> [f64; 6] {
    let mut counts = [0u64; 6];
    for r in records {
        counts[r.dr.index()] += 1;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return [0.0; 6];
    }
    core::array::from_fn(|i| counts[i] as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::Channel;
    use lora_phy::types::DataRate;

    fn rec(id: u64, net: u32, delivered: bool, cause: Option<LossCause>) -> PacketRecord {
        PacketRecord {
            tx_id: id,
            node: id as usize,
            network_id: net,
            channel: Channel::khz125(920_000_000),
            dr: DataRate::DR3,
            start_us: id * 1_000,
            end_us: id * 1_000 + 100_000,
            payload_len: 10,
            delivered,
            receiving_gateways: if delivered { vec![0] } else { vec![] },
            cause,
        }
    }

    #[test]
    fn prr_and_breakdown() {
        let records = vec![
            rec(0, 1, true, None),
            rec(1, 1, false, Some(LossCause::DecoderContentionIntra)),
            rec(2, 1, false, Some(LossCause::DecoderContentionInter)),
            rec(3, 1, false, Some(LossCause::ChannelContentionIntra)),
            rec(4, 1, false, Some(LossCause::Other)),
        ];
        let m = RunMetrics::from_records(&records, None);
        assert_eq!(m.sent, 5);
        assert_eq!(m.delivered, 1);
        assert!((m.prr() - 0.2).abs() < 1e-12);
        assert_eq!(m.losses.decoder(), 2);
        assert_eq!(m.losses.channel(), 1);
        assert_eq!(m.losses.other, 1);
        let f = m.loss_fractions();
        assert!((f.iter().sum::<f64>() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn network_filter() {
        let records = vec![
            rec(0, 1, true, None),
            rec(1, 2, true, None),
            rec(2, 2, false, Some(LossCause::Other)),
        ];
        let m1 = RunMetrics::from_records(&records, Some(1));
        let m2 = RunMetrics::from_records(&records, Some(2));
        assert_eq!(m1.sent, 1);
        assert_eq!(m2.sent, 2);
        assert_eq!(m2.delivered, 1);
    }

    #[test]
    fn throughput_math() {
        let mut records = vec![rec(0, 1, true, None)];
        records[0].start_us = 0;
        records[0].end_us = 1_000_000; // 1 s horizon
        let m = RunMetrics::from_records(&records, None);
        assert!((m.throughput_bps() - 80.0).abs() < 1e-9); // 10 B in 1 s
    }

    #[test]
    fn empty_records_safe() {
        let m = RunMetrics::from_records(&[], None);
        assert_eq!(m.prr(), 0.0);
        assert_eq!(m.throughput_bps(), 0.0);
    }

    const NET: u32 = 1;
    const FOREIGN: u32 = 2;
    const OK: Verdict = Verdict::Ok;
    const NOISE: Verdict = Verdict::Interference;
    const ADMITTED: Seen = Seen::Admitted;
    const DOWN: Seen = Seen::DownAtLockOn;
    const LOCKUP: Seen = Seen::Dropped {
        foreign_held: false,
        lockup: true,
    };

    fn dropped(foreign_held: bool) -> Seen {
        Seen::Dropped {
            foreign_held,
            lockup: false,
        }
    }

    fn hit(with_network: u32) -> Verdict {
        Verdict::Collision { with_network }
    }

    fn at(seen: Seen, verdict: Verdict) -> Fate {
        Fate {
            seen,
            verdict,
            crashed_mid_rx: false,
        }
    }

    fn crashed(verdict: Verdict) -> Fate {
        Fate {
            crashed_mid_rx: true,
            ..at(ADMITTED, verdict)
        }
    }

    /// The cause a lost packet of `NET` is booked to after `fates`.
    fn book(fates: &[Fate]) -> Option<LossCause> {
        let mut fold = LossFold::default();
        for &f in fates {
            fold.note(f);
        }
        fold.cause(NET, false)
    }

    #[test]
    fn the_ladder_books_each_rung_in_order() {
        use LossCause::*;
        let table: &[(&str, &[Fate], LossCause)] = &[
            ("no own gateway heard it", &[], Other),
            ("admitted, lost to SINR", &[at(ADMITTED, NOISE)], Other),
            (
                "admitted, collided",
                &[at(ADMITTED, hit(NET))],
                ChannelContentionIntra,
            ),
            (
                "collided with a foreign packet",
                &[at(ADMITTED, hit(FOREIGN))],
                ChannelContentionInter,
            ),
            (
                "pool full of own packets",
                &[at(dropped(false), OK)],
                DecoderContentionIntra,
            ),
            (
                "pool held foreign packets",
                &[at(dropped(true), OK)],
                DecoderContentionInter,
            ),
            ("down at lock-on", &[at(DOWN, OK)], Infrastructure),
            ("crashed mid-reception", &[crashed(OK)], Infrastructure),
            (
                "dropped with decoders locked up",
                &[at(LOCKUP, OK)],
                Infrastructure,
            ),
            // A fault or a drop counts only where the PHY would have
            // decoded the packet.
            (
                "down, and it collided there",
                &[at(DOWN, hit(NET))],
                ChannelContentionIntra,
            ),
            ("locked up, and lost to SINR", &[at(LOCKUP, NOISE)], Other),
            ("crashed, and lost to SINR", &[crashed(NOISE)], Other),
            (
                "dropped, and it collided there",
                &[at(dropped(true), hit(FOREIGN))],
                ChannelContentionInter,
            ),
            // Between gateways, whatever their order.
            (
                "infrastructure beats decoder",
                &[at(dropped(true), OK), at(DOWN, OK)],
                Infrastructure,
            ),
            (
                "... in either order",
                &[crashed(OK), at(dropped(false), OK)],
                Infrastructure,
            ),
            (
                "decoder beats channel",
                &[at(ADMITTED, hit(FOREIGN)), at(dropped(false), OK)],
                DecoderContentionIntra,
            ),
            (
                "... in either order",
                &[at(dropped(true), OK), at(ADMITTED, hit(NET))],
                DecoderContentionInter,
            ),
            (
                "channel beats other",
                &[at(ADMITTED, NOISE), at(DOWN, hit(FOREIGN))],
                ChannelContentionInter,
            ),
            (
                "... in either order",
                &[at(ADMITTED, hit(NET)), at(LOCKUP, NOISE)],
                ChannelContentionIntra,
            ),
            (
                "infrastructure beats channel",
                &[at(ADMITTED, hit(NET)), at(LOCKUP, OK)],
                Infrastructure,
            ),
        ];
        for (case, fates, want) in table {
            assert_eq!(book(fates), Some(*want), "{case}");
        }
    }

    #[test]
    fn foreign_held_ors_across_gateways() {
        for (fates, want) in [
            ([false, false], LossCause::DecoderContentionIntra),
            ([false, true], LossCause::DecoderContentionInter),
            ([true, false], LossCause::DecoderContentionInter),
            ([true, true], LossCause::DecoderContentionInter),
        ] {
            let fates = fates.map(|foreign| at(dropped(foreign), OK));
            assert_eq!(book(&fates), Some(want), "{fates:?}");
        }
    }

    #[test]
    fn the_first_collision_names_the_network() {
        let first_own = [at(ADMITTED, hit(NET)), at(dropped(true), hit(FOREIGN))];
        assert_eq!(book(&first_own), Some(LossCause::ChannelContentionIntra));
        let first_foreign = [at(DOWN, hit(FOREIGN)), at(ADMITTED, hit(NET))];
        assert_eq!(
            book(&first_foreign),
            Some(LossCause::ChannelContentionInter)
        );
    }

    #[test]
    fn a_delivered_packet_books_no_cause() {
        let fates = [
            at(dropped(true), OK),
            at(DOWN, OK),
            crashed(OK),
            at(ADMITTED, hit(FOREIGN)),
            at(ADMITTED, OK),
        ];
        for n in 0..=fates.len() {
            let mut fold = LossFold::default();
            for &f in &fates[..n] {
                fold.note(f);
            }
            assert_eq!(fold.cause(NET, true), None, "after {n} fates");
        }
    }

    #[test]
    fn merged_summaries_equal_one_fold_cause_by_cause() {
        let causes = [
            LossCause::DecoderContentionIntra,
            LossCause::DecoderContentionInter,
            LossCause::ChannelContentionIntra,
            LossCause::ChannelContentionInter,
            LossCause::Other,
            LossCause::Infrastructure,
        ];
        let records: Vec<PacketRecord> = (0..24u64)
            .map(|i| match i % 7 {
                6 => rec(i, 1 + (i % 2) as u32, true, None),
                k => rec(i, 1 + (i % 2) as u32, false, Some(causes[k as usize])),
            })
            .collect();
        let whole = RunSummary::from_records(&records);
        // Each half sees every outcome, so a cause the merge drops shows.
        assert!(whole.total.outcome_distribution().iter().all(|&p| p > 0.0));
        let mut halves = RunSummary::from_records(&records[..11]);
        halves.merge(&RunSummary::from_records(&records[11..]));
        assert_eq!(halves, whole);
        for net in [None, Some(1), Some(2)] {
            let m = RunMetrics::from_records(&records, net);
            let s = net.map_or(&whole.total, |n| whole.network(n).unwrap());
            assert_eq!(
                (m.sent, m.delivered, m.losses, m.horizon_us),
                (s.sent, s.delivered, s.losses, s.horizon_us())
            );
            assert_eq!(m.delivered_payload_bytes, s.delivered_payload_bytes);
        }
    }

    /// A summary of `delivered` delivered packets and `lost` packets
    /// lost to `cause`, all of network `net`.
    fn summary(net: u32, delivered: usize, lost: usize, cause: LossCause) -> RunSummary {
        let mut s = RunSummary::default();
        for i in 0..delivered + lost {
            let ok = i < delivered;
            s.note(net, 0, 10, 10, ok, (!ok).then_some(cause));
        }
        s
    }

    #[test]
    fn pdr_gap_counts_a_network_seen_on_one_side_only() {
        let mut a = summary(1, 4, 4, LossCause::Other);
        let b = a.clone();
        assert_eq!(a.pdr_gap(&b), 0.0);
        // Network 2 delivers everything on one side and is absent on
        // the other: the gap is its PDR against an empty fold.
        a.merge(&summary(2, 8, 0, LossCause::Other));
        assert_eq!(a.pdr_gap(&b), 1.0);
        assert_eq!(b.pdr_gap(&a), 1.0);
    }

    #[test]
    fn loss_tv_distance_is_half_the_outcome_l1() {
        let delivered = summary(1, 4, 0, LossCause::Other);
        let lost = summary(1, 0, 4, LossCause::DecoderContentionIntra);
        let half = summary(1, 2, 2, LossCause::DecoderContentionIntra);
        let other_cause = summary(1, 2, 2, LossCause::ChannelContentionInter);
        assert_eq!(delivered.loss_tv_distance(&lost), 1.0);
        assert_eq!(delivered.loss_tv_distance(&half), 0.5);
        // Same PDR, different cause: only the cause mix moves.
        assert_eq!(half.pdr_gap(&other_cause), 0.0);
        assert_eq!(half.loss_tv_distance(&other_cause), 0.5);
        assert_eq!(half.loss_tv_distance(&half), 0.0);
    }

    #[test]
    fn the_equivalence_gate_names_every_violation() {
        let a = summary(1, 8, 0, LossCause::Other);
        assert_eq!(a.statistically_equivalent(&a.clone(), 0.0, 0.0), Ok(()));
        let b = summary(1, 3, 1, LossCause::Other);
        let err = a.statistically_equivalent(&b, 0.1, 0.1).unwrap_err();
        for part in [
            "sent diverged: 8 vs 4",
            "PDR gap 0.250000",
            "TV distance 0.250000",
        ] {
            assert!(err.contains(part), "{part} missing: {err}");
        }
        // Loose tolerances forgive the PDR and the mix, never the count.
        let err = a.statistically_equivalent(&b, 1.0, 1.0).unwrap_err();
        assert_eq!(err, "sent diverged: 8 vs 4");
        let c = summary(1, 6, 2, LossCause::Other);
        assert_eq!(a.statistically_equivalent(&c, 0.25, 0.25), Ok(()));
    }

    #[test]
    fn dr_distribution_sums_to_one() {
        let records = vec![rec(0, 1, true, None), rec(1, 1, true, None)];
        let d = dr_distribution(&records);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d[3], 1.0); // all DR3 in the helper
    }
}
