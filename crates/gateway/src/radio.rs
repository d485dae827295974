//! The event-driven gateway reception pipeline.
//!
//! The simulator drives a [`Gateway`] with two events per transmission:
//! [`Gateway::on_lock_on`] at the end of the packet's preamble and
//! [`Gateway::on_tx_end`] when the packet finishes. Between the two, an
//! admitted packet holds one decoder — including packets that will later
//! turn out to belong to a *different* network (the paper's inter-network
//! decoder contention).

use crate::config::GatewayConfig;
use crate::pool::DecoderPool;
use crate::profile::GatewayProfile;
use lora_phy::channel::Channel;
use lora_phy::interference::detects;
use lora_phy::snr::decodable;
use lora_phy::types::SpreadingFactor;
use obs::{NullSink, ObsEvent, ObsSink};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A transmission as seen by one gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketAtGateway {
    /// Simulator-global transmission id.
    pub tx_id: u64,
    /// The packet-lifecycle trace id minted by the simulator
    /// ([`obs::packet_trace`]); `0` when the sender is untraced.
    pub trace: u64,
    /// Operator/network the *sender* belongs to (ground truth; the
    /// gateway only learns it after decoding).
    pub network_id: u32,
    /// The sender's channel.
    pub channel: Channel,
    /// The sender's spreading factor.
    pub sf: SpreadingFactor,
    /// Received signal strength at this gateway, dBm.
    pub rssi_dbm: f64,
    /// SNR at this gateway, dB.
    pub snr_db: f64,
    /// Lock-on instant (preamble end), µs.
    pub lock_on_us: u64,
    /// Transmission end, µs.
    pub end_us: u64,
}

/// What happened when a packet's preamble completed at this gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOnOutcome {
    /// No configured Rx chain overlaps the Tx channel enough, or the
    /// preamble is below the detection floor: the packet never enters
    /// the pipeline (this is AlphaWAN's Strategy ⑧ isolation).
    NotDetected,
    /// Detected, but every decoder was busy: dropped. The decoder
    /// contention loss.
    DroppedNoDecoder,
    /// Detected and assigned a decoder.
    Admitted,
}

/// Final disposition of an admitted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceptionOutcome {
    /// Decoded and destined to this gateway's network: forwarded.
    Received,
    /// Decoded, but the sync word / MIC identifies a foreign network:
    /// discarded after having occupied a decoder end-to-end.
    ForeignFiltered,
    /// The decoder ran, but channel contention / interference corrupted
    /// the packet.
    DecodeFailed,
}

/// Per-gateway reception statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayStats {
    /// Transmissions the detector never saw (channel mismatch or weak
    /// preamble).
    pub not_detected: u64,
    /// Detected packets dropped because every decoder was busy.
    pub dropped_no_decoder: u64,
    /// Packets assigned a decoder.
    pub admitted: u64,
    /// Own-network packets decoded and forwarded.
    pub received: u64,
    /// Foreign-network packets discarded after decode.
    pub foreign_filtered: u64,
    /// Admitted packets corrupted by interference.
    pub decode_failed: u64,
}

/// SplitMix64-finalizer hasher for the active map's `u64` transmission
/// ids. The decoder pipeline touches the map on every admission and
/// release, and the default SipHash dominates that cost at simulation
/// scale; simulator-assigned tx ids need no DoS resistance.
#[derive(Debug, Default, Clone)]
struct TxIdHasher(u64);

impl std::hash::Hasher for TxIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type ActiveMap = HashMap<u64, PacketAtGateway, std::hash::BuildHasherDefault<TxIdHasher>>;

/// One simulated COTS gateway.
#[derive(Debug, Clone)]
pub struct Gateway {
    /// Simulator-global gateway index.
    pub id: usize,
    /// The operator that deployed this gateway.
    pub network_id: u32,
    profile: &'static GatewayProfile,
    config: GatewayConfig,
    pool: DecoderPool,
    /// Admitted packets currently holding a decoder (the self-tracked
    /// admission path; caller-tracked admissions never enter here).
    active: ActiveMap,
    /// Of all admitted packets, how many are foreign-network
    /// (maintained incrementally so contention-drop classification is
    /// O(1)); covers tracked and caller-tracked admissions alike.
    foreign_active: usize,
    /// Of `foreign_active`, the caller-tracked share — exists so the
    /// self-check in [`Self::foreign_held_decoders`] stays exact when
    /// the two admission styles mix.
    untracked_foreign: usize,
    stats: GatewayStats,
}

impl Gateway {
    /// A gateway of `profile` hardware deployed by operator
    /// `network_id`, listening on `config`'s channels.
    pub fn new(
        id: usize,
        network_id: u32,
        profile: &'static GatewayProfile,
        config: GatewayConfig,
    ) -> Gateway {
        Gateway {
            id,
            network_id,
            profile,
            pool: DecoderPool::new(profile.decoders),
            config,
            active: ActiveMap::default(),
            foreign_active: 0,
            untracked_foreign: 0,
            stats: GatewayStats::default(),
        }
    }

    /// The hardware profile this gateway models.
    pub fn profile(&self) -> &'static GatewayProfile {
        self.profile
    }

    /// The active channel configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Snapshot of the reception statistics.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// The decoder pool (read-only).
    pub fn pool(&self) -> &DecoderPool {
        &self.pool
    }

    /// Replace the channel configuration (an AlphaWAN capacity-upgrade
    /// step; in hardware this is the "gateway reboot" of Fig. 17).
    /// Active receptions are aborted, as a real reboot would.
    pub fn reconfigure(&mut self, config: GatewayConfig) {
        for _ in 0..self.pool.in_use() {
            self.pool.release();
        }
        self.active.clear();
        self.foreign_active = 0;
        self.untracked_foreign = 0;
        self.config = config;
    }

    /// The configured Rx channel that would detect a transmission on
    /// `tx_ch`, if any (frequency-selectivity gate).
    pub fn rx_channel_for(&self, tx_ch: &Channel) -> Option<Channel> {
        self.config
            .channels()
            .iter()
            .copied()
            .find(|rx| detects(rx, tx_ch))
    }

    /// Whether some configured rx channel's detector covers `ch` — the
    /// channel half of the detection predicate, independent of signal
    /// strength. Drives the simulator's channel → candidate-gateway
    /// index: a gateway for which this is `false` can only ever answer
    /// `NotDetected` for packets on `ch`.
    pub fn listens_to(&self, ch: &Channel) -> bool {
        self.rx_channel_for(ch).is_some()
    }

    /// Account `n` transmissions the detector never saw. Lets callers
    /// that skip guaranteed-`NotDetected` lock-on visits (via
    /// [`Self::listens_to`]) keep [`GatewayStats::not_detected`] exact
    /// by reconciling the skipped count in bulk.
    pub fn note_undetected(&mut self, n: u64) {
        self.stats.not_detected += n;
    }

    /// Whether this gateway's detector would see the packet at all:
    /// channel overlap above the selectivity threshold AND preamble SNR
    /// above the demodulation floor.
    pub fn would_detect(&self, pkt: &PacketAtGateway) -> bool {
        self.rx_channel_for(&pkt.channel).is_some() && decodable(pkt.snr_db, pkt.sf, 0.0)
    }

    /// Preamble-end event: FCFS admission to the decoder pool.
    ///
    /// The caller must deliver lock-on events in nondecreasing
    /// `lock_on_us` order across all packets — that ordering *is* the
    /// FCFS policy (§3.1 insight 1).
    pub fn on_lock_on(&mut self, pkt: PacketAtGateway) -> LockOnOutcome {
        self.on_lock_on_obs(pkt, &mut NullSink)
    }

    /// [`Gateway::on_lock_on`] with observability: decoder
    /// acquisition/drop events go to `sink`, plus
    /// [`ObsEvent::StealRefused`] when a contention drop happened while
    /// foreign-network packets held decoders (preemption would have
    /// saved the packet; FCFS dispatch never steals).
    ///
    /// Self-tracked: the gateway checks detection itself and keeps the
    /// admitted packet in its active map until [`Self::on_tx_end_obs`].
    pub fn on_lock_on_obs(
        &mut self,
        pkt: PacketAtGateway,
        sink: &mut dyn ObsSink,
    ) -> LockOnOutcome {
        if !self.would_detect(&pkt) {
            self.stats.not_detected += 1;
            return LockOnOutcome::NotDetected;
        }
        let outcome = self.admit_detected_tracked_obs(&pkt, sink);
        if outcome == LockOnOutcome::Admitted {
            // The map tracks this one, not the caller.
            if pkt.network_id != self.network_id {
                self.untracked_foreign -= 1;
            }
            self.active.insert(pkt.tx_id, pkt);
        }
        outcome
    }

    /// FCFS admission of a packet the caller has already established
    /// as detected — the simulator proves the channel half from its
    /// candidate index and the SNR half from its link table before
    /// constructing the packet — and that the *caller* keeps, promising
    /// to hand it back at [`Self::on_tx_end_tracked_obs`]. The gateway
    /// does no active-map bookkeeping, which for drivers that already
    /// hold per-transmission state removes two hash-map operations and
    /// a packet copy per (transmission, gateway). Never returns
    /// [`LockOnOutcome::NotDetected`]. This is the one admission body;
    /// [`Self::on_lock_on_obs`] wraps it.
    pub fn admit_detected_tracked_obs(
        &mut self,
        pkt: &PacketAtGateway,
        sink: &mut dyn ObsSink,
    ) -> LockOnOutcome {
        debug_assert!(self.would_detect(pkt), "caller must verify detection");
        if !self
            .pool
            .try_acquire_obs(pkt.lock_on_us, pkt.trace, self.id as u32, pkt.tx_id, sink)
        {
            self.stats.dropped_no_decoder += 1;
            if sink.enabled() {
                let foreign_held = self.foreign_held_decoders();
                if foreign_held > 0 {
                    sink.record(&ObsEvent::StealRefused {
                        t_us: pkt.lock_on_us,
                        trace: pkt.trace,
                        gw: self.id as u32,
                        tx: pkt.tx_id,
                        foreign_held: foreign_held as u32,
                    });
                }
            }
            return LockOnOutcome::DroppedNoDecoder;
        }
        self.stats.admitted += 1;
        if pkt.network_id != self.network_id {
            self.foreign_active += 1;
            self.untracked_foreign += 1;
        }
        LockOnOutcome::Admitted
    }

    /// Transmission-end for a packet admitted with
    /// [`Self::admit_detected_tracked_obs`]: the caller supplies the
    /// packet it retained, and `phy_ok`, the medium's verdict on whether
    /// the decode succeeded. Must be called exactly once per tracked
    /// admission — unlike [`Self::on_tx_end_obs`] there is no map to
    /// detect a packet that was never admitted here. This is the one
    /// end body; [`Self::on_tx_end_obs`] wraps it.
    pub fn on_tx_end_tracked_obs(
        &mut self,
        pkt: &PacketAtGateway,
        phy_ok: bool,
        sink: &mut dyn ObsSink,
    ) -> ReceptionOutcome {
        if pkt.network_id != self.network_id {
            self.foreign_active -= 1;
            self.untracked_foreign -= 1;
        }
        self.pool
            .release_obs(pkt.end_us, pkt.trace, self.id as u32, pkt.tx_id, sink);
        if !phy_ok {
            self.stats.decode_failed += 1;
            ReceptionOutcome::DecodeFailed
        } else if pkt.network_id != self.network_id {
            // Post-decode sync-word filtering: the decoder was occupied
            // for the whole packet, and only now is it discarded.
            self.stats.foreign_filtered += 1;
            ReceptionOutcome::ForeignFiltered
        } else {
            self.stats.received += 1;
            ReceptionOutcome::Received
        }
    }

    /// Transmission-end event for a packet previously offered at
    /// lock-on. `phy_ok` is the medium's verdict on whether the decode
    /// succeeded (capture/interference outcome, computed by the
    /// simulator which has global knowledge).
    ///
    /// Returns `None` if the packet was never admitted here.
    pub fn on_tx_end(&mut self, tx_id: u64, phy_ok: bool) -> Option<ReceptionOutcome> {
        self.on_tx_end_obs(tx_id, phy_ok, &mut NullSink)
    }

    /// [`Gateway::on_tx_end`] with observability: the decoder release
    /// event goes to `sink`.
    pub fn on_tx_end_obs(
        &mut self,
        tx_id: u64,
        phy_ok: bool,
        sink: &mut dyn ObsSink,
    ) -> Option<ReceptionOutcome> {
        let pkt = self.active.remove(&tx_id)?;
        // Out of the map: the end body accounts it as caller-tracked.
        if pkt.network_id != self.network_id {
            self.untracked_foreign += 1;
        }
        Some(self.on_tx_end_tracked_obs(&pkt, phy_ok, sink))
    }

    /// Number of decoders currently occupied.
    pub fn decoders_in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Mark `n` decoders as locked up by an injected fault (clamped to
    /// the profile's capacity); `0` restores full capacity.
    pub fn set_locked_decoders(&mut self, n: usize) {
        self.pool.set_locked(n);
    }

    /// How many currently held decoders belong to packets from a network
    /// other than this gateway's. Used by the simulator to classify a
    /// contention drop as intra- vs inter-network (Fig. 4).
    pub fn foreign_held_decoders(&self) -> usize {
        debug_assert_eq!(
            self.foreign_active,
            self.untracked_foreign
                + self
                    .active
                    .values()
                    .filter(|p| p.network_id != self.network_id)
                    .count()
        );
        self.foreign_active
    }

    /// Reset between experiment runs (keeps configuration).
    pub fn reset(&mut self) {
        self.active.clear();
        self.foreign_active = 0;
        self.untracked_foreign = 0;
        self.pool.reset();
        self.stats = GatewayStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GatewayProfile;
    use lora_phy::region::StandardChannelPlan;
    use lora_phy::types::SpreadingFactor::*;

    fn gw(network_id: u32) -> Gateway {
        let profile = GatewayProfile::rak7268cv2();
        let plan = StandardChannelPlan::us915_subband(0);
        let config = GatewayConfig::new(profile, plan.channels).unwrap();
        Gateway::new(0, network_id, profile, config)
    }

    fn pkt(tx_id: u64, network_id: u32, ch_idx: u32, lock_on_us: u64) -> PacketAtGateway {
        PacketAtGateway {
            tx_id,
            trace: obs::packet_trace(0, tx_id),
            network_id,
            channel: Channel::khz125(902_300_000 + ch_idx * 200_000),
            sf: SF7,
            rssi_dbm: -100.0,
            snr_db: 10.0,
            lock_on_us,
            end_us: lock_on_us + 49_152,
        }
    }

    #[test]
    fn sixteen_packet_cap_fcfs() {
        // 20 concurrent packets, no collisions: exactly the first 16 by
        // lock-on order are admitted — the Fig. 3a/b result.
        let mut g = gw(1);
        let mut admitted = Vec::new();
        for i in 0..20u64 {
            let outcome = g.on_lock_on(pkt(i, 1, (i % 8) as u32, 1000 + i));
            if outcome == LockOnOutcome::Admitted {
                admitted.push(i);
            }
        }
        assert_eq!(admitted, (0..16).collect::<Vec<_>>());
        assert_eq!(g.stats().dropped_no_decoder, 4);
        // All 16 decode fine and are received.
        for i in 0..16u64 {
            assert_eq!(g.on_tx_end(i, true), Some(ReceptionOutcome::Received));
        }
        assert_eq!(g.stats().received, 16);
        assert_eq!(g.decoders_in_use(), 0);
    }

    #[test]
    fn release_admits_later_packets() {
        let mut g = gw(1);
        for i in 0..16u64 {
            assert_eq!(g.on_lock_on(pkt(i, 1, 0, i)), LockOnOutcome::Admitted);
        }
        // Finish one; the 17th now fits.
        g.on_tx_end(0, true);
        assert_eq!(g.on_lock_on(pkt(16, 1, 0, 100)), LockOnOutcome::Admitted);
    }

    #[test]
    fn foreign_packets_occupy_decoders() {
        // The Fig. 3e/f phenomenon: network 2's packets eat network 1's
        // gateway decoders, then get filtered after decode.
        let mut g = gw(1);
        for i in 0..16u64 {
            assert_eq!(g.on_lock_on(pkt(i, 2, 0, i)), LockOnOutcome::Admitted);
        }
        // Own-network packet arrives late: dropped by contention.
        assert_eq!(
            g.on_lock_on(pkt(99, 1, 0, 50)),
            LockOnOutcome::DroppedNoDecoder
        );
        for i in 0..16u64 {
            assert_eq!(
                g.on_tx_end(i, true),
                Some(ReceptionOutcome::ForeignFiltered)
            );
        }
        assert_eq!(g.stats().foreign_filtered, 16);
        assert_eq!(g.stats().received, 0);
    }

    #[test]
    fn misaligned_channel_not_detected() {
        // A 40% frequency misalignment keeps the packet out of the
        // pipeline entirely (Strategy ⑧).
        let mut g = gw(1);
        let mut p = pkt(0, 2, 0, 0);
        p.channel = Channel::khz125(902_300_000 + 50_000); // 40% shift
        assert_eq!(g.on_lock_on(p), LockOnOutcome::NotDetected);
        assert_eq!(g.decoders_in_use(), 0);
        assert_eq!(g.on_tx_end(0, true), None);
    }

    #[test]
    fn weak_preamble_not_detected() {
        let mut g = gw(1);
        let mut p = pkt(0, 1, 0, 0);
        p.snr_db = -20.0; // below the SF7 floor of −7.5 dB
        assert_eq!(g.on_lock_on(p), LockOnOutcome::NotDetected);
    }

    #[test]
    fn high_sf_below_noise_detected() {
        let mut g = gw(1);
        let mut p = pkt(0, 1, 0, 0);
        p.sf = SF12;
        p.snr_db = -18.0; // above the SF12 floor of −20 dB
        assert_eq!(g.on_lock_on(p), LockOnOutcome::Admitted);
    }

    #[test]
    fn would_detect_predicts_the_lock_on_verdict_without_counting() {
        let mut probes = Vec::new();
        for (i, (offset_hz, sf, snr_db)) in [
            (0, SF7, 10.0),         // aligned, strong
            (10_000, SF7, 10.0),    // slightly off, still inside the chain
            (50_000, SF7, 10.0),    // 40% shift: outside every chain
            (0, SF7, -20.0),        // below the SF7 floor
            (0, SF12, -18.0),       // above the SF12 floor
            (1_600_000, SF7, 10.0), // off the plan entirely
        ]
        .into_iter()
        .enumerate()
        {
            let mut p = pkt(i as u64, 1, 0, i as u64);
            p.channel = Channel::khz125(902_300_000 + offset_hz);
            p.sf = sf;
            p.snr_db = snr_db;
            probes.push(p);
        }
        let mut g = gw(1);
        let predicted: Vec<bool> = probes.iter().map(|p| g.would_detect(p)).collect();
        assert_eq!(
            g.stats(),
            GatewayStats::default(),
            "a prediction counts nothing"
        );
        assert_eq!(predicted, [true, true, false, false, true, false]);
        for (p, want) in probes.into_iter().zip(predicted) {
            assert_eq!(g.on_lock_on(p) != LockOnOutcome::NotDetected, want, "{p:?}");
        }
        assert_eq!(g.stats().not_detected, 3);
    }

    #[test]
    fn the_detecting_chain_follows_the_configuration() {
        let mut g = gw(1);
        let on = Channel::khz125(902_500_000);
        let near = Channel::khz125(902_510_000);
        let off = Channel::khz125(902_550_000);
        assert_eq!(g.rx_channel_for(&on), Some(on));
        assert_eq!(
            g.rx_channel_for(&near),
            Some(on),
            "the chain tolerates a small offset"
        );
        assert_eq!(g.rx_channel_for(&off), None);
        assert!(g.listens_to(&near) && !g.listens_to(&off));
        // Retune to the misaligned centre: the old one goes deaf.
        let profile = GatewayProfile::rak7268cv2();
        g.reconfigure(GatewayConfig::new(profile, vec![off]).unwrap());
        assert_eq!(g.rx_channel_for(&off), Some(off));
        assert!(!g.listens_to(&on));
    }

    #[test]
    fn skipped_lock_ons_are_reconciled_in_bulk() {
        // A caller that skips a gateway deaf to a channel books the
        // skipped packets at once; the total matches visiting each.
        let mut visited = gw(1);
        let mut skipped = gw(1);
        let mut deaf = pkt(0, 1, 0, 0);
        deaf.channel = Channel::khz125(902_300_000 + 50_000);
        for i in 0..5 {
            deaf.tx_id = i;
            assert_eq!(visited.on_lock_on(deaf), LockOnOutcome::NotDetected);
        }
        skipped.note_undetected(5);
        assert_eq!(skipped.stats(), visited.stats());
        assert_eq!(skipped.stats().not_detected, 5);
    }

    #[test]
    fn phy_failure_counts_decode_failed() {
        let mut g = gw(1);
        g.on_lock_on(pkt(0, 1, 0, 0));
        assert_eq!(g.on_tx_end(0, false), Some(ReceptionOutcome::DecodeFailed));
        assert_eq!(g.stats().decode_failed, 1);
    }

    #[test]
    fn reconfigure_aborts_active_and_swaps_channels() {
        let mut g = gw(1);
        g.on_lock_on(pkt(0, 1, 0, 0));
        assert_eq!(g.decoders_in_use(), 1);
        let profile = GatewayProfile::rak7268cv2();
        let new_cfg = GatewayConfig::new(
            profile,
            vec![Channel::khz125(903_900_000), Channel::khz125(904_100_000)],
        )
        .unwrap();
        g.reconfigure(new_cfg);
        assert_eq!(g.decoders_in_use(), 0);
        // Old channel no longer detected.
        assert_eq!(g.on_lock_on(pkt(1, 1, 0, 10)), LockOnOutcome::NotDetected);
    }

    #[test]
    fn obs_events_trace_decoder_lifecycle() {
        use obs::{ObsEvent, VecSink};
        let mut g = gw(1);
        let mut sink = VecSink::new();
        // Fill the pool with foreign packets, then drop an own-network
        // one: acquire ×16, then PoolFullDrop + StealRefused.
        for i in 0..16u64 {
            g.on_lock_on_obs(pkt(i, 2, 0, i), &mut sink);
        }
        g.on_lock_on_obs(pkt(99, 1, 0, 50), &mut sink);
        g.on_tx_end_obs(0, true, &mut sink);
        let events = sink.events();
        assert_eq!(events.len(), 19, "16 acquires + drop + refusal + release");
        assert!(matches!(
            events[0],
            ObsEvent::DecoderAcquired {
                in_use: 1,
                capacity: 16,
                ..
            }
        ));
        assert!(matches!(
            events[16],
            ObsEvent::PoolFullDrop {
                tx: 99,
                t_us: 50,
                ..
            }
        ));
        assert!(
            matches!(
                events[17],
                ObsEvent::StealRefused {
                    tx: 99,
                    foreign_held: 16,
                    ..
                }
            ),
            "all 16 held decoders belong to network 2"
        );
        assert!(matches!(
            events[18],
            ObsEvent::DecoderReleased {
                tx: 0,
                in_use: 15,
                ..
            }
        ));
    }

    #[test]
    fn obs_null_sink_matches_plain_path() {
        // The unobserved entry points delegate through NullSink; stats
        // must be identical either way.
        let mut a = gw(1);
        let mut b = gw(1);
        let mut null = obs::NullSink;
        for i in 0..20u64 {
            a.on_lock_on(pkt(i, 1, 0, i));
            b.on_lock_on_obs(pkt(i, 1, 0, i), &mut null);
        }
        a.on_tx_end(0, true);
        b.on_tx_end_obs(0, true, &mut null);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.decoders_in_use(), b.decoders_in_use());
    }

    #[test]
    fn tracked_and_self_tracked_admission_agree() {
        // The same packet sequence — two networks, more lock-ons than
        // decoders, ends interleaved with later lock-ons, failed
        // decodes — through the self-tracked wrappers and through the
        // caller-tracked bodies they wrap: identical stats, pool state
        // and obs bytes after every step, with the foreign-held
        // self-check (a debug assertion in `foreign_held_decoders`)
        // exercised on both.
        use obs::VecSink;
        let pkts: Vec<PacketAtGateway> = (0..40u64)
            .map(|i| pkt(i, 1 + i.is_multiple_of(3) as u32, (i % 8) as u32, 10 * i))
            .collect();
        let (mut own, mut caller) = (gw(1), gw(1));
        let (mut own_sink, mut caller_sink) = (VecSink::new(), VecSink::new());
        let mut held: Vec<PacketAtGateway> = Vec::new();
        for (i, p) in pkts.iter().enumerate() {
            // Every third step, the oldest admitted packet ends first.
            if i % 3 == 2 && !held.is_empty() {
                let done = held.remove(0);
                let phy_ok = !done.tx_id.is_multiple_of(5);
                assert_eq!(
                    own.on_tx_end_obs(done.tx_id, phy_ok, &mut own_sink),
                    Some(caller.on_tx_end_tracked_obs(&done, phy_ok, &mut caller_sink))
                );
            }
            let outcome = own.on_lock_on_obs(*p, &mut own_sink);
            assert_eq!(
                outcome,
                caller.admit_detected_tracked_obs(p, &mut caller_sink)
            );
            if outcome == LockOnOutcome::Admitted {
                held.push(*p);
            }
            assert_eq!(own.stats(), caller.stats(), "step {i}");
            let pool = |g: &Gateway| (g.pool().in_use(), g.pool().stats());
            assert_eq!(pool(&own), pool(&caller), "step {i}");
            assert_eq!(
                own.foreign_held_decoders(),
                caller.foreign_held_decoders(),
                "step {i}"
            );
        }
        assert!(own.stats().dropped_no_decoder > 0 && own.stats().foreign_filtered > 0);
        for done in held.drain(..) {
            own.on_tx_end_obs(done.tx_id, true, &mut own_sink);
            caller.on_tx_end_tracked_obs(&done, true, &mut caller_sink);
        }
        assert_eq!(own.stats(), caller.stats());
        assert_eq!((own.decoders_in_use(), own.foreign_held_decoders()), (0, 0));
        assert_eq!(
            (caller.decoders_in_use(), caller.foreign_held_decoders()),
            (0, 0)
        );
        let bytes = |sink: &VecSink| serde_json::to_string(&sink.events()).unwrap();
        assert!(!own_sink.is_empty());
        assert_eq!(bytes(&own_sink), bytes(&caller_sink));
    }

    #[test]
    fn snr_does_not_grant_priority() {
        // Fig. 3c: a high-SNR packet arriving late is dropped all the
        // same once the pool is full.
        let mut g = gw(1);
        for i in 0..16u64 {
            let mut p = pkt(i, 1, 0, i);
            p.snr_db = -5.0; // weak but decodable
            g.on_lock_on(p);
        }
        let mut strong = pkt(100, 1, 0, 100);
        strong.snr_db = 30.0;
        assert_eq!(g.on_lock_on(strong), LockOnOutcome::DroppedNoDecoder);
    }
}
