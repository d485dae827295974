//! Uplink deduplication.
//!
//! LoRaWAN's any-gateway reception means one uplink typically arrives
//! at the server several times (once per receiving gateway). The server
//! deduplicates on (DevAddr, FCnt) within a time window and keeps the
//! copy with the best SNR as the canonical reception.
//!
//! The window is anchored to a **high-water mark** of reception
//! timestamps rather than the current copy's timestamp: faulty
//! backhauls deliver copies late and out of order, and anchoring
//! expiry to whatever copy happened to arrive last would let a stale
//! copy resurrect an expired frame as "new" (a double delivery). A
//! copy older than the mark minus the window is instead classified
//! [`DedupOutcome::Late`] and must not be delivered.

use lora_mac::device::DevAddr;
use obs::{ObsEvent, ObsSink};
use std::collections::HashMap;

/// A received uplink copy as reported by one gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkCopy {
    pub dev_addr: DevAddr,
    pub fcnt: u16,
    pub gw_id: usize,
    pub snr_db: f64,
    pub received_us: u64,
    /// Packet-lifecycle trace id carried from the gateway (the `trce`
    /// field of the forwarder's rxpk); `0` when untraced.
    pub trace: u64,
}

/// Outcome of offering a copy to the deduplicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    // (obs::DedupKind mirrors this enum; keep them in sync.)
    /// First copy of this frame: process it.
    New,
    /// Another gateway's copy of an already-processed frame.
    Duplicate,
    /// A copy so delayed its frame's window has already closed (its
    /// dedup record may be gone) — delivering it could duplicate a
    /// frame processed long ago. Arises only under backhaul faults.
    Late,
}

/// Counters over everything a [`Deduplicator`] has been offered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    pub offered: u64,
    pub new: u64,
    pub duplicate: u64,
    pub late: u64,
}

/// (DevAddr, FCnt) deduplication with a sliding time window.
///
/// Eviction is amortized: a record's liveness is checked lazily when
/// its own key is offered again, and a full sweep runs only when the
/// high-water mark has advanced a whole window past the previous
/// sweep. Both paths apply the same predicate (`hwm − t0 ≤ window`),
/// so classifications are identical to evicting eagerly on every
/// offer while keeping the hot path O(1) — a long-running daemon
/// neither grows without bound nor pays an O(tracked) scan per packet.
#[derive(Debug)]
pub struct Deduplicator {
    window_us: u64,
    /// Frame key → (first seen time, best SNR, best gateway).
    seen: HashMap<(DevAddr, u16), (u64, f64, usize)>,
    /// Newest `received_us` observed — the window anchor. Never
    /// regresses, so late out-of-order copies can't reopen windows.
    high_water_us: u64,
    /// High-water mark at the last full sweep.
    swept_at_us: u64,
    stats: DedupStats,
}

impl Deduplicator {
    /// Standard deduplication window (ChirpStack default: 200 ms).
    pub fn new(window_us: u64) -> Deduplicator {
        Deduplicator {
            window_us,
            seen: HashMap::new(),
            high_water_us: 0,
            swept_at_us: 0,
            stats: DedupStats::default(),
        }
    }

    /// Offer a copy; returns whether it is new, and updates the
    /// best-copy record.
    pub fn offer(&mut self, copy: UplinkCopy) -> DedupOutcome {
        self.stats.offered += 1;
        self.high_water_us = self.high_water_us.max(copy.received_us);
        self.maybe_sweep();
        let key = (copy.dev_addr, copy.fcnt);
        if let Some(entry) = self.seen.get_mut(&key) {
            if self.high_water_us.saturating_sub(entry.0) <= self.window_us {
                if copy.snr_db > entry.1 {
                    entry.1 = copy.snr_db;
                    entry.2 = copy.gw_id;
                }
                self.stats.duplicate += 1;
                return DedupOutcome::Duplicate;
            }
            // The record aged out before the sweep got to it; evict it
            // now and classify exactly as if it were already gone.
            self.seen.remove(&key);
        }
        // No live record: either genuinely new, or so late its record
        // already expired. The window anchor tells them apart.
        if copy.received_us.saturating_add(self.window_us) < self.high_water_us {
            self.stats.late += 1;
            return DedupOutcome::Late;
        }
        self.seen
            .insert(key, (copy.received_us, copy.snr_db, copy.gw_id));
        self.stats.new += 1;
        DedupOutcome::New
    }

    /// [`Deduplicator::offer`] with observability: emits one
    /// [`ObsEvent::Dedup`] carrying the classification.
    pub fn offer_obs(&mut self, copy: UplinkCopy, sink: &mut dyn ObsSink) -> DedupOutcome {
        let outcome = self.offer(copy);
        if sink.enabled() {
            sink.record(&ObsEvent::Dedup {
                t_us: copy.received_us,
                trace: copy.trace,
                dev: copy.dev_addr.0,
                fcnt: copy.fcnt as u32,
                gw: copy.gw_id as u32,
                outcome: match outcome {
                    DedupOutcome::New => obs::DedupKind::New,
                    DedupOutcome::Duplicate => obs::DedupKind::Duplicate,
                    DedupOutcome::Late => obs::DedupKind::Late,
                },
            });
        }
        outcome
    }

    /// Best (SNR, gateway) seen for a frame, if a copy arrived within
    /// the live window. Aged records awaiting the next sweep are
    /// invisible here, matching eager-eviction semantics.
    #[cfg(test)]
    pub(crate) fn best_copy(&self, dev_addr: DevAddr, fcnt: u16) -> Option<(f64, usize)> {
        self.seen
            .get(&(dev_addr, fcnt))
            .filter(|e| self.high_water_us.saturating_sub(e.0) <= self.window_us)
            .map(|e| (e.1, e.2))
    }

    /// Number of distinct frames currently resident (the memory
    /// figure; may transiently include aged records the next sweep
    /// will evict — never more than one extra window's worth).
    pub fn tracked(&self) -> usize {
        self.seen.len()
    }

    /// Lifetime offer counters.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Full sweep of aged records, run only once per window of
    /// high-water-mark advance so its cost amortizes to O(1) per
    /// offer. Everything resident afterwards has `t0` within one
    /// window of the mark, which bounds residency at roughly two
    /// windows of distinct frames between sweeps.
    fn maybe_sweep(&mut self) {
        if self.high_water_us.saturating_sub(self.swept_at_us) <= self.window_us {
            return;
        }
        self.swept_at_us = self.high_water_us;
        let window = self.window_us;
        let hwm = self.high_water_us;
        self.seen
            .retain(|_, (t0, _, _)| hwm.saturating_sub(*t0) <= window);
    }
}

impl Default for Deduplicator {
    fn default() -> Self {
        Deduplicator::new(200_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(addr: u32, fcnt: u16, gw: usize, snr: f64, t: u64) -> UplinkCopy {
        UplinkCopy {
            dev_addr: DevAddr(addr),
            fcnt,
            gw_id: gw,
            snr_db: snr,
            received_us: t,
            trace: obs::packet_trace(0, fcnt as u64),
        }
    }

    #[test]
    fn duplicate_same_frame_different_gateways() {
        let mut d = Deduplicator::default();
        assert_eq!(d.offer(copy(1, 10, 0, -3.0, 0)), DedupOutcome::New);
        assert_eq!(
            d.offer(copy(1, 10, 1, 2.0, 50_000)),
            DedupOutcome::Duplicate
        );
        assert_eq!(
            d.offer(copy(1, 10, 2, -8.0, 60_000)),
            DedupOutcome::Duplicate
        );
        // Best copy is the strongest gateway.
        assert_eq!(d.best_copy(DevAddr(1), 10), Some((2.0, 1)));
    }

    #[test]
    fn different_fcnt_not_duplicate() {
        let mut d = Deduplicator::default();
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        assert_eq!(d.offer(copy(1, 11, 0, 0.0, 1_000)), DedupOutcome::New);
    }

    #[test]
    fn different_devices_independent() {
        let mut d = Deduplicator::default();
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        assert_eq!(d.offer(copy(2, 10, 0, 0.0, 0)), DedupOutcome::New);
    }

    #[test]
    fn window_expiry_allows_fcnt_reuse() {
        let mut d = Deduplicator::new(200_000);
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        // Far outside the window (e.g. FCnt wrapped): treated as new.
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 10_000_000)), DedupOutcome::New);
        assert_eq!(d.tracked(), 1, "old entry garbage-collected");
    }

    #[test]
    fn within_window_still_duplicate() {
        let mut d = Deduplicator::new(200_000);
        d.offer(copy(1, 10, 0, 0.0, 0));
        assert_eq!(
            d.offer(copy(1, 10, 1, 0.0, 199_999)),
            DedupOutcome::Duplicate
        );
    }

    #[test]
    fn late_copy_of_expired_frame_is_not_new() {
        let mut d = Deduplicator::new(200_000);
        // Frame 10's copy at t=0; later traffic advances the window far
        // past it; then a massively delayed second copy of frame 10
        // arrives. Pre-hardening, the expired record made it "New" — a
        // double delivery.
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        assert_eq!(d.offer(copy(1, 11, 0, 0.0, 1_000_000)), DedupOutcome::New);
        assert_eq!(d.offer(copy(1, 10, 1, 5.0, 90_000)), DedupOutcome::Late);
        assert_eq!(d.stats().late, 1);
    }

    #[test]
    fn reordered_copy_within_window_still_deduped() {
        let mut d = Deduplicator::new(200_000);
        // The later-timestamped copy arrives first (reordering); the
        // earlier-timestamped one must still be a duplicate, and must
        // not drag the window anchor backwards.
        assert_eq!(d.offer(copy(1, 10, 1, 1.0, 150_000)), DedupOutcome::New);
        assert_eq!(
            d.offer(copy(1, 10, 0, 9.0, 20_000)),
            DedupOutcome::Duplicate
        );
        assert_eq!(d.best_copy(DevAddr(1), 10), Some((9.0, 0)));
        // Anchor stayed at 150 000: a fresh frame timestamped within
        // the window of the anchor is still New.
        assert_eq!(d.offer(copy(1, 11, 0, 0.0, 40_000)), DedupOutcome::New);
    }

    #[test]
    fn offer_obs_emits_classifications() {
        use obs::{DedupKind, ObsEvent, VecSink};
        let mut d = Deduplicator::new(200_000);
        let mut sink = VecSink::new();
        d.offer_obs(copy(1, 10, 0, -3.0, 0), &mut sink);
        d.offer_obs(copy(1, 10, 1, 2.0, 50_000), &mut sink);
        d.offer_obs(copy(1, 11, 0, 0.0, 1_000_000), &mut sink);
        d.offer_obs(copy(1, 10, 2, 5.0, 90_000), &mut sink); // late
        let kinds: Vec<DedupKind> = sink
            .events()
            .iter()
            .map(|e| match *e {
                ObsEvent::Dedup { outcome, .. } => outcome,
                _ => panic!("only dedup events expected"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                DedupKind::New,
                DedupKind::Duplicate,
                DedupKind::New,
                DedupKind::Late
            ]
        );
    }

    #[test]
    fn stats_count_every_outcome() {
        let mut d = Deduplicator::new(100);
        d.offer(copy(1, 0, 0, 0.0, 0));
        d.offer(copy(1, 0, 1, 0.0, 50));
        d.offer(copy(1, 1, 0, 0.0, 1_000));
        d.offer(copy(1, 0, 2, 0.0, 10)); // late: window closed at hwm 1 000
        assert_eq!(
            d.stats(),
            DedupStats {
                offered: 4,
                new: 2,
                duplicate: 1,
                late: 1
            }
        );
    }

    #[test]
    fn long_run_memory_stays_bounded() {
        // A daemon-shaped workload: 512 devices each sending a fresh
        // FCnt every simulated second for an hour. Every frame is a
        // distinct key, so without eviction the map would reach
        // ~1.8 M entries; the amortized sweep must keep residency
        // within ~two windows of live traffic.
        let window = 200_000u64; // 200 ms
        let mut d = Deduplicator::new(window);
        let devices = 512u32;
        let mut peak = 0usize;
        for sec in 0..3_600u64 {
            for dev in 0..devices {
                let t = sec * 1_000_000 + (dev as u64 * 1_000_000 / devices as u64);
                d.offer(copy(dev, sec as u16, 0, 0.0, t));
                peak = peak.max(d.tracked());
            }
        }
        let per_window = (devices as u64 * window / 1_000_000).max(1) as usize;
        // Residency bound: live window + at most one unswept window,
        // plus slack for sweep-phase alignment.
        assert!(
            peak <= 4 * per_window + devices as usize,
            "peak residency {peak} exceeds bound (per-window load {per_window})"
        );
        assert_eq!(d.stats().new, 3_600 * devices as u64);
    }

    #[test]
    fn aged_record_evicted_lazily_on_rehit_keeps_late_semantics() {
        let mut d = Deduplicator::new(200_000);
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        // Advance the anchor just under the sweep trigger so frame
        // 10's record is aged but still resident...
        assert_eq!(d.offer(copy(2, 5, 0, 0.0, 201_000)), DedupOutcome::New);
        // ...then re-offer its key: a stale-timestamped copy must be
        // Late (not Duplicate against the aged record), and a
        // fresh-timestamped reuse of the key must be New.
        assert_eq!(d.offer(copy(1, 10, 1, 9.0, 900)), DedupOutcome::Late);
        assert_eq!(d.best_copy(DevAddr(1), 10), None, "aged record invisible");
        assert_eq!(d.offer(copy(1, 10, 2, 0.0, 201_500)), DedupOutcome::New);
    }

    #[test]
    fn equal_snr_keeps_the_first_gateway() {
        let mut d = Deduplicator::default();
        d.offer(copy(1, 10, 3, 4.0, 0));
        d.offer(copy(1, 10, 1, 4.0, 10));
        assert_eq!(d.best_copy(DevAddr(1), 10), Some((4.0, 3)));
        assert_eq!(d.best_copy(DevAddr(1), 11), None, "never offered");
    }

    #[test]
    fn default_window_is_200ms_inclusive() {
        let mut d = Deduplicator::default();
        assert_eq!(d.offer(copy(1, 10, 0, 0.0, 0)), DedupOutcome::New);
        assert_eq!(
            d.offer(copy(1, 10, 1, 0.0, 200_000)),
            DedupOutcome::Duplicate,
            "a copy exactly one window later still belongs to the frame"
        );
        assert_eq!(
            d.offer(copy(1, 10, 2, 0.0, 200_001)),
            DedupOutcome::New,
            "one µs past the window the FCnt is a new frame"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-optimization deduplicator: evicts eagerly with a full
    /// O(n) retain on every offer. The production lazy/amortized
    /// version must classify identically.
    struct EagerReference {
        window_us: u64,
        seen: HashMap<(DevAddr, u16), u64>,
        high_water_us: u64,
    }

    impl EagerReference {
        fn offer(&mut self, copy: UplinkCopy) -> DedupOutcome {
            self.high_water_us = self.high_water_us.max(copy.received_us);
            let hwm = self.high_water_us;
            let window = self.window_us;
            self.seen.retain(|_, t0| hwm.saturating_sub(*t0) <= window);
            let key = (copy.dev_addr, copy.fcnt);
            if self.seen.contains_key(&key) {
                return DedupOutcome::Duplicate;
            }
            if copy.received_us.saturating_add(window) < hwm {
                return DedupOutcome::Late;
            }
            self.seen.insert(key, copy.received_us);
            DedupOutcome::New
        }
    }

    fn arb_copy() -> impl Strategy<Value = UplinkCopy> {
        (
            0u32..8,
            0u16..16,
            0usize..4,
            -20.0f64..10.0,
            0u64..2_000_000,
        )
            .prop_map(|(dev, fcnt, gw, snr, t)| UplinkCopy {
                dev_addr: DevAddr(dev),
                fcnt,
                gw_id: gw,
                snr_db: snr,
                received_us: t,
                trace: 0,
            })
    }

    proptest! {
        /// Lazy eviction + amortized sweep never changes a decision
        /// relative to eager per-offer eviction — the property the
        /// daemon's equivalence soak relies on.
        #[test]
        fn lazy_matches_eager_eviction(
            copies in proptest::collection::vec(arb_copy(), 0..200),
            window in 1_000u64..500_000,
        ) {
            let mut lazy = Deduplicator::new(window);
            let mut eager = EagerReference {
                window_us: window,
                seen: HashMap::new(),
                high_water_us: 0,
            };
            for c in copies {
                prop_assert_eq!(lazy.offer(c), eager.offer(c));
            }
        }

        /// Replaying a deduplicator's offer log through a fresh one
        /// reproduces its decisions exactly, with every SNR and trace id
        /// zeroed: those pick the best copy but never decide a copy's
        /// outcome. `netserverd` logs neither, and its divergence check
        /// is this replay.
        #[test]
        fn replaying_the_log_is_exact(
            copies in proptest::collection::vec(arb_copy(), 0..200),
            window in 1_000u64..500_000,
        ) {
            let mut dedup = Deduplicator::new(window);
            let log: Vec<(UplinkCopy, DedupOutcome)> =
                copies.into_iter().map(|c| (c, dedup.offer(c))).collect();
            let mut replay = Deduplicator::new(window);
            for (c, o) in log {
                let bare = UplinkCopy { snr_db: 0.0, trace: 0, ..c };
                prop_assert_eq!(replay.offer(bare), o);
            }
        }
    }
}
