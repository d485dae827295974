//! The bounded decoder pool — the contended resource at the center of
//! the paper.
//!
//! A COTS gateway has `C` hardware decoders. The dispatcher acquires one
//! per locked-on packet and releases it when the packet finishes; when
//! all `C` are busy, newly locked-on packets are dropped ("the
//! dispatcher drops subsequent packets until any decoders become
//! available", Appendix C).

use obs::{ObsEvent, ObsSink};
use serde::{Deserialize, Serialize};

/// Running statistics of a decoder pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Successful decoder acquisitions.
    pub acquired: u64,
    /// Releases (must equal `acquired` once the medium is idle).
    pub released: u64,
    /// Acquisition attempts rejected because the pool was exhausted.
    pub exhausted_drops: u64,
    /// Highest simultaneous occupancy observed.
    pub peak_in_use: usize,
}

/// A bounded pool of packet decoders.
#[derive(Debug, Clone)]
pub struct DecoderPool {
    capacity: usize,
    in_use: usize,
    /// Decoders made unusable by an injected hardware lock-up (the
    /// chaos layer's partial-failure mode). They stay counted in
    /// `capacity` but are never handed out.
    locked: usize,
    stats: PoolStats,
}

impl DecoderPool {
    /// A pool with `capacity` decoders (e.g. 16 for an SX1302).
    pub fn new(capacity: usize) -> DecoderPool {
        assert!(capacity > 0, "a gateway without decoders is not a gateway");
        DecoderPool {
            capacity,
            in_use: 0,
            locked: 0,
            stats: PoolStats::default(),
        }
    }

    /// Hardware decoder count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Decoders currently assigned to in-flight packets.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Decoders currently locked up by fault injection.
    pub fn locked(&self) -> usize {
        self.locked
    }

    /// Capacity actually usable right now (`capacity − locked`).
    pub fn effective_capacity(&self) -> usize {
        self.capacity - self.locked
    }

    /// Decoders free for new packets right now.
    #[cfg(test)]
    pub fn available(&self) -> usize {
        self.effective_capacity().saturating_sub(self.in_use)
    }

    /// Snapshot of the running statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Mark `n` decoders as locked up (clamped to capacity). Decoders
    /// already mid-reception are unaffected — occupancy may transiently
    /// exceed the effective capacity until they release.
    pub fn set_locked(&mut self, n: usize) {
        self.locked = n.min(self.capacity);
    }

    /// Try to acquire one decoder. Returns `true` on success; `false`
    /// means the packet is dropped by decoder contention.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.effective_capacity() {
            self.in_use += 1;
            self.stats.acquired += 1;
            self.stats.peak_in_use = self.stats.peak_in_use.max(self.in_use);
            true
        } else {
            self.stats.exhausted_drops += 1;
            false
        }
    }

    /// Release a previously acquired decoder.
    ///
    /// # Panics
    /// Panics if the pool is already empty — a release without a
    /// matching acquire is a simulation bug, not a runtime condition.
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "decoder released twice");
        self.in_use -= 1;
        self.stats.released += 1;
    }

    /// [`DecoderPool::try_acquire`] with observability: emits
    /// [`ObsEvent::DecoderAcquired`] on success or
    /// [`ObsEvent::PoolFullDrop`] on exhaustion. The caller supplies
    /// the identifiers the pool doesn't know (`t_us` is the lock-on
    /// instant, `trace` the packet's trace id — 0 when untraced —
    /// `gw` the gateway index, `tx` the transmission id).
    pub fn try_acquire_obs(
        &mut self,
        t_us: u64,
        trace: u64,
        gw: u32,
        tx: u64,
        sink: &mut dyn ObsSink,
    ) -> bool {
        let ok = self.try_acquire();
        if sink.enabled() {
            if ok {
                sink.record(&ObsEvent::DecoderAcquired {
                    t_us,
                    trace,
                    gw,
                    tx,
                    in_use: self.in_use as u32,
                    capacity: self.capacity as u32,
                });
            } else {
                sink.record(&ObsEvent::PoolFullDrop {
                    t_us,
                    trace,
                    gw,
                    tx,
                    locked: self.locked as u32,
                });
            }
        }
        ok
    }

    /// [`DecoderPool::release`] with observability: emits
    /// [`ObsEvent::DecoderReleased`]. `t_us` is the release instant
    /// (the packet's airtime end).
    ///
    /// # Panics
    /// Panics on release without a matching acquire, like
    /// [`DecoderPool::release`].
    pub fn release_obs(&mut self, t_us: u64, trace: u64, gw: u32, tx: u64, sink: &mut dyn ObsSink) {
        self.release();
        if sink.enabled() {
            sink.record(&ObsEvent::DecoderReleased {
                t_us,
                trace,
                gw,
                tx,
                in_use: self.in_use as u32,
            });
        }
    }

    /// Reset occupancy, lock-ups and statistics (e.g. between runs).
    pub fn reset(&mut self) {
        self.in_use = 0;
        self.locked = 0;
        self.stats = PoolStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_exhausted() {
        let mut p = DecoderPool::new(16);
        for _ in 0..16 {
            assert!(p.try_acquire());
        }
        assert!(!p.try_acquire());
        assert_eq!(p.stats().exhausted_drops, 1);
        assert_eq!(p.stats().peak_in_use, 16);
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn release_frees_capacity() {
        let mut p = DecoderPool::new(2);
        assert!(p.try_acquire());
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        p.release();
        assert!(p.try_acquire());
        assert_eq!(p.stats().acquired, 3);
        assert_eq!(p.stats().released, 1);
    }

    #[test]
    #[should_panic(expected = "decoder released twice")]
    fn double_release_panics() {
        let mut p = DecoderPool::new(1);
        p.release();
    }

    #[test]
    #[should_panic]
    fn zero_capacity_invalid() {
        DecoderPool::new(0);
    }

    #[test]
    fn reset_clears() {
        let mut p = DecoderPool::new(4);
        p.try_acquire();
        p.set_locked(2);
        p.reset();
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.locked(), 0);
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn locked_decoders_shrink_capacity() {
        let mut p = DecoderPool::new(4);
        p.set_locked(3);
        assert_eq!(p.effective_capacity(), 1);
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        // Unlocking restores admission.
        p.set_locked(0);
        assert!(p.try_acquire());
    }

    #[test]
    fn lock_clamped_to_capacity() {
        let mut p = DecoderPool::new(2);
        p.set_locked(100);
        assert_eq!(p.locked(), 2);
        assert_eq!(p.effective_capacity(), 0);
        assert!(!p.try_acquire());
    }

    #[test]
    fn observed_pool_events_report_occupancy_and_lockups() {
        let mut p = DecoderPool::new(2);
        p.set_locked(1);
        let mut sink = obs::VecSink::new();
        assert!(p.try_acquire_obs(10, 7, 3, 100, &mut sink));
        assert!(!p.try_acquire_obs(11, 8, 3, 101, &mut sink));
        p.release_obs(50, 7, 3, 100, &mut sink);
        assert_eq!(
            sink.events(),
            [
                ObsEvent::DecoderAcquired {
                    t_us: 10,
                    trace: 7,
                    gw: 3,
                    tx: 100,
                    in_use: 1,
                    capacity: 2,
                },
                ObsEvent::PoolFullDrop {
                    t_us: 11,
                    trace: 8,
                    gw: 3,
                    tx: 101,
                    locked: 1,
                },
                ObsEvent::DecoderReleased {
                    t_us: 50,
                    trace: 7,
                    gw: 3,
                    tx: 100,
                    in_use: 0,
                },
            ]
        );
        // The unobserved twin keeps the same books.
        let mut q = DecoderPool::new(2);
        q.set_locked(1);
        assert!(q.try_acquire());
        assert!(!q.try_acquire());
        q.release();
        assert_eq!(p.stats(), q.stats());
    }

    #[test]
    fn in_flight_receptions_survive_lockup() {
        let mut p = DecoderPool::new(2);
        assert!(p.try_acquire());
        assert!(p.try_acquire());
        p.set_locked(2);
        // Occupancy transiently exceeds effective capacity; releases
        // still balance.
        assert_eq!(p.available(), 0);
        p.release();
        p.release();
        assert_eq!(p.in_use(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation: in_use never exceeds capacity, and equals
        /// acquired − released, under arbitrary acquire/release traces.
        #[test]
        fn pool_conservation(capacity in 1usize..64, ops in proptest::collection::vec(any::<bool>(), 0..500)) {
            let mut pool = DecoderPool::new(capacity);
            for acquire in ops {
                if acquire {
                    pool.try_acquire();
                } else if pool.in_use() > 0 {
                    pool.release();
                }
                prop_assert!(pool.in_use() <= pool.capacity());
                let s = pool.stats();
                prop_assert_eq!(pool.in_use() as u64, s.acquired - s.released);
                prop_assert!(s.peak_in_use <= capacity);
            }
        }

        /// Exactly `capacity` acquisitions succeed from an empty pool
        /// with no interleaved releases.
        #[test]
        fn saturation_point(capacity in 1usize..64, extra in 0usize..32) {
            let mut pool = DecoderPool::new(capacity);
            let mut ok = 0;
            for _ in 0..capacity + extra {
                if pool.try_acquire() {
                    ok += 1;
                }
            }
            prop_assert_eq!(ok, capacity);
            prop_assert_eq!(pool.stats().exhausted_drops, extra as u64);
        }
    }
}
