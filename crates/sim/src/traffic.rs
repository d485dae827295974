//! Workload generators.
//!
//! * [`concurrent_burst`] — the paper's §3.1 micro-slotted concurrent
//!   transmissions (Scheme (a): leading preamble symbols in node order;
//!   Scheme (b): final preamble symbols — i.e. lock-on instants — in
//!   node order), also used by every §5 capacity probe;
//! * [`duty_cycled`] — 1%-duty random traffic for the at-scale
//!   experiments (§5.2.1, Fig. 4, Fig. 13, Appendix D);
//! * [`ChunkSource`] — workloads delivered in start-ordered chunks for
//!   the sharded engine: [`DutyCycleStream`] draws the duty-cycled
//!   model straight from a calendar queue of arrival clocks, one per
//!   node that transmits (the 1M–10M-node path, never materialized),
//!   [`SliceChunks`] adapts a plan slice.

use lora_phy::airtime::PacketParams;
use lora_phy::channel::Channel;
use lora_phy::types::{Bandwidth, DataRate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One planned transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxPlan {
    /// Sending node index.
    pub node: usize,
    /// Uplink channel.
    pub channel: Channel,
    /// Uplink data rate.
    pub dr: DataRate,
    /// Transmission start (first preamble symbol), µs.
    pub start_us: u64,
    /// PHY payload length, bytes.
    pub payload_len: usize,
}

/// How a concurrent burst is aligned (§3.1's two schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstScheme {
    /// The *leading* preamble symbol of node `i` arrives in slot `i`.
    LeadingPreambleOrdered,
    /// The *final* preamble symbol (the lock-on instant) of node `i`
    /// arrives in slot `i` — the scheme that exposes pure FCFS order.
    FinalPreambleOrdered,
}

/// Build a micro-slotted concurrent burst: assignment `i` is scheduled
/// in micro slot `i` (slot width `slot_us`), aligned per `scheme`, with
/// all packets overlapping in time.
///
/// `base_us` must exceed the longest preamble in the burst when using
/// [`BurstScheme::FinalPreambleOrdered`] (SF12: ≈ 402 ms); a `base_us`
/// of 1 s is safe for any LoRaWAN packet.
pub fn concurrent_burst(
    assignments: &[(usize, Channel, DataRate)],
    payload_len: usize,
    base_us: u64,
    slot_us: u64,
    scheme: BurstScheme,
) -> Vec<TxPlan> {
    assignments
        .iter()
        .enumerate()
        .map(|(i, &(node, channel, dr))| {
            let preamble =
                PacketParams::lorawan_uplink(dr.spreading_factor(), Bandwidth::Khz125, payload_len)
                    .airtime()
                    .preamble_us;
            let slot_t = base_us + i as u64 * slot_us;
            let start_us = match scheme {
                BurstScheme::LeadingPreambleOrdered => slot_t,
                BurstScheme::FinalPreambleOrdered => slot_t
                    .checked_sub(preamble)
                    .expect("base_us must exceed the longest preamble"),
            };
            TxPlan {
                node,
                channel,
                dr,
                start_us,
                payload_len,
            }
        })
        .collect()
}

/// Build a fully-overlapping concurrent burst by aligning packet *ends*
/// to micro slots: packet `i` ends at `end_base_us + i·slot_us`, so
/// every packet is still on air when the last one ends and decoders
/// never free mid-burst. This is the alignment that makes "maximum
/// number of concurrent users" a clean capacity metric (§2.2) across
/// mixed spreading factors, whose airtimes differ by 20×.
///
/// `end_base_us` must exceed the longest airtime in the burst (SF12 at
/// 23 bytes ≈ 1.48 s; 2 s is safe).
pub fn end_aligned_burst(
    assignments: &[(usize, Channel, DataRate)],
    payload_len: usize,
    end_base_us: u64,
    slot_us: u64,
) -> Vec<TxPlan> {
    assignments
        .iter()
        .enumerate()
        .map(|(i, &(node, channel, dr))| {
            let airtime =
                PacketParams::lorawan_uplink(dr.spreading_factor(), Bandwidth::Khz125, payload_len)
                    .airtime()
                    .total_us();
            let end = end_base_us + i as u64 * slot_us;
            let start_us = end
                .checked_sub(airtime)
                .expect("end_base_us must exceed the longest airtime");
            TxPlan {
                node,
                channel,
                dr,
                start_us,
                payload_len,
            }
        })
        .collect()
}

/// Duty-cycled random traffic: each node transmits with exponential
/// inter-arrival times whose mean keeps it at `duty` (e.g. 0.01),
/// starting at a random phase, until `horizon_us`.
pub fn duty_cycled(
    assignments: &[(usize, Channel, DataRate)],
    payload_len: usize,
    duty: f64,
    horizon_us: u64,
    seed: u64,
) -> Vec<TxPlan> {
    assert!(duty > 0.0 && duty <= 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plans = Vec::new();
    for &(node, channel, dr) in assignments {
        let airtime =
            PacketParams::lorawan_uplink(dr.spreading_factor(), Bandwidth::Khz125, payload_len)
                .airtime()
                .total_us();
        let mean_gap = airtime as f64 / duty;
        let mut t = rng.gen_range(0.0..mean_gap);
        while (t as u64) < horizon_us {
            plans.push(TxPlan {
                node,
                channel,
                dr,
                start_us: t as u64,
                payload_len,
            });
            // Exponential inter-arrival, mean `mean_gap`.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() * mean_gap;
        }
    }
    plans.sort_by_key(|p| p.start_us);
    plans
}

/// A workload delivered in start-time-ordered chunks, so the sharded
/// event loop never materializes the full 3n-event timeline.
///
/// Contract (what [`crate::shard`]'s frontier-gated draining stands
/// on):
///
/// * every plan of a *later* chunk starts at or after the frontier
///   returned with the current chunk (plans *within* a chunk may be in
///   any order — the consumer heaps them);
/// * transmission ids are assigned by the consumer in emission order,
///   so a chunked run's ids match a materialized run over the same
///   plans in the same order;
/// * every emitted channel is in [`Self::channels`] (declared up
///   front, because the shard partition must be fixed before the
///   first chunk is processed).
pub trait ChunkSource {
    /// The channel universe every emitted plan draws from.
    fn channels(&self) -> &[Channel];

    /// Clear `out`, fill it with the next chunk (possibly empty), and
    /// return the frontier: every plan of every later chunk starts at
    /// or after it. `None` once the workload is exhausted.
    fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64>;
}

/// [`ChunkSource`] over an already-materialized plan slice, in slice
/// order (so consumer-assigned ids equal plan indices): yields
/// fixed-size windows whose frontier is the minimum start time of the
/// *remaining* plans (a precomputed suffix minimum, so unsorted slices
/// — which [`crate::world::SimWorld::run`] accepts — work too). Lets
/// `SimWorld::run_sharded_with_faults` reuse the streaming machinery and lets
/// tests pin the chunked engine to the reference.
pub struct SliceChunks<'a> {
    plans: &'a [TxPlan],
    channels: Vec<Channel>,
    /// `suffix_min[i]`: minimum `start_us` over `plans[i..]`
    /// (`u64::MAX` at `i == plans.len()`).
    suffix_min: Vec<u64>,
    cursor: usize,
    chunk_txs: usize,
}

impl<'a> SliceChunks<'a> {
    /// Chunk `plans` into windows of at most `chunk_txs` transmissions.
    pub fn new(plans: &'a [TxPlan], chunk_txs: usize) -> SliceChunks<'a> {
        assert!(chunk_txs > 0, "chunk size must be positive");
        // First-appearance channel universe.
        let mut channels: Vec<Channel> = Vec::new();
        for p in plans {
            if !channels.contains(&p.channel) {
                channels.push(p.channel);
            }
        }
        let mut suffix_min = vec![u64::MAX; plans.len() + 1];
        for i in (0..plans.len()).rev() {
            suffix_min[i] = plans[i].start_us.min(suffix_min[i + 1]);
        }
        SliceChunks {
            plans,
            channels,
            suffix_min,
            cursor: 0,
            chunk_txs,
        }
    }
}

impl ChunkSource for SliceChunks<'_> {
    fn channels(&self) -> &[Channel] {
        &self.channels
    }

    fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64> {
        out.clear();
        if self.cursor >= self.plans.len() {
            return None;
        }
        let end = (self.cursor + self.chunk_txs).min(self.plans.len());
        out.extend_from_slice(&self.plans[self.cursor..end]);
        self.cursor = end;
        Some(self.suffix_min[end])
    }
}

/// SplitMix64 step — the per-node PRNG of [`DutyCycleStream`]. 8 bytes
/// of state per node (versus ~136 for a `StdRng`), so a million-node
/// generator stays small; statistically fine for exponential
/// inter-arrival draws.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A uniform f64 in `(0, 1]` from one SplitMix64 draw (53 mantissa
/// bits; the `+1` keeps `ln` finite).
fn unit_open(state: &mut u64) -> f64 {
    (((splitmix64(state) >> 11) + 1) as f64) * (1.0 / 9007199254740992.0)
}

/// Window buckets in [`DutyCycleStream`]'s calendar ring. A node whose
/// next arrival lies further ahead than this many chunk windows waits
/// in the overflow list and is re-filed each time the ring wraps, so
/// the ring's size trades one empty bucket (24 B) per slot against one
/// overflow scan per `CALENDAR_SLOTS` windows. A drained bucket is
/// released, so beyond those 24 KiB of bucket headers the ring holds
/// 4 B per live node, in whichever bucket its next arrival falls.
const CALENDAR_SLOTS: u64 = 1024;

/// One live node of [`DutyCycleStream`]: its assignment and its arrival
/// process. 32 B; a node whose first arrival falls at or past the
/// horizon never gets one.
struct LiveNode {
    /// Exact next arrival time (µs, f64 to avoid accumulating rounding
    /// across arrivals).
    next_t: f64,
    /// SplitMix64 state.
    rng: u64,
    /// Sending node index.
    node: u32,
    channel: Channel,
    dr: DataRate,
}

const _: () = assert!(std::mem::size_of::<LiveNode>() == 32);

/// Streaming variant of [`duty_cycled`]: the same Poisson-per-node
/// traffic model, generated chunk by chunk instead of materializing
/// (and sorting) every plan. Its memory is `O(transmitters + chunk)`:
/// 32 B per node whose first arrival falls before the horizon, 4 B of
/// calendar queue per such node still transmitting, and the current
/// window's keys — nothing for a node that never transmits, and no copy
/// of the assignment list.
///
/// Each node owns an independent SplitMix64 stream seeded from
/// `(seed, assignment index)`, and a mean gap of airtime / duty looked
/// up by data rate. A first pass over the assignments counts the nodes
/// whose first arrival falls before the horizon; the second gives each
/// of them, in assignment order, a live id and a record carrying its
/// own `(node, channel, dr)`. Live nodes are kept in a **calendar
/// queue** keyed by the chunk window (`t / chunk_us`) of their next
/// arrival: a ring of `CALENDAR_SLOTS` (1024) window buckets plus one
/// overflow list for arrivals further ahead.
/// [`ChunkSource::next_chunk`] drains exactly one bucket, draws every
/// arrival of those nodes inside the window, re-files each node under
/// its next window, and sorts the window's `(t_us, live id)` keys once
/// — O(1) queue work per transmission plus one sort per chunk, where a
/// binary heap of next arrivals pays an `O(log nodes)` pop and push per
/// transmission.
///
/// Plans come out in global `(start_us, assignment index)` order (live
/// ids rise with the assignment index). Deterministic for a fixed seed
/// and **independent of chunking** — only how many plans each
/// `next_chunk` call returns changes, never their content or order.
/// (Not sample-identical to [`duty_cycled`], which consumes one shared
/// `StdRng` sequentially per node; this is a different generator with
/// the same distribution, usable at scales where the materialized one
/// cannot run.)
pub struct DutyCycleStream {
    channels: Vec<Channel>,
    payload_len: usize,
    horizon_us: u64,
    chunk_us: u64,
    /// Index of the next window to emit: arrivals in
    /// `[window · chunk_us, (window + 1) · chunk_us)`.
    window: u64,
    /// Mean inter-arrival gap (airtime / duty) per data rate index.
    mean_gap: [f64; 6],
    /// Per live id: the node's assignment and arrival process.
    live: Vec<LiveNode>,
    /// `ring[w % CALENDAR_SLOTS]`: live ids whose next arrival falls in
    /// window `w`, for the `CALENDAR_SLOTS` windows from `window` on.
    /// Order within a bucket is irrelevant (keys are sorted).
    ring: Vec<Vec<u32>>,
    /// Live ids whose next arrival is past the ring's span.
    overflow: Vec<u32>,
    /// The current window's `(arrival µs, live id)` keys; arrival ties
    /// break by live id, hence by assignment index.
    keys: Vec<(u64, u32)>,
    done: bool,
}

impl DutyCycleStream {
    /// Build the stream; chunks cover `chunk_us` of simulated time
    /// each.
    pub fn new(
        assignments: &[(usize, Channel, DataRate)],
        payload_len: usize,
        duty: f64,
        horizon_us: u64,
        seed: u64,
        chunk_us: u64,
    ) -> DutyCycleStream {
        assert!(duty > 0.0 && duty <= 1.0);
        assert!(chunk_us > 0);
        let mut channels: Vec<Channel> = Vec::new();
        for &(_, ch, _) in assignments {
            if !channels.contains(&ch) {
                channels.push(ch);
            }
        }
        // Mean inter-arrival gap (airtime / duty) per data rate.
        let mean_gap: [f64; 6] = DataRate::ALL.map(|dr| {
            PacketParams::lorawan_uplink(dr.spreading_factor(), Bandwidth::Khz125, payload_len)
                .airtime()
                .total_us() as f64
                / duty
        });
        // Assignment `i`'s generator state and first arrival: an
        // independent stream per node (SplitMix64 of `seed ^ mix(i)`
        // decorrelates nodes) and a random initial phase in (0, gap],
        // as in `duty_cycled`.
        let first = |i: usize, dr: DataRate| {
            let mut rng = seed ^ (i as u64).wrapping_mul(0xA24BAED4963EE407);
            splitmix64(&mut rng);
            let next_t = unit_open(&mut rng) * mean_gap[dr.index()];
            (next_t, rng)
        };
        let n_live = (0..assignments.len())
            .filter(|&i| (first(i, assignments[i].2).0 as u64) < horizon_us)
            .count();
        let mut stream = DutyCycleStream {
            channels,
            payload_len,
            horizon_us,
            chunk_us,
            window: 0,
            mean_gap,
            live: Vec::with_capacity(n_live),
            ring: (0..CALENDAR_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            keys: Vec::new(),
            done: false,
        };
        for (i, &(node, channel, dr)) in assignments.iter().enumerate() {
            let (next_t, rng) = first(i, dr);
            if next_t as u64 >= horizon_us {
                continue;
            }
            let id = stream.live.len() as u32;
            stream.live.push(LiveNode {
                next_t,
                rng,
                node: u32::try_from(node).expect("node index fits in 32 bits"),
                channel,
                dr,
            });
            stream.file(id, next_t as u64);
        }
        debug_assert_eq!(stream.live.len(), n_live);
        stream
    }

    /// File live node `id` under the window of its next arrival `t_us`
    /// (at or past the current window); an arrival at or past the
    /// horizon retires the node.
    fn file(&mut self, id: u32, t_us: u64) {
        if t_us >= self.horizon_us {
            return;
        }
        let w = t_us / self.chunk_us;
        if w - self.window < CALENDAR_SLOTS {
            self.ring[(w % CALENDAR_SLOTS) as usize].push(id);
        } else {
            self.overflow.push(id);
        }
    }
}

impl ChunkSource for DutyCycleStream {
    fn channels(&self) -> &[Channel] {
        &self.channels
    }

    fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64> {
        out.clear();
        if self.done {
            return None;
        }
        let slot = (self.window % CALENDAR_SLOTS) as usize;
        if slot == 0 && self.window > 0 {
            // The ring wrapped: every overflow entry the new rotation
            // can address moves in. An entry is always re-filed before
            // its window comes up, because it was at least a full
            // rotation ahead when it overflowed.
            for id in std::mem::take(&mut self.overflow) {
                self.file(id, self.live[id as usize].next_t as u64);
            }
        }
        let window_end = (self.window + 1).saturating_mul(self.chunk_us);
        let limit = window_end.min(self.horizon_us);

        // Nodes drained here re-file strictly later windows, so the
        // bucket is not pushed to while it is out; once drained it is
        // released, not kept at its high-water mark for a later window.
        let bucket = std::mem::take(&mut self.ring[slot]);
        self.keys.clear();
        for &id in &bucket {
            let n = &mut self.live[id as usize];
            let mean_gap = self.mean_gap[n.dr.index()];
            let mut t = n.next_t as u64;
            while t < limit {
                self.keys.push((t, id));
                // Exponential inter-arrival, mean `mean_gap`.
                n.next_t -= unit_open(&mut n.rng).ln() * mean_gap;
                t = n.next_t as u64;
            }
            self.file(id, t);
        }
        drop(bucket);

        self.keys.sort_unstable();
        out.reserve(self.keys.len());
        for &(t, id) in &self.keys {
            let n = &self.live[id as usize];
            out.push(TxPlan {
                node: n.node as usize,
                channel: n.channel,
                dr: n.dr,
                start_us: t,
                payload_len: self.payload_len,
            });
        }

        self.window += 1;
        // Every filed arrival is below the horizon, so nothing is left
        // once a window reaches it.
        if window_end >= self.horizon_us {
            self.done = true;
            Some(u64::MAX)
        } else {
            Some(window_end)
        }
    }
}

/// Drain a [`ChunkSource`] into one materialized, ordered plan list —
/// the small-scale bridge for proving streamed == materialized runs.
pub fn collect_chunks(source: &mut dyn ChunkSource) -> Vec<TxPlan> {
    let mut all = Vec::new();
    let mut buf = Vec::new();
    while source.next_chunk(&mut buf).is_some() {
        all.extend_from_slice(&buf);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::airtime::PacketParams;
    use lora_phy::types::Bandwidth::Khz125;
    use lora_phy::types::DataRate::*;

    fn assignments() -> Vec<(usize, Channel, DataRate)> {
        (0..12)
            .map(|i| {
                (
                    i,
                    Channel::khz125(920_000_000 + (i as u32 % 4) * 200_000),
                    DataRate::from_index(i % 6).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn scheme_a_orders_starts() {
        let plans = concurrent_burst(
            &assignments(),
            10,
            1_000_000,
            2_000,
            BurstScheme::LeadingPreambleOrdered,
        );
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.start_us, 1_000_000 + i as u64 * 2_000);
        }
    }

    #[test]
    fn scheme_b_orders_lock_ons() {
        let plans = concurrent_burst(
            &assignments(),
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let lock_ons: Vec<u64> = plans
            .iter()
            .map(|p| {
                let preamble =
                    PacketParams::lorawan_uplink(p.dr.spreading_factor(), Khz125, p.payload_len)
                        .airtime()
                        .preamble_us;
                p.start_us + preamble
            })
            .collect();
        for (i, lo) in lock_ons.iter().enumerate() {
            assert_eq!(*lo, 1_000_000 + i as u64 * 2_000);
        }
    }

    #[test]
    #[should_panic(expected = "base_us must exceed")]
    fn scheme_b_rejects_small_base() {
        concurrent_burst(
            &[(0, Channel::khz125(920_000_000), DR0)],
            10,
            1_000, // far less than the SF12 preamble
            0,
            BurstScheme::FinalPreambleOrdered,
        );
    }

    #[test]
    fn end_aligned_all_overlap_at_burst_end() {
        let plans = end_aligned_burst(&assignments(), 23, 2_000_000, 1_000);
        // The last packet's end; every other packet must still be on air
        // at its own end slot and overlap the first packet's end.
        let first_end = 2_000_000;
        for (i, p) in plans.iter().enumerate() {
            let airtime = PacketParams::lorawan_uplink(p.dr.spreading_factor(), Khz125, 23)
                .airtime()
                .total_us();
            assert_eq!(p.start_us + airtime, 2_000_000 + i as u64 * 1_000);
            assert!(
                p.start_us < first_end,
                "packet {i} misses the overlap window"
            );
        }
    }

    #[test]
    #[should_panic(expected = "end_base_us must exceed")]
    fn end_aligned_rejects_small_base() {
        end_aligned_burst(&[(0, Channel::khz125(920_000_000), DR0)], 23, 10_000, 0);
    }

    #[test]
    fn duty_cycled_respects_duty_long_run() {
        let assigns = vec![(0, Channel::khz125(920_000_000), DR3)];
        let horizon = 3_600_000_000u64; // one hour
        let plans = duty_cycled(&assigns, 10, 0.01, horizon, 9);
        let airtime = PacketParams::lorawan_uplink(DR3.spreading_factor(), Khz125, 10)
            .airtime()
            .total_us();
        let on_air: u64 = plans.len() as u64 * airtime;
        let duty = on_air as f64 / horizon as f64;
        // Poisson traffic at target 1%: allow generous statistical slack.
        assert!(duty > 0.004 && duty < 0.02, "duty={duty}");
    }

    #[test]
    fn duty_cycled_sorted_and_deterministic() {
        let a = duty_cycled(&assignments(), 10, 0.01, 600_000_000, 4);
        let b = duty_cycled(&assignments(), 10, 0.01, 600_000_000, 4);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert!(!a.is_empty());
    }

    #[test]
    fn duty_cycled_covers_all_nodes() {
        let plans = duty_cycled(&assignments(), 10, 0.01, 3_600_000_000, 4);
        for node in 0..12 {
            assert!(
                plans.iter().any(|p| p.node == node),
                "node {node} never transmits in an hour"
            );
        }
    }

    /// The binary-heap generator [`DutyCycleStream`] replaced, kept
    /// verbatim as the oracle for the calendar queue: a min-heap of
    /// per-node next-arrival times popped in global start order.
    struct HeapDutyCycleStream {
        assignments: Vec<(usize, Channel, DataRate)>,
        payload_len: usize,
        horizon_us: u64,
        chunk_us: u64,
        cursor_us: u64,
        /// Per assignment: mean inter-arrival gap (airtime / duty).
        mean_gap: Vec<f64>,
        /// Per assignment: PRNG state.
        rng: Vec<u64>,
        /// Per assignment: exact next arrival time (µs, f64 to avoid
        /// accumulating rounding across arrivals).
        next_t: Vec<f64>,
        /// Min-heap of (next arrival µs, assignment index); arrival
        /// ties break by assignment index for determinism.
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
        done: bool,
    }

    impl HeapDutyCycleStream {
        fn new(
            assignments: &[(usize, Channel, DataRate)],
            payload_len: usize,
            duty: f64,
            horizon_us: u64,
            seed: u64,
            chunk_us: u64,
        ) -> HeapDutyCycleStream {
            assert!(duty > 0.0 && duty <= 1.0);
            assert!(chunk_us > 0);
            let mut mean_gap = Vec::with_capacity(assignments.len());
            let mut rng = Vec::with_capacity(assignments.len());
            let mut next_t = Vec::with_capacity(assignments.len());
            let mut heap = std::collections::BinaryHeap::with_capacity(assignments.len());
            for (i, &(_, _, dr)) in assignments.iter().enumerate() {
                let airtime =
                    PacketParams::lorawan_uplink(dr.spreading_factor(), Khz125, payload_len)
                        .airtime()
                        .total_us();
                let gap = airtime as f64 / duty;
                // Independent stream per node: mix the node index into the
                // seed (SplitMix64 of `seed ^ mix(i)` decorrelates nodes).
                let mut state = seed ^ (i as u64).wrapping_mul(0xA24BAED4963EE407);
                splitmix64(&mut state);
                // Random initial phase in (0, gap], as in `duty_cycled`.
                let t0 = unit_open(&mut state) * gap;
                mean_gap.push(gap);
                rng.push(state);
                next_t.push(t0);
                if (t0 as u64) < horizon_us {
                    heap.push(std::cmp::Reverse((t0 as u64, i as u32)));
                }
            }
            HeapDutyCycleStream {
                assignments: assignments.to_vec(),
                payload_len,
                horizon_us,
                chunk_us,
                cursor_us: 0,
                mean_gap,
                rng,
                next_t,
                heap,
                done: false,
            }
        }

        fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64> {
            out.clear();
            if self.done {
                return None;
            }
            let window_end = self.cursor_us.saturating_add(self.chunk_us);
            while let Some(&std::cmp::Reverse((t, idx))) = self.heap.peek() {
                if t >= window_end {
                    break;
                }
                self.heap.pop();
                let i = idx as usize;
                let (node, channel, dr) = self.assignments[i];
                out.push(TxPlan {
                    node,
                    channel,
                    dr,
                    start_us: t,
                    payload_len: self.payload_len,
                });
                // Exponential inter-arrival, mean `mean_gap`.
                let next = self.next_t[i] - unit_open(&mut self.rng[i]).ln() * self.mean_gap[i];
                self.next_t[i] = next;
                if (next as u64) < self.horizon_us {
                    self.heap.push(std::cmp::Reverse((next as u64, idx)));
                }
            }
            self.cursor_us = window_end;
            if self.heap.is_empty() && window_end >= self.horizon_us {
                self.done = true;
                Some(u64::MAX)
            } else {
                Some(window_end)
            }
        }
    }

    fn stream_assignments(n: usize) -> Vec<(usize, Channel, DataRate)> {
        (0..n)
            .map(|i| {
                (
                    i,
                    Channel::khz125(920_000_000 + (i as u32 % 8) * 200_000),
                    DataRate::from_index(i / 8 % 6).unwrap(),
                )
            })
            .collect()
    }

    /// Drive the calendar and the heap oracle side by side: every
    /// chunk's plans and frontier must be equal, both must end on the
    /// same call, and nothing may start at or past the horizon.
    /// Returns `(chunks, plans)` emitted.
    fn assert_matches_heap(
        n: usize,
        duty: f64,
        horizon_us: u64,
        seed: u64,
        chunk_us: u64,
    ) -> (usize, usize) {
        let assigns = stream_assignments(n);
        let mut calendar = DutyCycleStream::new(&assigns, 12, duty, horizon_us, seed, chunk_us);
        let mut heap = HeapDutyCycleStream::new(&assigns, 12, duty, horizon_us, seed, chunk_us);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut chunks, mut plans) = (0, 0);
        loop {
            let f_got = calendar.next_chunk(&mut got);
            let f_want = heap.next_chunk(&mut want);
            assert_eq!(
                f_got, f_want,
                "frontier of chunk {chunks} (n={n} duty={duty} horizon={horizon_us} \
                 seed={seed} chunk_us={chunk_us})"
            );
            assert_eq!(
                got, want,
                "plans of chunk {chunks} (n={n} duty={duty} horizon={horizon_us} \
                 seed={seed} chunk_us={chunk_us})"
            );
            assert!(got.iter().all(|p| p.start_us < horizon_us));
            if f_got.is_none() {
                return (chunks, plans);
            }
            chunks += 1;
            plans += got.len();
        }
    }

    #[test]
    fn calendar_matches_heap_past_the_ring_span() {
        // The `sim_streaming_mem` shape: 3000 windows over a
        // 1024-slot ring, so buckets are reused and overflow entries
        // re-filed on every wrap.
        let (chunks, plans) = assert_matches_heap(200, 0.01, 600_000_000, 33, 200_000);
        assert_eq!(chunks, 3000);
        assert!(chunks as u64 > 2 * CALENDAR_SLOTS && plans > 5_000);
    }

    #[test]
    fn calendar_matches_heap_on_a_last_window_past_the_horizon() {
        // 2.5 windows: the third ends 5 s past the horizon and must
        // still emit only arrivals below it.
        let (chunks, plans) = assert_matches_heap(64, 0.05, 25_000_000, 7, 10_000_000);
        assert_eq!(chunks, 3);
        assert!(plans > 0);
    }

    #[test]
    fn calendar_matches_heap_at_one_microsecond_chunks() {
        // Full duty so that initial phases land inside a 5 ms horizon;
        // 5000 windows of 1 µs each.
        let (chunks, plans) = assert_matches_heap(400, 1.0, 5_000, 3, 1);
        assert_eq!(chunks, 5_000);
        assert!(plans > 0);
    }

    #[test]
    fn calendar_matches_heap_without_assignments() {
        assert_eq!(assert_matches_heap(0, 0.01, 1_000_000, 1, 300_000), (4, 0));
        assert_eq!(assert_matches_heap(0, 0.01, 0, 1, 300_000), (1, 0));
    }

    #[test]
    fn stream_is_independent_of_chunking() {
        let assigns = stream_assignments(96);
        let collect = |chunk_us| {
            collect_chunks(&mut DutyCycleStream::new(
                &assigns,
                12,
                0.02,
                300_000_000,
                5,
                chunk_us,
            ))
        };
        let whole = collect(300_000_000);
        assert!(whole.len() > 1_000);
        assert!(whole
            .windows(2)
            .all(|w| (w[0].start_us, w[0].node) <= (w[1].start_us, w[1].node)));
        assert_eq!(collect(7_000_000), whole);
        assert_eq!(collect(100_000), whole);
    }

    #[test]
    fn stream_keeps_exactly_the_nodes_that_transmit() {
        // A 2 s horizon against mean gaps of 4–100 s: most nodes never
        // transmit, and every node with a first arrival transmits.
        let assigns = stream_assignments(5_000);
        let mut stream = DutyCycleStream::new(&assigns, 12, 0.01, 2_000_000, 8, 250_000);
        let n_live = stream.live.len();
        assert_eq!(stream.live.capacity(), n_live);
        assert!(n_live > 100 && n_live < 1_000, "{n_live} live nodes");
        let plans = collect_chunks(&mut stream);
        let mut senders: Vec<usize> = plans.iter().map(|p| p.node).collect();
        senders.sort_unstable();
        senders.dedup();
        assert_eq!(senders.len(), n_live);
        // Each plan carries its node's own assignment.
        assert!(plans
            .iter()
            .all(|p| (p.node, p.channel, p.dr) == assigns[p.node]));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The calendar emits the heap's plans, chunk boundaries
            /// and frontiers over node counts, duties, seeds, horizons
            /// and window widths — from one window for the whole run
            /// to thousands of windows per mean gap (overflow-heavy).
            fn calendar_matches_heap(
                n in 0usize..80,
                duty_i in 0usize..4,
                seed in any::<u64>(),
                horizon_us in 0u64..400_000_000,
                chunk_i in 0usize..6,
            ) {
                let duty = [0.001, 0.01, 0.2, 1.0][duty_i];
                let chunk_us =
                    [50_000u64, 333_333, 1_000_000, 60_000_000, 400_000_000, u64::MAX][chunk_i];
                assert_matches_heap(n, duty, horizon_us, seed, chunk_us);
            }
        }
    }
}
