//! Minimal deterministic discrete-event queue.
//!
//! Events are ordered by timestamp, then by a fixed kind priority
//! (transmission ends are processed before lock-ons at the same instant,
//! so a decoder freed at time `t` is available to a packet locking on at
//! `t`), then by transmission id for full determinism.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event concerning one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The packet's first preamble symbol goes on air: interference
    /// registration.
    TxStart {
        /// Transmission the event belongs to.
        tx_id: u64,
    },
    /// The packet's preamble completes: gateways lock on (or drop).
    LockOn {
        /// Transmission the event belongs to.
        tx_id: u64,
    },
    /// The packet's airtime ends: decoders release, verdicts are made.
    TxEnd {
        /// Transmission the event belongs to.
        tx_id: u64,
    },
}

impl Event {
    /// The transmission this event belongs to.
    pub fn tx_id(&self) -> u64 {
        match *self {
            Event::TxStart { tx_id } | Event::LockOn { tx_id } | Event::TxEnd { tx_id } => tx_id,
        }
    }

    /// Same-timestamp ordering priority (lower first). Ends precede
    /// starts (back-to-back packets don't overlap) which precede
    /// lock-ons (a decoder freed at `t` serves a preamble ending at `t`).
    fn priority(&self) -> u8 {
        match self {
            Event::TxEnd { .. } => 0,
            Event::TxStart { .. } => 1,
            Event::LockOn { .. } => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at_us: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at_us
            .cmp(&self.at_us)
            .then_with(|| other.event.priority().cmp(&self.event.priority()))
            .then_with(|| other.event.tx_id().cmp(&self.event.tx_id()))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue: a plain binary heap. The spec loop
/// ([`crate::reference`]) drains it; the engine's [`TimeWheel`] is held
/// to its pop order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `event` at absolute time `at_us`.
    pub fn push(&mut self, at_us: u64, event: Event) {
        self.heap.push(Scheduled { at_us, event });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|s| (s.at_us, s.event))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event remains.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One event queued in a [`TimeWheel`]: `(t_us, kind priority, tx id,
/// payload)`. The payload rides along untouched (the sharded engine
/// stores the slot id there so the hot path never needs an id→slot
/// map); ordering ignores it.
pub type WheelEntry = (u64, u8, u64, u32);

/// Log2 of the level-0 bucket width in µs (1024 µs ≈ one LoRa symbol
/// at SF10/125 kHz — fine-grained enough that a bucket rarely holds
/// more than a handful of events at realistic duty cycles).
const WHEEL_BASE_SHIFT: u32 = 10;
/// Log2 of the slots per wheel level.
const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Wheel levels before the unsorted overflow list. Three levels span
/// `2^(10+8·3)` µs ≈ 4.8 hours, comfortably past every simulated
/// horizon; overflow exists for correctness, not for the hot path.
const WHEEL_LEVELS: usize = 3;
/// Entries per bucket block. A bucket is a chain of blocks, every one
/// full but the head; 16 entries (400 B a block) keep a sparse bucket
/// small and a dense one a short walk.
const BLOCK_ENTRIES: usize = 16;

/// A fixed-size run of one bucket's entries, or a spare on its wheel's
/// free list.
#[derive(Debug)]
struct Block {
    entries: [WheelEntry; BLOCK_ENTRIES],
    /// Entries in use, from the front.
    fill: usize,
    /// The next block of the same bucket, or of the free list.
    next: Chain,
}

/// A bucket (or the free list): its head block, `None` when empty.
type Chain = Option<Box<Block>>;

impl Drop for Block {
    /// Unlink the rest of the chain one block at a time: a free list
    /// thousands of blocks long must not drop recursively.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut b) = next {
            next = b.next.take();
        }
    }
}

/// A hierarchical timer wheel that reproduces [`EventQueue`]'s exact
/// pop order — `(t_us, kind priority, tx id)` ascending — under the
/// monotone frontier-drain discipline of [`Self::pop_before`].
///
/// Inserts are O(1): an entry lands in the finest wheel level whose
/// current rotation can address its timestamp, or in the overflow
/// list. Draining moves a cursor from occupied bucket to occupied
/// bucket (a 256-bit occupancy word per level names the next one, so
/// empty simulated time costs nothing), cascading coarser-level
/// buckets down as their windows open, and sorts each level-0 bucket's
/// handful of events on arrival — O(1) amortized per event versus the
/// `O(log n)` sift of a binary heap, which is the entire point at
/// million-event queue depths.
///
/// Two contract differences from a general priority queue, both
/// inherited from the chunk-fed shard loop that owns it:
///
/// * pushes must be at or after every timestamp already drained
///   (`ChunkSource` promises all future starts are at or after the
///   last frontier), and
/// * successive [`Self::pop_before`] frontiers must be nondecreasing.
///
/// Both are debug-asserted. The `wheel_matches_event_queue` proptest
/// pins the pop order to [`EventQueue`] under adversarial same-instant
/// schedules.
///
/// Buckets hold their entries in fixed-size blocks drawn from one free
/// list per wheel, and a bucket hands each block back as it empties.
/// What a wheel keeps between runs is therefore the block count of its
/// peak of queued entries, whatever the run's length, not the sum of
/// 768 buckets' high-water marks; a repeat run draws every block it
/// needs from the free list.
#[derive(Debug)]
pub struct TimeWheel {
    /// `levels[l][slot]`: entries with `t >> (BASE + 8l)` equal to the
    /// slot's current rotation tick.
    levels: Vec<Vec<Chain>>,
    /// Blocks no bucket holds, kept for the next bucket that fills one.
    free: Chain,
    /// `occupied[l]` bit `slot`: whether `levels[l][slot]` holds
    /// anything.
    occupied: [[u64; WHEEL_SLOTS / 64]; WHEEL_LEVELS],
    /// Entries beyond the top level's span, unsorted.
    overflow: Vec<WheelEntry>,
    /// The sorted run currently being served (all entries `< cur`).
    ready: Vec<WheelEntry>,
    ready_idx: usize,
    /// Every entry strictly before `cur` has been moved to `ready`.
    cur: u64,
    /// Entries still in `levels` + `overflow`.
    pending: usize,
    /// Level-(l+1) tick `cur` was last cascaded at, per level.
    last_tick: [u64; WHEEL_LEVELS],
    /// Entries re-filed from a coarser level (or overflow) to a finer
    /// one — the wheel's only non-O(1) motion, surfaced for telemetry.
    cascades: u64,
}

impl Default for TimeWheel {
    fn default() -> TimeWheel {
        TimeWheel::new()
    }
}

impl TimeWheel {
    /// An empty wheel with its cursor at time 0.
    pub fn new() -> TimeWheel {
        TimeWheel {
            levels: (0..WHEEL_LEVELS)
                .map(|_| (0..WHEEL_SLOTS).map(|_| None).collect())
                .collect(),
            free: None,
            occupied: [[0; WHEEL_SLOTS / 64]; WHEEL_LEVELS],
            overflow: Vec::new(),
            ready: Vec::new(),
            ready_idx: 0,
            cur: 0,
            pending: 0,
            last_tick: [0; WHEEL_LEVELS],
            cascades: 0,
        }
    }

    /// Rewind a drained wheel to time 0, keeping its free blocks: the
    /// engine's wheel serves run after run.
    pub(crate) fn rewind(&mut self) {
        debug_assert!(self.is_empty() && self.occupied == [[0; WHEEL_SLOTS / 64]; WHEEL_LEVELS]);
        debug_assert!(self.levels.iter().flatten().all(Option::is_none));
        self.ready.clear();
        self.ready_idx = 0;
        self.cur = 0;
        self.last_tick = [0; WHEEL_LEVELS];
        self.cascades = 0;
    }

    /// Entries still queued.
    pub fn len(&self) -> usize {
        self.pending + (self.ready.len() - self.ready_idx)
    }

    /// Whether no entry remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries moved down a level by cursor advancement so far.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Blocks the wheel holds, in buckets and on the free list.
    #[cfg(test)]
    fn blocks(&self) -> usize {
        let mut n = 0;
        for chain in self.levels.iter().flatten().chain([&self.free]) {
            let mut block = chain.as_deref();
            while let Some(b) = block {
                n += 1;
                block = b.next.as_deref();
            }
        }
        n
    }

    /// File `e` into the finest level that can address its timestamp.
    fn place(&mut self, e: WheelEntry) {
        let t = e.0;
        for l in 0..WHEEL_LEVELS {
            let shift = WHEEL_BASE_SHIFT + WHEEL_BITS * l as u32;
            if (t >> shift) - (self.cur >> shift) < WHEEL_SLOTS as u64 {
                let slot = (t >> shift) as usize & (WHEEL_SLOTS - 1);
                self.file(l, slot, e);
                self.occupied[l][slot / 64] |= 1 << (slot % 64);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Append `e` to bucket `levels[l][slot]`, opening a block from the
    /// free list (or a new one) when the head block is full.
    fn file(&mut self, l: usize, slot: usize, e: WheelEntry) {
        let bucket = &mut self.levels[l][slot];
        if let Some(head) = bucket {
            if head.fill < BLOCK_ENTRIES {
                head.entries[head.fill] = e;
                head.fill += 1;
                return;
            }
        }
        let mut block = match self.free.take() {
            Some(mut spare) => {
                self.free = spare.next.take();
                spare
            }
            None => Box::new(Block {
                entries: [(0, 0, 0, 0); BLOCK_ENTRIES],
                fill: 0,
                next: None,
            }),
        };
        block.entries[0] = e;
        block.fill = 1;
        block.next = bucket.take();
        *bucket = Some(block);
    }

    /// Empty bucket `levels[l][slot]` through `each`, block by block,
    /// handing every block back to the free list once read. The bucket
    /// is detached first, so `each` may file into the wheel — this
    /// bucket included.
    fn drain_bucket(&mut self, l: usize, slot: usize, mut each: impl FnMut(&mut Self, WheelEntry)) {
        let mut chain = self.levels[l][slot].take();
        while let Some(mut block) = chain {
            chain = block.next.take();
            for &e in &block.entries[..block.fill] {
                each(self, e);
            }
            block.next = self.free.take();
            self.free = Some(block);
        }
    }

    /// Schedule an entry. Must not precede any already-drained time.
    pub fn push(&mut self, e: WheelEntry) {
        debug_assert!(
            e.0 >= self.cur,
            "push at {} behind wheel cursor {}",
            e.0,
            self.cur
        );
        self.pending += 1;
        self.place(e);
    }

    /// Cascade coarser levels whose tick the cursor has entered, then
    /// overflow entries that now fit somewhere.
    fn cascade_at_cursor(&mut self) {
        for l in (0..WHEEL_LEVELS).rev() {
            let shift = WHEEL_BASE_SHIFT + WHEEL_BITS * (l as u32 + 1);
            let tick = self.cur >> shift;
            if tick == self.last_tick[l] {
                continue;
            }
            self.last_tick[l] = tick;
            if l + 1 < WHEEL_LEVELS {
                let slot = tick as usize & (WHEEL_SLOTS - 1);
                self.occupied[l + 1][slot / 64] &= !(1 << (slot % 64));
                // Everything here shares the cursor's level-(l+1) tick,
                // so it files at level l or finer, never back into this
                // bucket, whose blocks go back to the free list.
                self.drain_bucket(l + 1, slot, |w, e| {
                    w.cascades += 1;
                    w.place(e);
                });
            } else {
                // Top level rolled a tick: any overflow entry the wheels
                // can now address moves down.
                let mut i = 0;
                while i < self.overflow.len() {
                    let t = self.overflow[i].0;
                    let top_shift = WHEEL_BASE_SHIFT + WHEEL_BITS * (WHEEL_LEVELS as u32 - 1);
                    if (t >> top_shift) - (self.cur >> top_shift) < WHEEL_SLOTS as u64 {
                        let e = self.overflow.swap_remove(i);
                        self.cascades += 1;
                        self.place(e);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// The earliest time after the cursor at which anything is filed:
    /// the start of the next occupied level-0 bucket, the tick at which
    /// the next occupied coarser slot cascades, or — with entries in
    /// overflow — the next top-level tick. Call after
    /// [`Self::cascade_at_cursor`], with the cursor's own level-0
    /// bucket empty.
    fn next_due(&self) -> u64 {
        let mut due = u64::MAX;
        for l in 0..WHEEL_LEVELS {
            let shift = WHEEL_BASE_SHIFT + WHEEL_BITS * l as u32;
            let tick = self.cur >> shift;
            // The cursor's own slot is empty at every level (coarser
            // ones were cascaded on entry), so the search starts one
            // slot on.
            let own = tick as usize & (WHEEL_SLOTS - 1);
            debug_assert_eq!(self.occupied[l][own / 64] & (1 << (own % 64)), 0);
            let from = (own + 1) & (WHEEL_SLOTS - 1);
            if let Some(ahead) = next_set_bit(&self.occupied[l], from) {
                due = due.min((tick + 1 + ahead as u64) << shift);
            }
        }
        if !self.overflow.is_empty() {
            let top_shift = WHEEL_BASE_SHIFT + WHEEL_BITS * WHEEL_LEVELS as u32;
            due = due.min(((self.cur >> top_shift) + 1) << top_shift);
        }
        due
    }

    /// Move every entry strictly before `frontier` toward `ready`,
    /// stopping as soon as the ready run is non-empty (later buckets
    /// hold strictly later times, so serving the current run first is
    /// exact).
    fn advance(&mut self, frontier: u64) {
        self.ready.clear();
        self.ready_idx = 0;
        while self.pending > 0 && self.cur < frontier {
            self.cascade_at_cursor();
            let slot = (self.cur >> WHEEL_BASE_SHIFT) as usize & (WHEEL_SLOTS - 1);
            let bucket_end = ((self.cur >> WHEEL_BASE_SHIFT) + 1) << WHEEL_BASE_SHIFT;
            if self.levels[0][slot].is_none() {
                // Empty time: jump to where the next entry (or the next
                // cascade that could produce one) is due. Cascades fire
                // at the same ticks a bucket-by-bucket walk would reach.
                self.cur = self.next_due().min(frontier);
                continue;
            }
            if bucket_end <= frontier {
                self.drain_bucket(0, slot, |w, e| {
                    w.pending -= 1;
                    w.ready.push(e);
                });
                self.cur = bucket_end;
            } else {
                // The frontier splits this bucket: serve what is due,
                // file the rest back (the cursor stays inside the
                // bucket, so the slot remains addressable).
                self.drain_bucket(0, slot, |w, e| {
                    if e.0 < frontier {
                        w.pending -= 1;
                        w.ready.push(e);
                    } else {
                        w.file(0, slot, e);
                    }
                });
                self.cur = frontier;
            }
            if self.levels[0][slot].is_none() {
                self.occupied[0][slot / 64] &= !(1 << (slot % 64));
            }
            if !self.ready.is_empty() {
                break;
            }
        }
        if self.pending == 0 && self.cur < frontier {
            // Nothing left to walk toward: jump the cursor (and the
            // cascade ticks, which have nothing left to move).
            self.cur = frontier;
            for l in 0..WHEEL_LEVELS {
                self.last_tick[l] = self.cur >> (WHEEL_BASE_SHIFT + WHEEL_BITS * (l as u32 + 1));
            }
        }
        self.ready.sort_unstable_by_key(|e| (e.0, e.1, e.2));
    }

    /// Pop the earliest entry scheduled *strictly before*
    /// `frontier_us`. Frontiers must be nondecreasing across calls.
    ///
    /// This is the draining rule for chunk-fed schedules: after a
    /// producer promises that every future transmission starts at or
    /// after `frontier_us`, all queued entries strictly below the
    /// frontier are safe to process — no future push can precede them.
    /// Entries *at* the frontier must wait: a future TxEnd at the same
    /// instant would sort ahead of a queued TxStart or LockOn (see
    /// [`Event`]'s same-timestamp priorities), so popping them early
    /// could reorder equal-timestamp events versus the full-knowledge
    /// [`EventQueue`] order.
    pub fn pop_before(&mut self, frontier_us: u64) -> Option<WheelEntry> {
        loop {
            if self.ready_idx < self.ready.len() {
                let e = self.ready[self.ready_idx];
                if e.0 < frontier_us {
                    self.ready_idx += 1;
                    return Some(e);
                }
                // Only possible after a frontier regression, which the
                // shard loop never performs.
                debug_assert!(false, "frontier regressed below served run");
                return None;
            }
            if self.pending == 0 || self.cur >= frontier_us {
                return None;
            }
            self.advance(frontier_us);
        }
    }
}

/// Circular distance from bit `from` to the next set bit of a 256-bit
/// word (`0` when `from` itself is set), `None` when no bit is set.
fn next_set_bit(word: &[u64; WHEEL_SLOTS / 64], from: usize) -> Option<usize> {
    let (w0, b0) = (from / 64, from % 64);
    for i in 0..=word.len() {
        let w = (w0 + i) % word.len();
        let mut bits = word[w];
        if i == 0 {
            bits &= !0 << b0;
        } else if i == word.len() {
            // Back in the first word: only the bits below `from`.
            bits &= !(!0 << b0);
        }
        if bits != 0 {
            let at = w * 64 + bits.trailing_zeros() as usize;
            return Some((at + WHEEL_SLOTS - from) % WHEEL_SLOTS);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.push(30, Event::LockOn { tx_id: 1 });
        q.push(10, Event::LockOn { tx_id: 2 });
        q.push(20, Event::TxEnd { tx_id: 3 });
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn txend_before_lockon_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(100, Event::LockOn { tx_id: 1 });
        q.push(100, Event::TxEnd { tx_id: 2 });
        assert_eq!(q.pop().unwrap().1, Event::TxEnd { tx_id: 2 });
        assert_eq!(q.pop().unwrap().1, Event::LockOn { tx_id: 1 });
    }

    #[test]
    fn tie_break_by_tx_id() {
        let mut q = EventQueue::new();
        q.push(5, Event::LockOn { tx_id: 9 });
        q.push(5, Event::LockOn { tx_id: 3 });
        q.push(5, Event::LockOn { tx_id: 7 });
        let ids: Vec<u64> = (0..3).map(|_| q.pop().unwrap().1.tx_id()).collect();
        assert_eq!(ids, vec![3, 7, 9]);
    }

    #[test]
    fn wheel_blocks_follow_the_queue_peak() {
        // One entry queued at a time, over 50 s of buckets and cascades:
        // one block, handed from bucket to bucket.
        let mut w = TimeWheel::new();
        for i in 0..10_000u64 {
            let t = i * 5_000;
            w.push((t, 1, i, i as u32));
            assert_eq!(w.pop_before(t + 1), Some((t, 1, i, i as u32)));
        }
        assert_eq!(w.blocks(), 1);

        // A thousand entries in one bucket: ⌈1000 / 16⌉ blocks, all back
        // on the free list once drained, and enough for the same burst
        // after a rewind.
        let mut w = TimeWheel::new();
        for _ in 0..2 {
            w.rewind();
            for i in 0..1_000u64 {
                w.push((500, 1, i, i as u32));
            }
            assert_eq!(w.blocks(), 63);
            assert_eq!(std::iter::from_fn(|| w.pop_before(u64::MAX)).count(), 1_000);
            assert_eq!(w.blocks(), 63);
        }
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::LockOn { tx_id: 0 });
        q.push(2, Event::TxEnd { tx_id: 0 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops come out in nondecreasing time order regardless of push
        /// order.
        fn sorted_output(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(*t, Event::LockOn { tx_id: i as u64 });
            }
            let mut prev = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= prev);
                prev = t;
            }
        }

        /// The hierarchical [`TimeWheel`] reproduces the binary-heap
        /// pop order exactly under chunked feeding and frontier gating
        /// (the shard loop ingests transmissions in start-time chunks
        /// and drains with [`TimeWheel::pop_before`]; no chunk boundary
        /// may reorder equal-timestamp events) — same-instant priority
        /// and id tie-breaks included. Starts are drawn from a narrow
        /// range so chunk frontiers constantly land *on* queued event
        /// timestamps, then stretched across bucket, cascade and
        /// overflow boundaries so level transitions are exercised, not
        /// just bucket 0. The sparse variants put minutes to hours of
        /// empty time between events and let frontiers split otherwise
        /// empty buckets, which is what the occupancy jump must get
        /// right.
        fn wheel_matches_event_queue(
            starts in proptest::collection::vec(0u64..40, 1..200),
            // Index into a stretch table spanning bucket, cascade and
            // overflow boundaries (the last entry is past the top
            // level's span, so overflow entries cascade in).
            stretch_i in 0usize..5,
            chunk in 1usize..8,
            // Sparse schedules: keep only every `thin`-th start, and
            // move each chunk's frontier `early` µs before the next
            // start, into the empty time ahead of it.
            thin in 1usize..12,
            early in 0u64..3_000,
        ) {
            let stretch = [1u64, 1_000, 300_000, 80_000_000, 600_000_000][stretch_i];
            // Transmission i: start, lock-on +0..2, end +0..4 (narrow
            // offsets force heavy same-instant contention).
            let mut txs: Vec<(u64, u64, u64)> = starts
                .iter()
                .step_by(thin)
                .map(|&s| {
                    let s = s * stretch;
                    (s, s + s % 3, s + s % 5)
                })
                .collect();
            // Chunks are emitted in start order, ids in emission order
            // (the contract of `ChunkSource`).
            txs.sort_by_key(|&(s, _, _)| s);

            let mut q = EventQueue::new();
            for (i, &(s, l, e)) in txs.iter().enumerate() {
                let id = i as u64;
                q.push(s, Event::TxStart { tx_id: id });
                q.push(l, Event::LockOn { tx_id: id });
                q.push(e, Event::TxEnd { tx_id: id });
            }

            let mut w = TimeWheel::new();
            let mut drained: Vec<WheelEntry> = Vec::new();
            let mut last_frontier = 0;
            for (ci, group) in txs.chunks(chunk).enumerate() {
                let base = (ci * chunk) as u64;
                for (k, &(s, l, e)) in group.iter().enumerate() {
                    let id = base + k as u64;
                    w.push((s, 1, id, id as u32));
                    w.push((l, 2, id, id as u32));
                    w.push((e, 0, id, id as u32));
                }
                // All later transmissions start at or after the next
                // chunk's first start time.
                let frontier = txs
                    .get((ci + 1) * chunk)
                    .map(|&(s, _, _)| s.saturating_sub(early).max(last_frontier))
                    .unwrap_or(u64::MAX);
                last_frontier = frontier;
                while let Some(entry) = w.pop_before(frontier) {
                    prop_assert!(entry.0 < frontier);
                    drained.push(entry);
                }
            }
            prop_assert!(w.is_empty());
            prop_assert_eq!(drained.len(), q.len());
            for got in &drained {
                let (t, ev) = q.pop().unwrap();
                prop_assert_eq!((got.0, got.1, got.2), (t, ev.priority(), ev.tx_id()));
                prop_assert_eq!(got.3 as u64, ev.tx_id());
            }
        }
    }
}
