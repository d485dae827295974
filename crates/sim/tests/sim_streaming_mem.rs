//! Memory audit for the streamed (sharded) simulation path, under a
//! global allocator that tracks live bytes, their peak, and the number
//! of allocation calls. Five claims:
//!
//! * a streamed run over ~10k transmissions keeps its transient heap
//!   growth *below the cost of materializing the event timeline alone*
//!   — direct evidence that [`sim::shard`] never builds the 3n-event
//!   timeline or the full plan list (at 10M transmissions the timeline
//!   is ~0.5 GB; the streamed working set stays at the on-air ceiling);
//! * the engine keeps no per-node state: the same run peaks at the same
//!   heap in a 200-node and a 200 000-node world;
//! * a world keeps its engine buffers between runs, so a repeat run
//!   allocates a fixed number of times, whatever its length;
//! * the traffic stream holds state for the nodes that transmit, not
//!   for every assignment;
//! * what a world keeps between runs follows the run's on-air peak,
//!   not its length.
//!
//! The counters are process-wide, so the audits run one after another
//! in one `#[test]`: with several tests in the binary, libtest starts
//! the next test's thread while one is measuring, and its allocations
//! land in that measurement.

use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use sim::shard::ShardOpts;
use sim::topology::Topology;
use sim::traffic::{collect_chunks, ChunkSource, DutyCycleStream, SliceChunks, TxPlan};
use sim::world::SimWorld;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct PeakAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Allocation calls (`alloc` and `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let cur = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Conservatively counted as a fresh allocation of the new size
        // (the old block is released below); over-counts peak, which
        // only makes the ceiling assertion stricter.
        note_alloc(new_size);
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Nodes that transmit in every workload here.
const ACTIVE_NODES: usize = 200;

fn channels() -> Vec<Channel> {
    ChannelGrid::standard(916_800_000, 1_600_000).channels()
}

/// A two-gateway world of `n_nodes` whose first [`ACTIVE_NODES`] nodes
/// are the same in every size: positions and link losses are those of
/// the `ACTIVE_NODES`-node world.
fn world(n_nodes: usize) -> SimWorld {
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let topo = |n| Topology::new((3_000.0, 3_000.0), n, 2, model, 21);
    let mut t = topo(n_nodes);
    if n_nodes != ACTIVE_NODES {
        let active = topo(ACTIVE_NODES);
        for i in 0..ACTIVE_NODES {
            t.nodes[i] = active.nodes[i];
            t.loss_db[i].copy_from_slice(&active.loss_db[i]);
        }
    }
    let profile = GatewayProfile::rak7268cv2();
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels()).unwrap(),
            )
        })
        .collect();
    SimWorld::new(t, vec![1; n_nodes], gateways)
}

/// ~10k transmissions of the active nodes over 600 s, streamed in
/// 200 ms windows: hundreds of chunks, each a sliver of the run.
fn stream() -> DutyCycleStream {
    let ch = channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..ACTIVE_NODES)
        .map(|i| (i, ch[i % 8], DataRate::from_index(i / 8 % 6).unwrap()))
        .collect();
    DutyCycleStream::new(&assigns, 23, 0.01, 600_000_000, 33, 200_000)
}

const TWO_SHARDS: ShardOpts = ShardOpts {
    max_shards: 2,
    chunk_txs: 4096,
};

/// Heap growth at the peak of `f`, bytes.
fn peak_delta<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

fn streamed_run_peak_heap_stays_below_timeline_cost() {
    let mut world = world(ACTIVE_NODES);
    let mut stream = stream();
    let (run, peak_delta) = peak_delta(|| world.run_streamed(&mut stream, &TWO_SHARDS));

    let txs = run.stats.txs;
    assert!(txs > 5_000, "workload too small to be meaningful ({txs})");

    // Materializing just the (t, event) timeline costs 16 bytes per
    // entry, 3 entries per transmission — before plans, link tables or
    // per-packet records. The streamed run must beat that, or it is
    // materializing something it promised to stream.
    let timeline_bytes = 3 * txs * 16;
    assert!(
        peak_delta < timeline_bytes,
        "streamed run peaked at {peak_delta} heap bytes, not below the \
         {timeline_bytes}-byte timeline it claims never to build"
    );

    // Slot recycling keeps the live transmission ceiling far below the
    // run length: the on-air set plus at most one driver hand-off
    // (here a 200 ms window's few plans), not 3n events.
    let peak_live: u64 = run
        .shard_stats
        .iter()
        .map(|s| s.peak_live)
        .max()
        .unwrap_or(0);
    assert!(
        peak_live > 0 && peak_live < txs / 10,
        "peak live slots {peak_live} not an order of magnitude below {txs} txs"
    );
}

/// The same run on the same 200 nodes, in a world of 200 and of
/// 200 000 nodes (each world, loss matrix included, built before
/// measuring): the engine's heap peak must not see the other 199 800.
/// An engine with any state per node ever seen fails this — the one
/// that kept an RSSI row per node also kept a `nodes × 4 B` row map,
/// 0.8 MB per shard here.
fn streamed_peak_is_independent_of_world_node_count() {
    let peak_in = |n_nodes: usize| {
        let mut world = world(n_nodes);
        let mut stream = stream();
        let (run, peak) = peak_delta(|| world.run_streamed(&mut stream, &TWO_SHARDS));
        (run.summary, peak)
    };
    let (small, small_peak) = peak_in(ACTIVE_NODES);
    let (large, large_peak) = peak_in(200_000);
    assert_eq!(small, large, "the two worlds ran different workloads");
    assert!(
        small_peak.abs_diff(large_peak) < 8 * 1024,
        "peak heap {small_peak} B with {ACTIVE_NODES} nodes, {large_peak} B with 200 000"
    );
}

/// Allocation calls a repeat run may make: the run's set-up — channel
/// context, shard partition, gateway hand-out, per-channel candidate
/// and `hear` lists, the producer's chunk buffers, the summary. It is
/// O(channels + gateways), here 8 channels and 2 gateways, and does
/// not depend on run length or node count.
const REPEAT_RUN_ALLOCS: u64 = 128;

/// A world keeps its engine buffers between runs: once it has served
/// a workload, running it again allocates only the run's set-up —
/// equally often for 1k transmissions as for 10k, and far less often
/// than the cold run. One shard, so the producer's hand-off buffer is
/// reused too (threaded shards add one allocation per hand-off).
fn repeat_runs_allocate_a_fixed_number_of_times() {
    let long: Vec<TxPlan> = collect_chunks(&mut stream());
    let short = &long[..1_000];
    assert!(long.len() > 5_000, "{} plans", long.len());
    let mut world = world(ACTIVE_NODES);
    let opts = ShardOpts {
        max_shards: 1,
        chunk_txs: 512,
    };
    let mut allocs = |plans: &[TxPlan]| {
        let mut source = SliceChunks::new(plans, opts.chunk_txs);
        world.reset();
        let before = CALLS.load(Ordering::Relaxed);
        world.run_streamed(&mut source, &opts);
        CALLS.load(Ordering::Relaxed) - before
    };

    let cold = allocs(&long);
    allocs(short);
    let (repeat_short, repeat_long) = (allocs(short), allocs(&long));
    assert_eq!(
        repeat_short,
        repeat_long,
        "a repeat run allocated {repeat_short} times for {} txs, {repeat_long} for {}",
        short.len(),
        long.len()
    );
    assert!(
        repeat_long <= REPEAT_RUN_ALLOCS,
        "a repeat run allocated {repeat_long} times (bound {REPEAT_RUN_ALLOCS})"
    );
    assert!(
        10 * repeat_long < cold,
        "a repeat run allocated {repeat_long} times, the cold run {cold}"
    );
}

/// A stream over 200 000 assignments on a 20 ms horizon, in which a few
/// hundred nodes transmit, holds under 8 B of heap per assignment, from
/// construction to its last chunk. A stream that copies its assignment
/// list (24 B each) or keeps a clock for every node (24 B) fails it.
fn stream_heap_follows_its_transmitters() {
    const N: usize = 200_000;
    let ch = channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..N)
        .map(|i| (i, ch[i % 8], DataRate::from_index(i / 8 % 6).unwrap()))
        .collect();
    let mut plans = Vec::new();
    let (txs, peak) = peak_delta(|| {
        let mut stream = DutyCycleStream::new(&assigns, 23, 0.01, 20_000, 33, 5_000);
        let mut txs = 0;
        while stream.next_chunk(&mut plans).is_some() {
            txs += plans.len();
        }
        txs
    });
    assert!(
        (100..1_000).contains(&txs),
        "{txs} transmissions, not a few hundred"
    );
    let bound = 8 * N as u64;
    assert!(
        peak < bound,
        "the stream peaked at {peak} B over {N} assignments (bound {bound} B)"
    );
}

/// Two fresh worlds serve a 600 s run and its first 3 000 transmissions,
/// which already reach the long run's on-air peak, in 16-plan chunks so
/// that little beyond the on-air set is queued. What each world keeps
/// afterwards (its shard's buffers) must agree within 4 KiB: a buffer
/// that keeps the high-water mark of every place it was ever used — a
/// wheel bucket per 1 ms and per 262 ms of simulated time — grows with
/// the run's length and fails it (15 KB apart when each bucket kept its
/// capacity).
fn retained_heap_follows_the_on_air_peak() {
    let long: Vec<TxPlan> = collect_chunks(&mut stream());
    let short = &long[..3_000];
    let opts = ShardOpts {
        max_shards: 1,
        chunk_txs: 16,
    };
    let retained = |plans: &[TxPlan]| {
        let mut world = world(ACTIVE_NODES);
        let mut source = SliceChunks::new(plans, opts.chunk_txs);
        let before = CURRENT.load(Ordering::Relaxed);
        let run = world.run_streamed(&mut source, &opts);
        let peaks: Vec<u64> = run.shard_stats.iter().map(|s| s.peak_live).collect();
        drop(run);
        let kept = CURRENT.load(Ordering::Relaxed) - before;
        (kept, peaks)
    };
    let (long_kept, long_peaks) = retained(&long);
    let (short_kept, short_peaks) = retained(short);
    assert_eq!(short_peaks, long_peaks, "the two runs peak differently");
    assert!(
        long_kept.abs_diff(short_kept) < 4 * 1024,
        "a world keeps {long_kept} B after {} txs, {short_kept} B after {}",
        long.len(),
        short.len()
    );
}

#[test]
fn streamed_path_heap_audits() {
    streamed_run_peak_heap_stays_below_timeline_cost();
    streamed_peak_is_independent_of_world_node_count();
    repeat_runs_allocate_a_fixed_number_of_times();
    stream_heap_follows_its_transmitters();
    retained_heap_follows_the_on_air_peak();
}
