//! Memory-ceiling audit for the streamed (sharded) simulation path.
//!
//! A byte-tracking global allocator wraps the system allocator; a
//! streamed run over a workload of ~10k transmissions must keep its
//! transient heap growth *below the cost of materializing the event
//! timeline alone* — direct evidence that [`sim::shard`] never builds
//! the 3n-event timeline or the full plan list, which is the entire
//! point of the streaming path (at 10M transmissions the timeline is
//! ~0.5 GB; the streamed working set stays at the on-air ceiling).
//!
//! This is the binary's only test so no concurrent test can perturb
//! the counters.

use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use sim::shard::ShardOpts;
use sim::topology::Topology;
use sim::traffic::DutyCycleStream;
use sim::world::SimWorld;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct PeakAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
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

#[test]
fn streamed_run_peak_heap_stays_below_timeline_cost() {
    let n_nodes = 200usize;
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let topo = Topology::new((3_000.0, 3_000.0), n_nodes, 2, model, 21);
    let profile = GatewayProfile::rak7268cv2();
    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels.clone()).unwrap(),
            )
        })
        .collect();
    let mut world = SimWorld::new(topo, vec![1; n_nodes], gateways);

    let assigns: Vec<(usize, Channel, DataRate)> = (0..n_nodes)
        .map(|i| (i, channels[i % 8], DataRate::from_index(i / 8 % 6).unwrap()))
        .collect();
    // ~10k transmissions streamed in 200 ms windows: hundreds of
    // chunks, each a sliver of the run.
    let mut stream = DutyCycleStream::new(&assigns, 23, 0.01, 600_000_000, 33, 200_000);
    let opts = ShardOpts {
        max_shards: 2,
        chunk_txs: 4096,
    };

    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let run = world.run_streamed(&mut stream, &opts);
    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

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
