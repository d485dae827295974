//! Zero-cost audit for the detached span profiler.
//!
//! `obs::span::enter` sits on the simulation hot path, the CP-solver
//! inner loops and the svc ingest thread; its contract is that with no
//! profiler attached a span is one relaxed atomic load and an inert
//! guard — no heap allocation, no site-table writes, no TLS traffic.
//! A counting global allocator wraps the system allocator and a tight
//! enter/drop loop over every site must leave the counter untouched.
//! This is the binary's only test so no concurrent test can perturb
//! the counter (and no other test can attach the process-global
//! profiler mid-loop).

use obs::span::{self, SpanId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SITES: [SpanId; 8] = [
    SpanId::ShardIngest,
    SpanId::ShardDrain,
    SpanId::ShardMerge,
    SpanId::SolverEval,
    SpanId::SolverMutate,
    SpanId::SolverRepair,
    SpanId::SolverScore,
    SpanId::SvcBatch,
];

#[test]
fn detached_spans_never_allocate_or_record() {
    assert!(!span::is_attached(), "profiler must start detached");
    let calls_before: Vec<u64> = {
        let report = span::report();
        SITES
            .iter()
            .map(|s| {
                report
                    .sites
                    .iter()
                    .find(|r| r.site == s.name())
                    .map(|r| r.calls)
                    .unwrap_or(0)
            })
            .collect()
    };

    // The harness's own threads may allocate transiently (channel
    // wake-ups, panic-hook setup), so measure in rounds: the span path
    // itself allocates nothing, so a clean round must show up almost
    // immediately; a real allocation in enter/drop would taint every
    // round.
    let mut clean = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..100_000 {
            for &site in &SITES {
                drop(span::enter(site));
            }
        }
        last_delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if last_delta == 0 {
            clean = true;
            break;
        }
    }
    assert!(
        clean,
        "detached span enter/drop allocated in every round (last delta: {last_delta})"
    );

    // Bit-exact off mode: the loop above must also have left the site
    // tables untouched — detached spans are uncounted, not sampled.
    let report = span::report();
    for (s, &calls) in SITES.iter().zip(&calls_before) {
        let now = report
            .sites
            .iter()
            .find(|r| r.site == s.name())
            .map(|r| r.calls)
            .unwrap_or(0);
        assert_eq!(now, calls, "site {} counted while detached", s.name());
    }
}
