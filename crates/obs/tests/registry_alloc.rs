//! Allocation audit for the metrics registry's update calls.
//!
//! `netserverd` calls `Registry::inc` four times per datagram and
//! `inc` ×3 + `observe` once per shard batch, always on names the
//! registry has seen: such a call must find the entry by `&str` and
//! allocate nothing (building a `String` key first was one heap round
//! trip per call). A counting global allocator measures it, and this
//! is the binary's only test so nothing else moves the counter.

use obs::Registry;
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

const BOUNDS: [u64; 3] = [10, 100, 1_000];

#[test]
fn updates_of_existing_keys_never_allocate() {
    let mut reg = Registry::new();
    // First sight of a name creates the entry, and may allocate.
    reg.inc("svc_datagrams_total", 1);
    reg.set_gauge("process_rss_bytes", 1.0);
    reg.observe("ingest_latency_us", &BOUNDS, 5);

    // The harness's own threads may allocate transiently, so measure
    // in rounds: an allocation in the update path would taint every
    // round, a stray one taints at most a few.
    let mut last_delta = u64::MAX;
    let mut rounds = 0u64;
    while rounds < 5 && last_delta != 0 {
        rounds += 1;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 0..100_000u64 {
            reg.inc("svc_datagrams_total", 1);
            reg.set_gauge("process_rss_bytes", i as f64);
            reg.observe("ingest_latency_us", &BOUNDS, i % 2_000);
        }
        last_delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    assert_eq!(
        last_delta, 0,
        "inc/set_gauge/observe on existing keys allocated in every round"
    );
    let updates = 1 + rounds * 100_000;
    assert_eq!(reg.counter("svc_datagrams_total"), updates);
    let rss = reg.gauges().find(|&(name, _)| name == "process_rss_bytes");
    assert_eq!(rss, Some(("process_rss_bytes", 99_999.0)));
    let observed = reg.histogram("ingest_latency_us").map(|h| h.total());
    assert_eq!(observed, Some(updates));
}
