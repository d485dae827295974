//! Low-overhead hierarchical span profiler for hot-path phase timing.
//!
//! The sim engine, the CP solver and the svc ingest thread are
//! instrumented with scoped RAII spans ([`enter`]) at a closed set of
//! sites ([`SpanId`]). The profiler is designed around two invariants:
//!
//! * **Zero cost when detached.** [`enter`] is a single relaxed atomic
//!   load followed by an immediate return of an inert guard: no
//!   allocation, no thread-local access, no timestamp. The workspace
//!   counting-allocator test asserts the no-alloc half; the simworld
//!   bench asserts the observable-output half (records are
//!   byte-identical with the profiler attached or detached, because
//!   spans never touch the deterministic event stream).
//! * **Bounded cost when attached.** Every span call counts exactly
//!   (one `fetch_add`), but wall-clock timing is *sampled*: only every
//!   `2^stride`-th call per site pays the two `Instant::now` reads and
//!   the recent-record ring push. Total time per site is estimated as
//!   `sampled_ns * calls / samples`. The profiler measures its own
//!   per-call cost at attach time ([`SpanReport::self_ns_per_call`]) so
//!   reported timings can be corrected for instrumentation overhead.
//!
//! Spans are hierarchical: a per-thread depth counter tags each sampled
//! record with its nesting depth (e.g. a `SolverRepair` span inside a
//! `SolverEval` span records depth 1). State is process-global and
//! merged across threads by construction (plain atomics per site), so
//! sim shard workers and GA scoring threads need no explicit flush.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Schema version stamped into [`SpanReport`].
pub const SPAN_REPORT_VERSION: u32 = 1;

/// Default sampling stride shift: time every `2^6 = 64`-th call.
pub const DEFAULT_STRIDE_SHIFT: u32 = 6;

/// Capacity of the ring of recent sampled records.
const RECENT_CAP: usize = 512;

/// Closed enumeration of instrumented sites.
///
/// Sites are a fixed, compile-time set so per-site statistics live in a
/// direct-indexed table with no hashing on the hot path. Adding a site
/// means adding a variant here and a name in [`SpanId::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanId {
    /// Sim engine: one hand-off ingested into a shard machine.
    ShardIngest = 0,
    /// Sim engine: one bounded drain to the safe frontier.
    ShardDrain = 1,
    /// Sim engine: k-way merge of per-shard event streams.
    ShardMerge = 2,
    /// CP solver: one generation step (breed + repair + score of
    /// every child).
    SolverEval = 3,
    /// CP solver: one genome mutation.
    SolverMutate = 4,
    /// CP solver: one genome repair pass.
    SolverRepair = 5,
    /// CP solver: one bred child scored.
    SolverScore = 6,
    /// svc ingest thread: one drain's packets offered to the dedup
    /// shards and logged.
    SvcBatch = 7,
    /// Internal: self-overhead calibration loop.
    Calibrate = 8,
}

/// Number of [`SpanId`] variants (size of the site table).
pub const SPAN_SITE_COUNT: usize = 9;

impl SpanId {
    /// Stable human-readable site name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::ShardIngest => "shard.ingest",
            SpanId::ShardDrain => "shard.drain",
            SpanId::ShardMerge => "shard.merge",
            SpanId::SolverEval => "solver.eval",
            SpanId::SolverMutate => "solver.mutate",
            SpanId::SolverRepair => "solver.repair",
            SpanId::SolverScore => "solver.score",
            SpanId::SvcBatch => "svc.batch",
            SpanId::Calibrate => "span.calibrate",
        }
    }

    fn from_index(i: usize) -> SpanId {
        match i {
            0 => SpanId::ShardIngest,
            1 => SpanId::ShardDrain,
            2 => SpanId::ShardMerge,
            3 => SpanId::SolverEval,
            4 => SpanId::SolverMutate,
            5 => SpanId::SolverRepair,
            6 => SpanId::SolverScore,
            7 => SpanId::SvcBatch,
            _ => SpanId::Calibrate,
        }
    }
}

struct SiteCell {
    calls: AtomicU64,
    samples: AtomicU64,
    sampled_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SiteCell {
    const fn new() -> Self {
        SiteCell {
            calls: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            sampled_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const SITE_INIT: SiteCell = SiteCell::new();
static SITES: [SiteCell; SPAN_SITE_COUNT] = [SITE_INIT; SPAN_SITE_COUNT];

static ATTACHED: AtomicBool = AtomicBool::new(false);
static STRIDE_MASK: AtomicU64 = AtomicU64::new((1 << DEFAULT_STRIDE_SHIFT) - 1);
static SELF_NS: AtomicU64 = AtomicU64::new(0);

struct RecentRing {
    buf: Vec<RawRecord>,
    next: usize,
    attach_at: Option<Instant>,
}

#[derive(Clone, Copy)]
struct RawRecord {
    site: u8,
    depth: u32,
    t_us: u64,
    dur_ns: u64,
}

static RECENT: Mutex<RecentRing> = Mutex::new(RecentRing {
    buf: Vec::new(),
    next: 0,
    attach_at: None,
});

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard returned by [`enter`]; the span closes when it drops.
#[must_use = "a span guard times the scope it lives in"]
pub struct SpanGuard {
    site: u8,
    depth: u32,
    start: Option<Instant>,
    armed: bool,
}

/// Open a span at `site`. Free (one relaxed load) when detached.
#[inline]
pub fn enter(site: SpanId) -> SpanGuard {
    if !ATTACHED.load(Ordering::Relaxed) {
        return SpanGuard {
            site: site as u8,
            depth: 0,
            start: None,
            armed: false,
        };
    }
    enter_attached(site)
}

fn enter_attached(site: SpanId) -> SpanGuard {
    let cell = &SITES[site as usize];
    let n = cell.calls.fetch_add(1, Ordering::Relaxed);
    let mask = STRIDE_MASK.load(Ordering::Relaxed);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard {
        site: site as u8,
        depth,
        start: if n & mask == 0 {
            Some(Instant::now())
        } else {
            None
        },
        armed: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            let cell = &SITES[self.site as usize];
            cell.samples.fetch_add(1, Ordering::Relaxed);
            cell.sampled_ns.fetch_add(ns, Ordering::Relaxed);
            cell.max_ns.fetch_max(ns, Ordering::Relaxed);
            let mut ring = match RECENT.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let t_us = ring
                .attach_at
                .map(|a| a.elapsed().as_micros() as u64)
                .unwrap_or(0);
            let rec = RawRecord {
                site: self.site,
                depth: self.depth,
                t_us,
                dur_ns: ns,
            };
            if ring.buf.len() < RECENT_CAP {
                ring.buf.push(rec);
            } else {
                let at = ring.next;
                ring.buf[at] = rec;
            }
            ring.next = (ring.next + 1) % RECENT_CAP;
        }
    }
}

/// Attach the profiler with the default sampling stride and calibrate
/// the per-call self-overhead. Idempotent; resets all statistics.
pub fn attach() {
    attach_with_stride(DEFAULT_STRIDE_SHIFT);
}

/// Attach with an explicit sampling stride shift (`0` times every
/// call — use in tests for exact durations). Resets all statistics.
pub fn attach_with_stride(stride_shift: u32) {
    reset();
    let shift = stride_shift.min(20);
    STRIDE_MASK.store((1u64 << shift) - 1, Ordering::Relaxed);
    {
        let mut ring = match RECENT.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        ring.attach_at = Some(Instant::now());
    }
    ATTACHED.store(true, Ordering::SeqCst);
    calibrate();
}

/// Detach the profiler. Statistics are retained until [`reset`] or the
/// next attach; subsequent [`enter`] calls are free again.
pub fn detach() {
    ATTACHED.store(false, Ordering::SeqCst);
}

/// Whether the profiler is currently attached.
pub fn is_attached() -> bool {
    ATTACHED.load(Ordering::Relaxed)
}

/// Zero every site statistic and clear the recent-record ring.
pub fn reset() {
    for cell in SITES.iter() {
        cell.calls.store(0, Ordering::Relaxed);
        cell.samples.store(0, Ordering::Relaxed);
        cell.sampled_ns.store(0, Ordering::Relaxed);
        cell.max_ns.store(0, Ordering::Relaxed);
    }
    let mut ring = match RECENT.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    ring.buf.clear();
    ring.next = 0;
}

/// Measure the profiler's own cost per *sampled* span call and record
/// it for [`SpanReport::self_ns_per_call`]. Runs a tight loop of
/// enter/drop pairs at stride 1 against the [`SpanId::Calibrate`] site,
/// then removes those calls from the site table.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 4096;
    let saved_mask = STRIDE_MASK.load(Ordering::Relaxed);
    STRIDE_MASK.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let _g = enter(SpanId::Calibrate);
    }
    let per_call = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    STRIDE_MASK.store(saved_mask, Ordering::Relaxed);
    // Remove the calibration traffic so reports only show real sites.
    let cell = &SITES[SpanId::Calibrate as usize];
    cell.calls.store(0, Ordering::Relaxed);
    cell.samples.store(0, Ordering::Relaxed);
    cell.sampled_ns.store(0, Ordering::Relaxed);
    cell.max_ns.store(0, Ordering::Relaxed);
    let mut ring = match RECENT.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    ring.buf.retain(|r| r.site != SpanId::Calibrate as u8);
    ring.next = ring.buf.len() % RECENT_CAP;
    SELF_NS.store(per_call as u64, Ordering::Relaxed);
    per_call
}

/// One sampled span occurrence in the recent-record ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Site name (see [`SpanId::name`]).
    pub site: String,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// Microseconds since profiler attach when the span closed.
    pub t_us: u64,
    /// Sampled wall duration of this occurrence, nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated statistics for one instrumented site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSiteReport {
    /// Site name (see [`SpanId::name`]).
    pub site: String,
    /// Exact number of times the span was entered.
    pub calls: u64,
    /// Number of calls that were wall-clock sampled.
    pub samples: u64,
    /// Total sampled duration, nanoseconds.
    pub sampled_ns: u64,
    /// Mean sampled duration, nanoseconds.
    pub mean_ns: f64,
    /// Maximum sampled duration, nanoseconds.
    pub max_ns: u64,
    /// Estimated total time at this site: `sampled_ns * calls / samples`.
    pub est_total_ns: f64,
}

/// Point-in-time snapshot of the whole profiler, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Schema version ([`SPAN_REPORT_VERSION`]).
    pub version: u32,
    /// Whether the profiler was attached when the report was taken.
    pub attached: bool,
    /// Sampling stride in calls (1 = every call timed).
    pub stride: u64,
    /// Calibrated profiler self-cost per sampled call, nanoseconds.
    pub self_ns_per_call: u64,
    /// Per-site aggregates, site-table order, sites with zero calls
    /// omitted.
    pub sites: Vec<SpanSiteReport>,
    /// Most recent sampled records, oldest first.
    pub recent: Vec<SpanRecord>,
}

impl SpanReport {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Snapshot current profiler state into a [`SpanReport`].
pub fn report() -> SpanReport {
    let mut sites = Vec::new();
    for (i, cell) in SITES.iter().enumerate() {
        let calls = cell.calls.load(Ordering::Relaxed);
        if calls == 0 {
            continue;
        }
        let samples = cell.samples.load(Ordering::Relaxed);
        let sampled_ns = cell.sampled_ns.load(Ordering::Relaxed);
        let mean = if samples > 0 {
            sampled_ns as f64 / samples as f64
        } else {
            0.0
        };
        sites.push(SpanSiteReport {
            site: SpanId::from_index(i).name().to_string(),
            calls,
            samples,
            sampled_ns,
            mean_ns: mean,
            max_ns: cell.max_ns.load(Ordering::Relaxed),
            est_total_ns: mean * calls as f64,
        });
    }
    let ring = match RECENT.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let mut recent = Vec::with_capacity(ring.buf.len());
    if ring.buf.len() == RECENT_CAP {
        for off in 0..RECENT_CAP {
            let r = ring.buf[(ring.next + off) % RECENT_CAP];
            recent.push(r);
        }
    } else {
        recent.extend(ring.buf.iter().copied());
    }
    let recent = recent
        .into_iter()
        .map(|r| SpanRecord {
            site: SpanId::from_index(r.site as usize).name().to_string(),
            depth: r.depth,
            t_us: r.t_us,
            dur_ns: r.dur_ns,
        })
        .collect();
    SpanReport {
        version: SPAN_REPORT_VERSION,
        attached: is_attached(),
        stride: STRIDE_MASK.load(Ordering::Relaxed) + 1,
        self_ns_per_call: SELF_NS.load(Ordering::Relaxed),
        sites,
        recent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global; serialize tests that attach.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Every slot of the site table maps back to the variant stored
    /// there, and every site reports under a name of its own.
    #[test]
    fn site_ids_and_names_round_trip() {
        let names: Vec<&str> = (0..SPAN_SITE_COUNT)
            .map(|i| {
                let site = SpanId::from_index(i);
                assert_eq!(site as usize, i, "{site:?}");
                site.name()
            })
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), SPAN_SITE_COUNT, "{names:?}");
        assert!(names.contains(&"solver.score"));
    }

    #[test]
    fn detached_enter_is_inert() {
        let _l = lock();
        detach();
        reset();
        {
            let _g = enter(SpanId::ShardDrain);
        }
        let rep = report();
        assert!(rep.sites.is_empty());
        assert!(!rep.attached);
    }

    #[test]
    fn attached_counts_exactly_and_samples() {
        let _l = lock();
        attach_with_stride(2); // time every 4th call
        for _ in 0..100 {
            let _g = enter(SpanId::SolverEval);
        }
        let rep = report();
        detach();
        let site = rep
            .sites
            .iter()
            .find(|s| s.site == "solver.eval")
            .expect("site present");
        assert_eq!(site.calls, 100);
        assert_eq!(site.samples, 25);
        assert!(site.est_total_ns >= site.sampled_ns as f64);
        assert!(rep.self_ns_per_call < 100_000);
    }

    #[test]
    fn depth_tracks_nesting() {
        let _l = lock();
        attach_with_stride(0);
        {
            let _outer = enter(SpanId::SolverEval);
            let _inner = enter(SpanId::SolverRepair);
        }
        let rep = report();
        detach();
        let inner = rep
            .recent
            .iter()
            .find(|r| r.site == "solver.repair")
            .expect("inner record");
        assert_eq!(inner.depth, 1);
        let outer = rep
            .recent
            .iter()
            .find(|r| r.site == "solver.eval")
            .expect("outer record");
        assert_eq!(outer.depth, 0);
    }

    #[test]
    fn report_round_trips_json() {
        let _l = lock();
        attach_with_stride(0);
        {
            let _g = enter(SpanId::ShardDrain);
        }
        let rep = report();
        detach();
        let json = rep.to_json();
        let back: SpanReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rep);
    }
}
