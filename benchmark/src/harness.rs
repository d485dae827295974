//! What every workload shares: run parameters, the span recorder, the
//! outcome a run reports, and order statistics.

use crate::spec::{self, MetricDef};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One run's parameters, from the command line.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans written at exit.
    pub trace: bool,
    /// Sizes that finish in under 2 s per workload.
    pub smoke: bool,
    /// Where `trace-<workload>.json` and `result.json` go.
    pub out_dir: String,
}

/// Set-ups per run (`setup_s` is their median): `full` of them, one
/// in smoke mode.
pub fn setup_reps(cfg: &RunCfg, full: usize) -> usize {
    if cfg.smoke {
        1
    } else {
        full
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of an unsorted sample; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of the fastest tenth (one at least) of a run's repetitions or
/// slices; 0 when empty. The end-to-end timings are this and not the
/// median, because on a shared host a neighbour only ever slows a
/// slice, for seconds to minutes at a time: the median of a run moves
/// with how much of the run was disturbed, its fastest tenth with the
/// program. (The single fastest would do for repetitions, but a slice
/// of round trips is now and then served in a faster mode that no run
/// can count on.)
pub fn best_low(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() as f64 / 10.0).round().max(1.0) as usize);
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// [`best_low`] for rates: mean of the highest tenth.
pub fn best_high(rates: &[f64]) -> f64 {
    -best_low(&rates.iter().map(|r| -r).collect::<Vec<_>>())
}

/// Medians of consecutive equal slices of `values` (in time order),
/// each a `n`-th of them long.
pub fn slice_medians(values: &[f64], n: usize) -> Vec<f64> {
    let len = (values.len() / n.max(1)).max(1);
    values.chunks_exact(len).map(median).collect()
}

/// Peak resident set of this process, MB (`obs::proc_mem` VmHWM).
pub fn peak_rss_mb() -> f64 {
    obs::proc_mem()
        .map(|m| m.peak_rss_bytes as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}

/// Pin the calling thread, and every thread started from it later, to
/// the processor it is on; false when the system refuses. The svc
/// workloads run this way: a datagram's way through the daemon is a
/// chain of thread wake-ups, and on a virtual machine a wake-up that
/// crosses to a sleeping virtual CPU costs 5 to 10 us of hypervisor
/// time, more or less from one minute to the next.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 processors.
    let mut mask = [0u64; 16];
    // SAFETY: two libc calls without preconditions; `mask` is live for
    // the call and its size in bytes is passed with it.
    unsafe {
        let cpu = sched_getcpu();
        if cpu < 0 || cpu as usize >= mask.len() * 64 {
            return false;
        }
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> bool {
    false
}

/// Time `f` once, seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Nanoseconds per call of `f` over `iters` calls, after a tenth as
/// many warm-up calls. Callers pass results through `black_box`.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// Round / repetition the span belongs to.
    run: u32,
}

/// In-memory span recorder around the calls into each layer. Disabled
/// (every call a no-op) on the untraced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, run: u32) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Record a span around `f`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        run: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let r = f();
        self.close(id);
        r
    }

    /// Record a span measured elsewhere (e.g. inside a callback that
    /// cannot borrow the tracer), `dur_ns` long and ending now.
    pub fn record(&mut self, name: &'static str, parent: SpanId, run: u32, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent,
            run,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, seconds: each span's duration minus
    /// its direct children's, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total duration of every span called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Write the spans in Chrome trace-event format.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                s.parent.0 as i64
            };
            write!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.run
            )?;
        }
        write!(w, "]}}")?;
        w.flush()
    }
}

/// What a workload run reports.
pub struct Outcome {
    /// Operations attempted (sim: transmissions; svc: packets sent;
    /// plan-loop: rounds).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, in words; empty when correct.
    pub problems: Vec<String>,
    /// Metric values by name; a traced run fills per-layer names, an
    /// untraced run end-to-end names.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Repetition and per-metric sample counts for the result file.
    pub samples: BTreeMap<&'static str, u64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn sample_count(&mut self, name: &'static str, n: u64) {
        self.samples.insert(name, n);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The metrics this run must report (per-layer on a traced run,
    /// else end-to-end), each exactly once and finite, in declaration
    /// order. Missing per-layer metrics read 0
    /// (a layer this workload does not exercise); a missing or
    /// non-finite end-to-end metric is a failed check.
    pub fn finish(&mut self, trace: bool) -> Vec<(&'static MetricDef, f64)> {
        let defs: &'static [MetricDef] = if trace {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            let v = match self.metrics.get(d.name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {} not reported", d.name));
                    0.0
                }
            };
            if !v.is_finite() || (!trace && v <= 0.0) {
                self.problems.push(format!(
                    "metric {} = {v} is not a positive finite value",
                    d.name
                ));
            }
            out.push((d, if v.is_finite() { v } else { 0.0 }));
        }
        for name in self.metrics.keys() {
            let declared = spec::END_TO_END.iter().chain(&spec::PER_LAYER);
            if !declared.into_iter().any(|d| d.name == *name) {
                self.problems
                    .push(format!("metric {name} is not declared in BENCHMARK.json"));
            }
        }
        out
    }
}
