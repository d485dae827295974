//! A dependency-free metrics registry and the event-stream aggregator.
//!
//! [`Registry`] holds named counters, gauges and fixed-bucket
//! [`Histogram`]s in sorted maps so every snapshot serializes in a
//! deterministic order. [`MetricsSink`] implements
//! [`ObsSink`] and folds the raw event stream
//! into the derived quantities the paper's analysis needs: per-gateway
//! decoder-occupancy timelines (the quantity behind the decoder
//! contention losses of Fig. 4), per-gateway utilization, and a
//! dispatch-latency histogram (how long each decoder was held).

use crate::event::ObsEvent;
use crate::sink::ObsSink;
use std::collections::{BTreeMap, HashMap};

/// Default bucket upper bounds (µs) for the dispatch-latency histogram:
/// spans LoRa airtimes from a short SF7 frame (~50 ms) to a max-length
/// SF12 frame (~3 s).
pub const DISPATCH_LATENCY_BOUNDS_US: [u64; 8] = [
    25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
];

/// Bucket upper bounds (µs) for the CP-solver wall-time histogram:
/// spans a sub-millisecond toy instance to a minute-scale
/// production-size search.
pub const SOLVER_WALL_BOUNDS_US: [u64; 8] = [
    1_000, 10_000, 100_000, 500_000, 1_000_000, 5_000_000, 15_000_000, 60_000_000,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets use upper-inclusive bounds (Prometheus `le` semantics): a
/// sample lands in the first bucket whose bound is ≥ the sample; samples
/// above the last bound land in the implicit overflow bucket, so
/// `counts` has `bounds.len() + 1` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given strictly-increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper-bound estimate of quantile `q` ∈ [0, 1]: the bound of the
    /// first bucket whose cumulative count reaches `⌈q·total⌉`, capped
    /// at the largest sample actually observed (so a histogram whose
    /// samples all fit the first bucket does not report that bucket's
    /// full width). Samples in the overflow bucket resolve to the max.
    /// Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return match self.bounds.get(i) {
                    Some(&b) => b.min(self.max),
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }

    /// Median upper-bound estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper-bound estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper-bound estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Named counters, gauges and histograms with deterministic iteration
/// order (sorted by name).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to counter `name` (creating it at zero). Like
    /// [`Registry::observe`] and [`Registry::set_gauge`], allocates only
    /// the first time a name is seen: daemons call these per datagram.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Read counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Record `v` into histogram `name`, creating it with `bounds` on
    /// first use.
    pub fn observe(&mut self, name: &str, bounds: &[u64], v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Read histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per metric, histogram buckets
    /// as cumulative `_bucket{le="…"}` series ending in `+Inf`, plus
    /// `_sum` and `_count`. Metric names are sanitized to
    /// `[a-zA-Z0-9_:]` (anything else becomes `_`). Output order is the
    /// registries' sorted iteration order, so two identical registries
    /// render byte-identically — scrape endpoints stay diffable.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in self.counters() {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in self.gauges() {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in self.histograms() {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (i, &c) in h.counts().iter().enumerate() {
                cum += c;
                match h.bounds().get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.total());
        }
        out
    }
}

/// Point-in-time process memory reading from `/proc/self/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcMem {
    /// Resident set size, bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Peak resident set size, bytes (`VmHWM`).
    pub peak_rss_bytes: u64,
}

/// Read the current process's RSS and peak RSS from
/// `/proc/self/status`. Returns `None` on platforms without procfs or
/// if the fields are missing — callers treat memory telemetry as
/// best-effort.
pub fn proc_mem() -> Option<ProcMem> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<u64> {
        status
            .lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse::<u64>()
            .ok()
            .map(|kb| kb * 1024)
    };
    Some(ProcMem {
        rss_bytes: field("VmRSS:")?,
        peak_rss_bytes: field("VmHWM:")?,
    })
}

impl Registry {
    /// Sample process memory into the `process_rss_bytes` /
    /// `process_peak_rss_bytes` gauges (no-op where procfs is
    /// unavailable). Returns the reading.
    pub fn sample_process_memory(&mut self) -> Option<ProcMem> {
        let mem = proc_mem()?;
        self.set_gauge("process_rss_bytes", mem.rss_bytes as f64);
        self.set_gauge("process_peak_rss_bytes", mem.peak_rss_bytes as f64);
        Some(mem)
    }
}

/// Sanitize a metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Per-gateway occupancy bookkeeping derived from decoder events.
#[derive(Debug, Clone, Default)]
pub struct GatewayOccupancy {
    /// Pool capacity as reported by acquisition events.
    pub capacity: u32,
    /// Step function of pool occupancy: (time µs, decoders in use
    /// *after* the event). Consecutive events at one instant each get a
    /// point; plotters draw steps.
    pub timeline: Vec<(u64, u32)>,
    /// Highest occupancy observed.
    pub peak_in_use: u32,
    /// ∫ in_use dt over the observed span, in decoder-µs.
    busy_integral: u128,
    /// Observed span: sum of forward inter-event gaps, in µs. One
    /// sink may aggregate several runs whose simulation clocks each
    /// restart at zero; a backwards time jump contributes nothing to
    /// either integral, so utilization stays a true busy fraction.
    observed_us: u128,
    first_t: Option<u64>,
    last_t: u64,
    last_in_use: u32,
}

impl GatewayOccupancy {
    fn step(&mut self, t_us: u64, in_use: u32) {
        if self.first_t.is_none() {
            self.first_t = Some(t_us);
        } else {
            let dt = t_us.saturating_sub(self.last_t);
            self.busy_integral += dt as u128 * self.last_in_use as u128;
            self.observed_us += dt as u128;
        }
        self.last_t = t_us;
        self.last_in_use = in_use;
        self.peak_in_use = self.peak_in_use.max(in_use);
        self.timeline.push((t_us, in_use));
    }

    /// Mean fraction of the pool busy over the observed span
    /// (`∫ in_use dt / (capacity · span)`), 0 when nothing was observed.
    pub fn utilization(&self) -> f64 {
        if self.observed_us == 0 || self.capacity == 0 {
            return 0.0;
        }
        self.busy_integral as f64 / (self.capacity as f64 * self.observed_us as f64)
    }
}

/// An [`ObsSink`] that aggregates the event stream into a [`Registry`]
/// plus per-gateway occupancy state. Attach it (directly, or behind a
/// [`SharedSink`](crate::sink::SharedSink)) and read the results back as
/// a [`RunReport`](crate::report::RunReport) via
/// [`RunReport::from_metrics`](crate::report::RunReport::from_metrics).
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    registry: Registry,
    gateways: BTreeMap<u32, GatewayOccupancy>,
    /// Acquisition instant of each decoder currently held, keyed by
    /// (gateway, transmission) — feeds the dispatch-latency histogram.
    held: HashMap<(u32, u64), u64>,
    events: u64,
}

impl MetricsSink {
    /// An empty aggregator.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The aggregated registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-gateway occupancy state, keyed by gateway index.
    pub fn gateways(&self) -> &BTreeMap<u32, GatewayOccupancy> {
        &self.gateways
    }
}

impl ObsSink for MetricsSink {
    fn record(&mut self, ev: &ObsEvent) {
        self.events += 1;
        self.registry.inc(ev.kind_name(), 1);
        match *ev {
            ObsEvent::GatewayInfo { gw, capacity, .. } => {
                // Announce the pool size up front so utilization is
                // well-defined even for a gateway that never admits.
                self.gateways.entry(gw).or_default().capacity = capacity;
            }
            ObsEvent::DecoderAcquired {
                t_us,
                gw,
                tx,
                in_use,
                capacity,
                ..
            } => {
                let occ = self.gateways.entry(gw).or_default();
                occ.capacity = capacity;
                occ.step(t_us, in_use);
                self.held.insert((gw, tx), t_us);
            }
            ObsEvent::DecoderReleased {
                t_us,
                gw,
                tx,
                in_use,
                ..
            } => {
                let occ = self.gateways.entry(gw).or_default();
                occ.step(t_us, in_use);
                if let Some(t0) = self.held.remove(&(gw, tx)) {
                    self.registry.observe(
                        "dispatch_latency_us",
                        &DISPATCH_LATENCY_BOUNDS_US,
                        t_us.saturating_sub(t0),
                    );
                }
            }
            ObsEvent::PacketOutcome {
                delivered, cause, ..
            } => {
                if delivered {
                    self.registry.inc("delivered", 1);
                } else {
                    self.registry.inc("lost", 1);
                    if let Some(kind) = cause {
                        self.registry.inc(&format!("loss_{kind:?}"), 1);
                    }
                }
            }
            ObsEvent::Dedup { outcome, .. } => {
                self.registry.inc(&format!("dedup_{outcome:?}"), 1);
            }
            ObsEvent::MasterPlanServed { source, .. } => {
                self.registry.inc(&format!("master_plan_{source:?}"), 1);
            }
            ObsEvent::SolverRun {
                solver,
                evaluations,
                wall_us,
                ..
            } => {
                self.registry.inc(&format!("solver_{solver:?}_runs"), 1);
                self.registry.inc("solver_evaluations", evaluations);
                self.registry
                    .observe("solver_wall_us", &SOLVER_WALL_BOUNDS_US, wall_us);
                if wall_us > 0 {
                    self.registry.set_gauge(
                        "solver_evals_per_sec",
                        evaluations as f64 / (wall_us as f64 / 1e6),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DedupKind, LossKind, SolverKind};

    #[test]
    fn histogram_bucket_edges_are_upper_inclusive() {
        let mut h = Histogram::new(&[10, 20]);
        h.observe(0); // first bucket
        h.observe(10); // exactly on the first bound → first bucket
        h.observe(11); // second bucket
        h.observe(20); // exactly on the last bound → second bucket
        h.observe(21); // overflow
        assert_eq!(h.counts(), &[2, 2, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 62);
        assert!((h.mean() - 12.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_single_bucket_and_overflow() {
        let mut h = Histogram::new(&[5]);
        h.observe(5);
        h.observe(6);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_empty_bounds() {
        Histogram::new(&[]);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut r = Registry::new();
        r.inc("a", 2);
        r.inc("a", 3);
        r.set_gauge("g", 1.5);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauges().collect::<Vec<_>>(), vec![("g", 1.5)]);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a"], "sorted, deterministic iteration");
    }

    fn acquire(t: u64, gw: u32, tx: u64, in_use: u32) -> ObsEvent {
        ObsEvent::DecoderAcquired {
            t_us: t,
            trace: 0,
            gw,
            tx,
            in_use,
            capacity: 16,
        }
    }

    fn release(t: u64, gw: u32, tx: u64, in_use: u32) -> ObsEvent {
        ObsEvent::DecoderReleased {
            t_us: t,
            trace: 0,
            gw,
            tx,
            in_use,
        }
    }

    #[test]
    fn occupancy_timeline_and_utilization() {
        let mut m = MetricsSink::new();
        // One decoder busy from t=0 to t=100, then two from 100..200,
        // then zero: ∫ in_use dt = 1·100 + 2·100 = 300 decoder-µs over
        // a 200 µs span of a 16-decoder pool.
        m.record(&acquire(0, 0, 1, 1));
        m.record(&acquire(100, 0, 2, 2));
        m.record(&release(200, 0, 1, 1));
        m.record(&release(200, 0, 2, 0));
        let occ = &m.gateways()[&0];
        assert_eq!(occ.timeline, vec![(0, 1), (100, 2), (200, 1), (200, 0)]);
        assert_eq!(occ.peak_in_use, 2);
        assert!((occ.utilization() - 300.0 / (16.0 * 200.0)).abs() < 1e-12);
        // Dispatch latency: tx 1 held 200 µs, tx 2 held 100 µs.
        let h = m.registry().histogram("dispatch_latency_us").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.sum(), 300);
    }

    #[test]
    fn utilization_survives_clock_restarts() {
        // One sink fed by two runs whose simulation clocks both start
        // near zero (the bench harness aggregates a whole process).
        // The backwards jump between runs must not inflate utilization
        // past the true busy fraction.
        let mut m = MetricsSink::new();
        for _run in 0..2 {
            m.record(&acquire(1_000, 0, 1, 1));
            m.record(&release(2_000, 0, 1, 0));
        }
        let occ = &m.gateways()[&0];
        // Each run: 1 decoder busy for 1 000 of 1 000 observed µs.
        assert!((occ.utilization() - 2_000.0 / (16.0 * 2_000.0)).abs() < 1e-12);
        assert!(occ.utilization() <= 1.0);
    }

    #[test]
    fn outcome_and_dedup_counters() {
        let mut m = MetricsSink::new();
        m.record(&ObsEvent::PacketOutcome {
            t_us: 1,
            trace: 0,
            tx: 0,
            delivered: true,
            cause: None,
        });
        m.record(&ObsEvent::PacketOutcome {
            t_us: 2,
            trace: 0,
            tx: 1,
            delivered: false,
            cause: Some(LossKind::DecoderInter),
        });
        m.record(&ObsEvent::Dedup {
            t_us: 3,
            trace: 0,
            dev: 1,
            fcnt: 0,
            gw: 0,
            outcome: DedupKind::Late,
        });
        assert_eq!(m.registry().counter("delivered"), 1);
        assert_eq!(m.registry().counter("lost"), 1);
        assert_eq!(m.registry().counter("loss_DecoderInter"), 1);
        assert_eq!(m.registry().counter("dedup_Late"), 1);
        assert_eq!(m.registry().counter("packet_outcome"), 2);
        assert_eq!(m.events(), 3);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds_capped_by_max() {
        let mut h = Histogram::new(&[10, 100, 1_000]);
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 600] {
            h.observe(v);
        }
        // 9 of 10 samples sit in the ≤10 bucket: p50 resolves to that
        // bucket's bound.
        assert_eq!(h.p50(), 10);
        // p95 needs the 10th sample, which sits in the ≤1000 bucket;
        // the cap trims the estimate to the observed max.
        assert_eq!(h.p95(), 600);
        assert_eq!(h.p99(), 600);
        assert_eq!(h.quantile(1.0), 600);
    }

    #[test]
    fn quantiles_on_empty_and_overflow() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let mut h = Histogram::new(&[10]);
        h.observe(5_000); // overflow bucket
        assert_eq!(h.p50(), 5_000, "overflow resolves to the observed max");
        // All samples below the first bound: the cap keeps the estimate
        // at the true max instead of the bucket's full width.
        let mut h = Histogram::new(&[1_000_000]);
        h.observe(3);
        h.observe(4);
        assert_eq!(h.p99(), 4);
    }

    #[test]
    fn prometheus_exposition_format() {
        let mut r = Registry::new();
        r.inc("delivered", 42);
        r.inc("loss_DecoderInter", 3);
        r.set_gauge("gw0_utilization", 0.25);
        r.observe("latency_us", &[10, 20], 5);
        r.observe("latency_us", &[10, 20], 15);
        r.observe("latency_us", &[10, 20], 99);
        let text = r.render_prometheus();
        let expected = "\
# TYPE delivered counter
delivered 42
# TYPE loss_DecoderInter counter
loss_DecoderInter 3
# TYPE gw0_utilization gauge
gw0_utilization 0.25
# TYPE latency_us histogram
latency_us_bucket{le=\"10\"} 1
latency_us_bucket{le=\"20\"} 2
latency_us_bucket{le=\"+Inf\"} 3
latency_us_sum 119
latency_us_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_sanitizes_names() {
        let mut r = Registry::new();
        r.inc("loss/decoder-inter", 1);
        r.inc("9lives", 1);
        let text = r.render_prometheus();
        assert!(text.contains("loss_decoder_inter 1"));
        assert!(text.contains("_9lives 1"), "{text}");
        assert!(!text.contains('/'));
    }

    #[test]
    fn process_memory_gauges_on_linux() {
        // Linux-only assertion; elsewhere proc_mem is allowed to be None.
        if let Some(mem) = proc_mem() {
            assert!(mem.rss_bytes > 0);
            assert!(mem.peak_rss_bytes >= mem.rss_bytes);
            let mut r = Registry::new();
            let sampled = r.sample_process_memory().unwrap();
            let gauge = |name: &str| r.gauges().find(|&(n, _)| n == name).map(|(_, v)| v);
            assert!(gauge("process_rss_bytes").unwrap() > 0.0);
            let peak = gauge("process_peak_rss_bytes").unwrap();
            assert!(peak >= sampled.rss_bytes as f64 * 0.5, "peak {peak} sane");
        }
    }

    #[test]
    fn gateway_info_seeds_capacity() {
        let mut m = MetricsSink::new();
        m.record(&ObsEvent::GatewayInfo {
            gw: 3,
            network: 1,
            capacity: 8,
        });
        assert_eq!(m.gateways()[&3].capacity, 8);
        assert_eq!(m.registry().counter("gateway_info"), 1);
    }

    #[test]
    fn registry_gauge_overwrites_and_histogram_keeps_first_bounds() {
        let mut r = Registry::new();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", -2.5);
        assert_eq!(r.gauges().collect::<Vec<_>>(), vec![("g", -2.5)]);
        r.observe("h", &[10], 5);
        // Later bounds are ignored: the histogram was sized on first use.
        r.observe("h", &[1, 2, 3], 50);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.bounds(), &[10]);
        assert_eq!(h.counts(), &[1, 1]);
        assert!(r.histogram("never").is_none());
    }

    #[test]
    fn prometheus_render_ignores_insertion_order() {
        let mut a = Registry::new();
        a.inc("zeta", 1);
        a.inc("alpha", 2);
        a.set_gauge("mid", 0.5);
        a.observe("lat", &[10], 3);
        let mut b = Registry::new();
        b.observe("lat", &[10], 3);
        b.set_gauge("mid", 0.5);
        b.inc("alpha", 2);
        b.inc("zeta", 1);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert!(a.render_prometheus().starts_with("# TYPE alpha counter\n"));
        assert_eq!(Registry::new().render_prometheus(), "");
    }

    #[test]
    fn process_memory_renders_as_gauges() {
        let mut r = Registry::new();
        match r.sample_process_memory() {
            Some(_) => {
                let text = r.render_prometheus();
                assert!(text.contains("# TYPE process_rss_bytes gauge\n"), "{text}");
                assert!(text.contains("# TYPE process_peak_rss_bytes gauge\n"));
                assert!(text.lines().any(|l| l.starts_with("process_rss_bytes ")));
            }
            None => assert_eq!(r.gauges().count(), 0, "no procfs, no gauges"),
        }
    }

    #[test]
    fn release_without_acquire_records_no_latency() {
        let mut m = MetricsSink::new();
        m.record(&release(500, 2, 9, 0));
        assert!(m.registry().histogram("dispatch_latency_us").is_none());
        assert_eq!(m.gateways()[&2].timeline, vec![(500, 0)]);
        // A release is paired with its own acquisition only.
        m.record(&acquire(600, 2, 10, 1));
        m.record(&release(700, 2, 11, 0));
        assert!(m.registry().histogram("dispatch_latency_us").is_none());
        m.record(&release(900, 2, 10, 0));
        assert_eq!(
            m.registry().histogram("dispatch_latency_us").unwrap().sum(),
            300
        );
    }

    #[test]
    fn solver_runs_feed_wall_histogram_and_rate_gauge() {
        let mut m = MetricsSink::new();
        let run = |solver, evaluations, wall_us| ObsEvent::SolverRun {
            trace: 0,
            solver,
            nodes: 10,
            gateways: 2,
            evaluations,
            generations: 5,
            workers: 1,
            wall_us,
        };
        m.record(&run(SolverKind::Ga, 1_000, 500_000));
        m.record(&run(SolverKind::Anneal, 400, 0)); // no rate from a zero wall
        let r = m.registry();
        assert_eq!(r.counter("solver_Ga_runs"), 1);
        assert_eq!(r.counter("solver_Anneal_runs"), 1);
        assert_eq!(r.counter("solver_evaluations"), 1_400);
        assert_eq!(r.counter("solver_run"), 2);
        let h = r.histogram("solver_wall_us").unwrap();
        assert_eq!(h.bounds(), &SOLVER_WALL_BOUNDS_US);
        assert_eq!((h.total(), h.sum()), (2, 500_000));
        let rate = r.gauges().find(|&(n, _)| n == "solver_evals_per_sec");
        assert_eq!(rate, Some(("solver_evals_per_sec", 2_000.0)));
    }

    #[test]
    fn utilization_is_zero_without_an_observed_span() {
        let mut m = MetricsSink::new();
        m.record(&ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 8,
        });
        assert_eq!(m.gateways()[&0].utilization(), 0.0);
        // One event opens the span but covers no time yet.
        m.record(&acquire(100, 0, 1, 1));
        assert_eq!(m.gateways()[&0].utilization(), 0.0);
        m.record(&release(300, 0, 1, 0));
        assert!((m.gateways()[&0].utilization() - 1.0 / 16.0).abs() < 1e-12);
    }
}
