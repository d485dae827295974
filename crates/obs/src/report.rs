//! The versioned `RunReport` document: one JSON file per run folding
//! the derived metrics (from [`MetricsSink`]) and the simulator's own
//! aggregate `RunMetrics` together, so a run's outcome and its
//! observability derivatives travel as a single artifact under
//! `results/out/`.
//!
//! The schema is versioned by [`RUN_REPORT_VERSION`]; the field-level
//! contract lives in `docs/OBSERVABILITY.md`. Maps are flattened into
//! sorted `Vec`s of named entries ([`NamedCount`], [`NamedHistogram`])
//! so serialization order is deterministic and stable across runs.

use crate::metrics::MetricsSink;
use serde::{Deserialize, Serialize};

/// Current `RunReport` schema version. Bump on any
/// backwards-incompatible change (field removal/rename, semantics
/// change); additive changes keep the version.
pub const RUN_REPORT_VERSION: u32 = 1;

/// One named counter value (a sorted-map entry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedCount {
    /// Counter name (event kind or derived counter).
    pub name: String,
    /// Final count.
    pub value: u64,
}

/// One named gauge value (a sorted-map entry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedGauge {
    /// Gauge name.
    pub name: String,
    /// Final value.
    pub value: f64,
}

/// One named histogram snapshot (a sorted-map entry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Histogram name (e.g. `dispatch_latency_us`).
    pub name: String,
    /// Upper-inclusive bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one entry longer than `bounds` (overflow
    /// bucket last).
    pub counts: Vec<u64>,
    /// Total samples.
    pub total: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median upper-bound estimate (see `Histogram::quantile`); 0 with
    /// no samples. Defaulted so pre-percentile reports still parse.
    #[serde(default)]
    pub p50: u64,
    /// 95th-percentile upper-bound estimate.
    #[serde(default)]
    pub p95: u64,
    /// 99th-percentile upper-bound estimate.
    #[serde(default)]
    pub p99: u64,
}

/// Per-gateway derived state: occupancy timeline and utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayReport {
    /// Gateway index.
    pub gw: u32,
    /// Decoder pool hardware capacity.
    pub capacity: u32,
    /// Highest concurrent occupancy observed.
    pub peak_in_use: u32,
    /// Mean busy fraction of the pool over the observed span.
    pub utilization: f64,
    /// Occupancy step function: `[t_us, in_use_after]` pairs.
    pub occupancy: Vec<(u64, u32)>,
}

/// The versioned per-run observability document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`RUN_REPORT_VERSION`]).
    pub version: u32,
    /// Experiment name (usually the bench figure / CSV stem).
    pub experiment: String,
    /// Total events the metrics sink consumed.
    pub events_recorded: u64,
    /// All counters, sorted by name.
    pub counters: Vec<NamedCount>,
    /// All gauges, sorted by name.
    pub gauges: Vec<NamedGauge>,
    /// All histograms, sorted by name.
    pub histograms: Vec<NamedHistogram>,
    /// Per-gateway derived state, sorted by gateway index.
    pub gateways: Vec<GatewayReport>,
    /// The simulator's own `sim::metrics::RunMetrics` document, folded
    /// in as a serde value (kept schema-agnostic so `obs` stays a leaf
    /// crate).
    pub run_metrics: Option<serde::Value>,
}

impl RunReport {
    /// An empty report for `experiment` at the current schema version.
    pub fn new(experiment: &str) -> RunReport {
        RunReport {
            version: RUN_REPORT_VERSION,
            experiment: experiment.to_string(),
            events_recorded: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            gateways: Vec::new(),
            run_metrics: None,
        }
    }

    /// Build a report from an aggregating sink's final state.
    pub fn from_metrics(experiment: &str, sink: &MetricsSink) -> RunReport {
        let reg = sink.registry();
        let mut report = RunReport::new(experiment);
        report.events_recorded = sink.events();
        report.counters = reg
            .counters()
            .map(|(name, value)| NamedCount {
                name: name.to_string(),
                value,
            })
            .collect();
        report.gauges = reg
            .gauges()
            .map(|(name, value)| NamedGauge {
                name: name.to_string(),
                value,
            })
            .collect();
        report.histograms = reg
            .histograms()
            .map(|(name, h)| NamedHistogram {
                name: name.to_string(),
                bounds: h.bounds().to_vec(),
                counts: h.counts().to_vec(),
                total: h.total(),
                sum: h.sum(),
                p50: h.p50(),
                p95: h.p95(),
                p99: h.p99(),
            })
            .collect();
        report.gateways = sink
            .gateways()
            .iter()
            .map(|(&gw, occ)| GatewayReport {
                gw,
                capacity: occ.capacity,
                peak_in_use: occ.peak_in_use,
                utilization: occ.utilization(),
                occupancy: occ.timeline.clone(),
            })
            .collect();
        report
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunReport serialization is infallible")
    }

    /// Write the report as JSON to `path`, creating parent directories.
    /// The bytes land in a `.partial` sibling first and are renamed
    /// into place, so a crash mid-write never leaves a truncated
    /// report behind.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(crate::sink::PARTIAL_SUFFIX);
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use crate::sink::ObsSink;

    fn populated_sink() -> MetricsSink {
        let mut m = MetricsSink::new();
        m.record(&ObsEvent::DecoderAcquired {
            t_us: 0,
            trace: 0,
            gw: 1,
            tx: 5,
            in_use: 1,
            capacity: 16,
        });
        m.record(&ObsEvent::DecoderReleased {
            t_us: 80_000,
            trace: 0,
            gw: 1,
            tx: 5,
            in_use: 0,
        });
        m.record(&ObsEvent::PacketOutcome {
            t_us: 80_000,
            trace: 0,
            tx: 5,
            delivered: true,
            cause: None,
        });
        m
    }

    #[test]
    fn report_folds_sink_state() {
        let r = RunReport::from_metrics("fig03", &populated_sink());
        assert_eq!(r.version, RUN_REPORT_VERSION);
        assert_eq!(r.experiment, "fig03");
        assert_eq!(r.events_recorded, 3);
        assert!(r
            .counters
            .iter()
            .any(|c| c.name == "delivered" && c.value == 1));
        assert_eq!(r.gateways.len(), 1);
        assert_eq!(r.gateways[0].gw, 1);
        assert_eq!(r.gateways[0].peak_in_use, 1);
        assert_eq!(r.gateways[0].occupancy, vec![(0, 1), (80_000, 0)]);
        let h = &r.histograms[0];
        assert_eq!(h.name, "dispatch_latency_us");
        assert_eq!(h.total, 1);
        assert_eq!(h.sum, 80_000);
        // The single 80 000 µs sample is every percentile.
        assert_eq!((h.p50, h.p95, h.p99), (80_000, 80_000, 80_000));
    }

    #[test]
    fn pre_percentile_reports_still_parse() {
        let old =
            r#"{"name":"dispatch_latency_us","bounds":[10],"counts":[1,0],"total":1,"sum":4}"#;
        let h: NamedHistogram = serde_json::from_str(old).unwrap();
        assert_eq!((h.p50, h.p95, h.p99), (0, 0, 0), "defaulted");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = RunReport::from_metrics("fig05", &populated_sink());
        #[derive(Serialize)]
        struct Fake {
            prr: f64,
        }
        r.run_metrics = Some(Fake { prr: 0.93 }.to_value());
        let s = r.to_json();
        let back: RunReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
        assert!(s.contains("\"prr\""), "folded run metrics serialize: {s}");
    }

    #[test]
    fn report_serialization_is_deterministic() {
        let a = RunReport::from_metrics("x", &populated_sink()).to_json();
        let b = RunReport::from_metrics("x", &populated_sink()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn report_writes_to_disk() {
        let dir = std::env::temp_dir().join("obs_report_test");
        let path = dir.join("nested").join("report.json");
        let r = RunReport::new("empty");
        r.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
