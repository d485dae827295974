//! The versioned service report `loadgen` prints to stdout.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "mode": "smoke",
//!   "sustained_pps": 612345.6,
//!   "sent_pkts": 1500000, "ingested_pkts": 1498000,
//!   "sent_datagrams": 23438, "acked_datagrams": 23410,
//!   "ingest_latency_us": {"p50": 100, "p95": 500, "p99": 2500},
//!   "ack_rtt_us": {"p50": 250, "p95": 1000, "p99": 2500},
//!   "plan_serve_latency_us": {"p50": 100, "p95": 250, "p99": 500},
//!   "plan_fetches": 12, "plan_cached": 0,
//!   "dedup": {"new": 500000, "duplicate": 990000, "late": 8000},
//!   "decision_divergence": 0
//! }
//! ```
//!
//! Consumers (the CI `service-smoke` job, plotting scripts) must accept
//! unknown additional keys but can rely on every key above existing for
//! `schema_version == 1`.

use obs::Histogram;

/// Bump when a key above changes meaning or disappears.
pub const BENCH_SERVICE_SCHEMA_VERSION: u32 = 1;

/// p50/p95/p99 snapshot of a histogram (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyQuantiles {
    /// Median, µs.
    pub p50: u64,
    /// 95th percentile, µs.
    pub p95: u64,
    /// 99th percentile, µs.
    pub p99: u64,
}

impl LatencyQuantiles {
    /// Snapshot a histogram's quantiles; all-zero with no samples.
    pub fn of(h: &Histogram) -> LatencyQuantiles {
        LatencyQuantiles {
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            self.p50, self.p95, self.p99
        )
    }
}

/// Everything the service report records.
#[derive(Debug, Clone, Default)]
pub struct ServiceBench {
    /// loadgen's `--mode` label (`"smoke"` by default, `"ci-smoke"` in CI).
    pub mode: String,
    /// Packets the daemon ingested per wall-clock second, measured
    /// over the window from first to last ingest.
    pub sustained_pps: f64,
    /// Rxpk packets the load generator offered.
    pub sent_pkts: u64,
    /// Packets the daemon's dedup pipeline actually processed.
    pub ingested_pkts: u64,
    /// PUSH_DATA datagrams the load generator sent.
    pub sent_datagrams: u64,
    /// PUSH_ACK responses the load generator got back.
    pub acked_datagrams: u64,
    /// Socket-receive to dedup-decision latency quantiles.
    pub ingest_latency_us: LatencyQuantiles,
    /// Client-observed PUSH_DATA→ACK round-trip quantiles.
    pub ack_rtt_us: LatencyQuantiles,
    /// Master plan-serve latency quantiles.
    pub plan_serve_latency_us: LatencyQuantiles,
    /// Plan requests served by the Master daemon.
    pub plan_fetches: u64,
    /// Plan requests answered from the client-side cache.
    pub plan_cached: u64,
    /// Dedup decisions: first copy of a frame.
    pub dedup_new: u64,
    /// Dedup decisions: extra copy inside the merge window.
    pub dedup_duplicate: u64,
    /// Dedup decisions: copy arriving after the window closed.
    pub dedup_late: u64,
    /// Logged decisions whose outcome differed from the in-process
    /// replay — must be 0.
    pub decision_divergence: u64,
}

impl ServiceBench {
    /// Render the versioned JSON document.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"schema_version\": {},\n",
                "  \"mode\": \"{}\",\n",
                "  \"sustained_pps\": {:.1},\n",
                "  \"sent_pkts\": {},\n",
                "  \"ingested_pkts\": {},\n",
                "  \"sent_datagrams\": {},\n",
                "  \"acked_datagrams\": {},\n",
                "  \"ingest_latency_us\": {},\n",
                "  \"ack_rtt_us\": {},\n",
                "  \"plan_serve_latency_us\": {},\n",
                "  \"plan_fetches\": {},\n",
                "  \"plan_cached\": {},\n",
                "  \"dedup\": {{\"new\": {}, \"duplicate\": {}, \"late\": {}}},\n",
                "  \"decision_divergence\": {}\n",
                "}}\n"
            ),
            BENCH_SERVICE_SCHEMA_VERSION,
            self.mode,
            self.sustained_pps,
            self.sent_pkts,
            self.ingested_pkts,
            self.sent_datagrams,
            self.acked_datagrams,
            self.ingest_latency_us.json(),
            self.ack_rtt_us.json(),
            self.plan_serve_latency_us.json(),
            self.plan_fetches,
            self.plan_cached,
            self.dedup_new,
            self.dedup_duplicate,
            self.dedup_late,
            self.decision_divergence,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_every_versioned_key() {
        let bench = ServiceBench {
            mode: "smoke".into(),
            sustained_pps: 1234.5,
            sent_pkts: 10,
            ..ServiceBench::default()
        };
        let json = bench.to_json();
        for key in [
            "schema_version",
            "mode",
            "sustained_pps",
            "sent_pkts",
            "ingested_pkts",
            "sent_datagrams",
            "acked_datagrams",
            "ingest_latency_us",
            "ack_rtt_us",
            "plan_serve_latency_us",
            "plan_fetches",
            "plan_cached",
            "dedup",
            "decision_divergence",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"sustained_pps\": 1234.5"));
    }

    #[test]
    fn json_parses_back() {
        let json = ServiceBench::default().to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let obj = v.as_object().expect("top-level object");
        assert!(matches!(
            serde::field(obj, "schema_version"),
            serde::Value::U64(v) if *v == BENCH_SERVICE_SCHEMA_VERSION as u64
        ));
        let dedup = serde::field(obj, "dedup")
            .as_object()
            .expect("dedup object");
        assert!(!serde::field(dedup, "new").is_null());
    }

    #[test]
    fn json_parses_back_to_the_values_given() {
        let q = |base: u64| LatencyQuantiles {
            p50: base,
            p95: base + 1,
            p99: base + 2,
        };
        let bench = ServiceBench {
            mode: "ci-smoke".into(),
            sustained_pps: 612_345.6,
            sent_pkts: 1_500_000,
            ingested_pkts: 1_498_000,
            sent_datagrams: 23_438,
            acked_datagrams: 23_410,
            ingest_latency_us: q(100),
            ack_rtt_us: q(200),
            plan_serve_latency_us: q(300),
            plan_fetches: 12,
            plan_cached: 3,
            dedup_new: 500_000,
            dedup_duplicate: 990_000,
            dedup_late: 8_000,
            decision_divergence: 7,
        };
        let v: serde::Value = serde_json::from_str(&bench.to_json()).expect("valid JSON");
        let obj = v.as_object().expect("top-level object");
        let num = |obj: &[(String, serde::Value)], key: &str| match serde::field(obj, key) {
            serde::Value::U64(n) => *n,
            other => panic!("{key}: {other:?}"),
        };
        assert!(matches!(serde::field(obj, "mode"), serde::Value::Str(m) if m == "ci-smoke"));
        assert!(matches!(
            serde::field(obj, "sustained_pps"),
            serde::Value::F64(pps) if *pps == 612_345.6
        ));
        for (key, want) in [
            ("sent_pkts", 1_500_000),
            ("ingested_pkts", 1_498_000),
            ("sent_datagrams", 23_438),
            ("acked_datagrams", 23_410),
            ("plan_fetches", 12),
            ("plan_cached", 3),
            ("decision_divergence", 7),
        ] {
            assert_eq!(num(obj, key), want, "{key}");
        }
        for (key, base) in [
            ("ingest_latency_us", 100),
            ("ack_rtt_us", 200),
            ("plan_serve_latency_us", 300),
        ] {
            let qs = serde::field(obj, key).as_object().expect(key);
            assert_eq!(
                [num(qs, "p50"), num(qs, "p95"), num(qs, "p99")],
                [base, base + 1, base + 2],
                "{key}"
            );
        }
        let dedup = serde::field(obj, "dedup").as_object().expect("dedup");
        assert_eq!(
            [
                num(dedup, "new"),
                num(dedup, "duplicate"),
                num(dedup, "late")
            ],
            [500_000, 990_000, 8_000]
        );
    }

    #[test]
    fn quantiles_snapshot() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1u64, 2, 3, 50] {
            h.observe(v);
        }
        let q = LatencyQuantiles::of(&h);
        assert_eq!(q.p50, 10);
        assert_eq!(q.p99, 50);
    }
}
