//! The benchmark's declaration: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! `--emit-spec`'s output; `tests/smoke.rs` fails when the two differ.

use serde::Value;

/// What one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// The driver's command line, up to the arguments it appends.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// A workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim-coex",
        why: "100k nodes, 4 coexisting networks, 0.1% duty, PDR 0.67: the paper's decoder-limited regime; traffic generation and lock-on dispatch dominate, verdict arithmetic is light",
    },
    Workload {
        name: "sim-dense",
        why: "1M nodes, one network, 1% duty, PDR near 0: saturation stress where the interferer scan dominates and set-up and RSS are large; the twin on which sim-coex must not move",
    },
    Workload {
        name: "svc-bulk",
        why: "loopback Semtech-UDP ingest at 64 rxpk per datagram: per-packet cost (fast parse, routing, dedup) dominates, per-datagram cost is amortised 64 times",
    },
    Workload {
        name: "svc-single",
        why: "same daemon and fleet at 1 rxpk per datagram: syscalls, PUSH_ACK, registry lock and shard hand-off per datagram dominate, parse and dedup are negligible",
    },
    Workload {
        name: "plan-loop",
        why: "the control loop closed across every crate at Fig-21 week-43 scale: the GA solver does most of the work, sim and svc little; the bypass workload for sim and svc changes",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have
/// none.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Every workload reports every end-to-end metric (README.md says what
/// each one means per workload).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Layer = crate name. A workload that does not exercise a layer
/// reports 0 for its metrics.
pub const PER_LAYER: [MetricDef; 76] = [
    lo("sim.traffic_s", "s"),
    lo("sim.traffic_ns_per_tx", "ns"),
    lo("sim.engine_s", "s"),
    lo("sim.shard_wall_max_s", "s"),
    lo("sim.shard_wall_sum_s", "s"),
    lo("sim.shard_imbalance", "ratio"),
    lo("sim.cold_run_s", "s"),
    lo("sim.world_build_s", "s"),
    lo("sim.candidate_visits_per_tx", "count"),
    lo("sim.cull_ratio", "ratio"),
    lo("sim.peak_live", "count"),
    lo("sim.wheel_cascades", "count"),
    lo("sim.accum_folds", "count"),
    hi("sim.shards", "count"),
    hi("sim.txs", "count"),
    hi("sim.pdr", "ratio"),
    lo("sim.run_small_ns_per_event", "ns"),
    lo("gateway.admit_ns", "ns"),
    lo("gateway.end_ns", "ns"),
    lo("gateway.admit_est_share", "ratio"),
    lo("gateway.codec_encode_ns_per_pkt", "ns"),
    lo("gateway.codec_decode_ns_per_pkt", "ns"),
    lo("gateway.fast_parse_ns_per_pkt", "ns"),
    lo("gateway.wire_bytes_per_pkt", "B"),
    lo("lora-mac.frame_encode_ns", "ns"),
    lo("lora-mac.frame_decode_ns", "ns"),
    lo("lora-phy.airtime_ns", "ns"),
    lo("lora-phy.capture_ns", "ns"),
    lo("netserver.dedup_offer_ns", "ns"),
    hi("netserver.dedup_dup_ratio", "ratio"),
    lo("netserver.dedup_tracked_peak", "count"),
    lo("netserver.logparse_ns_per_copy", "ns"),
    lo("netserver.estimator_ns_per_uplink", "ns"),
    hi("netserver.estimator_windows", "count"),
    hi("svc.datagrams_per_s", "1/s"),
    lo("svc.syscall_us_per_datagram", "us"),
    lo("svc.window_stalls", "count"),
    lo("svc.lost_pkts", "count"),
    lo("svc.ack_rtt_p50_us", "us"),
    lo("svc.ack_rtt_p99_us", "us"),
    lo("svc.ack_rtt_hi_p50_us", "us"),
    lo("svc.ack_rtt_hi_p99_us", "us"),
    lo("svc.sender_late_p50_us", "us"),
    lo("svc.sender_late_p99_us", "us"),
    lo("svc.ingest_latency_p50_us", "us"),
    lo("svc.ingest_latency_p99_us", "us"),
    lo("svc.drain_s", "s"),
    lo("svc.decisions_dropped", "count"),
    lo("svc.malformed", "count"),
    lo("svc.decision_divergence", "count"),
    lo("svc.udp_stage_s", "s"),
    lo("svc.plan_fetch_p50_us", "us"),
    hi("svc.plan_fetches", "count"),
    lo("alphawan.problem_build_s", "s"),
    lo("alphawan.solve_s", "s"),
    hi("alphawan.evals", "count"),
    hi("alphawan.evals_per_s", "1/s"),
    lo("alphawan.materialize_s", "s"),
    lo("alphawan.commands_s", "s"),
    lo("alphawan.objective", "score"),
    lo("alphawan.score_ns", "ns"),
    lo("alphawan.incremental_move_ns", "ns"),
    lo("bench.scenario_build_s", "s"),
    lo("plan.loop_s", "s"),
    lo("plan.replan_s", "s"),
    hi("plan.prr_before", "ratio"),
    hi("plan.prr_after", "ratio"),
    hi("plan.planned_nodes", "count"),
    lo("plan.wire_stage_s", "s"),
    lo("plan.log_stage_s", "s"),
    lo("plan.sim_before_s", "s"),
    lo("plan.sim_after_s", "s"),
    lo("obs.trace_overhead_frac", "ratio"),
    hi("trace.coverage", "ratio"),
    hi("trace.spans", "count"),
    hi("bench.timed_reps", "count"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// A JSON object with its keys in the order given.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn metric_value(m: &MetricDef) -> Value {
    let mut fields = vec![
        ("name", s(m.name)),
        ("unit", s(m.unit)),
        ("better", s(m.better.as_str())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Value::F64(b)));
    }
    obj(fields)
}

/// `BENCHMARK.json` as a value tree, keys in the contract's order.
pub fn benchmark_json() -> Value {
    obj(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric_value).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric_value).collect()),
        ),
    ])
}

/// Per-layer metrics that are counts or simulated statistics: for one
/// commit, seed and host core count they repeat exactly.
pub const EXACT_REPEAT: [&str; 14] = [
    "sim.candidate_visits_per_tx",
    "sim.cull_ratio",
    "sim.peak_live",
    "sim.wheel_cascades",
    "sim.accum_folds",
    "sim.shards",
    "sim.txs",
    "sim.pdr",
    "netserver.estimator_windows",
    "alphawan.evals",
    "alphawan.objective",
    "plan.prr_before",
    "plan.prr_after",
    "plan.planned_nodes",
];

/// `BENCHMARK.json`, one workload or metric per line.
pub fn render_benchmark_json() -> String {
    let doc = benchmark_json();
    let fields = doc.as_object().expect("object");
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        let items = value
            .as_array()
            .filter(|a| a.iter().all(|v| v.as_object().is_some()));
        match items {
            Some(items) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    let text = serde_json::to_string(item).expect("serializes");
                    out.push_str(&format!("    {text}{sep}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            None => {
                let text = serde_json::to_string(value).expect("serializes");
                out.push_str(&format!("  \"{key}\": {text}{comma}\n"));
            }
        }
    }
    out.push('}');
    out
}
