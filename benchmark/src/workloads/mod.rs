//! The five workloads. Sizes are frozen in each module's `sizes`.

pub mod micro;
pub mod plan;
pub mod sim;
pub mod svc;

use crate::harness::{Outcome, RunCfg, Tracer};

/// Run one workload in this process.
pub fn run(workload: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    match workload {
        "sim-coex" | "sim-dense" => sim::run(workload, cfg, tracer),
        "svc-bulk" | "svc-single" => svc::run(workload, cfg, tracer),
        "plan-loop" => plan::run(cfg, tracer),
        other => panic!("unknown workload {other}"),
    }
}
