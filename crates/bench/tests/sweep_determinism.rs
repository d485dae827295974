//! Worker-count invariance of the parallel sweep executor: the same
//! job set run serially and over N workers must produce identical
//! result vectors AND byte-identical per-job observability JSONL —
//! the guarantee every `fig*` sweep stands on when `SweepRunner` fans
//! it out.

use bench::sweep::SweepRunner;
use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use obs::JsonlSink;
use sim::topology::Topology;
use sim::traffic::duty_cycled;
use sim::world::SimWorld;
use std::path::PathBuf;

const JOBS: usize = 8;

fn channels() -> Vec<Channel> {
    ChannelGrid::standard(916_800_000, 1_600_000).channels()
}

/// A per-job world: the job index seeds the topology and skews the
/// workload, so every job is a distinct, index-pure simulation.
fn build_world(job: usize) -> SimWorld {
    let model = PathLossModel {
        shadowing_sigma_db: 2.0,
        ..Default::default()
    };
    let mut topo = Topology::new((600.0, 500.0), 24, 2, model, 1_000 + job as u64);
    topo.clamp_loss(108.0, f64::INFINITY);
    let profile = GatewayProfile::rak7268cv2();
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels()).unwrap(),
            )
        })
        .collect();
    SimWorld::new(topo, vec![1; 24], gateways)
}

/// One job: an instrumented run whose JSONL goes to a job-unique temp
/// file (tagged by `label` so the serial and parallel passes never
/// collide). Returns (delivered count, the stream's exact bytes).
fn run_job(job: usize, label: &str) -> (usize, Vec<u8>) {
    let chans = channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..24)
        .map(|i| {
            (
                i,
                chans[(i + job) % 8],
                DataRate::from_index(3 + (i + job) % 3).unwrap(),
            )
        })
        .collect();
    let plans = duty_cycled(&assigns, 23, 0.05, 10_000_000, 40 + job as u64);

    let path: PathBuf =
        std::env::temp_dir().join(format!("alphawan-sweep-determinism-{label}-{job}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let delivered = {
        let sink = JsonlSink::create(&path).expect("temp dir writable");
        let mut world = build_world(job);
        world.set_obs_sink(Box::new(sink));
        let records = world.run(&plans);
        records.iter().filter(|r| r.delivered).count()
        // Dropping the world drops the sink, flushing buffered lines.
    };
    let bytes = std::fs::read(&path).expect("stream written");
    let _ = std::fs::remove_file(&path);
    (delivered, bytes)
}

#[test]
fn sweep_output_is_worker_count_invariant() {
    let serial = SweepRunner::new(1).run(JOBS, |i| run_job(i, "serial"));
    let parallel = SweepRunner::new(4).run(JOBS, |i| run_job(i, "parallel"));

    assert_eq!(serial.len(), JOBS);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "job {i}: delivered counts diverged");
        assert_eq!(s.1, p.1, "job {i}: obs JSONL not byte-identical");
        assert!(!s.1.is_empty(), "job {i}: instrumented run emitted nothing");
    }
    // The jobs are genuinely distinct simulations, not copies of one.
    assert!(
        serial.windows(2).any(|w| w[0].1 != w[1].1),
        "every job produced the same stream — the sweep is degenerate"
    );
}
