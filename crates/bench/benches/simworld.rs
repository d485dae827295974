//! End-to-end simulation scaling: the spec loop vs the engine.
//!
//! Builds identical worlds (heterogeneous gateway listening sets over a
//! US915-scale 64-channel band, duty-cycled traffic) and runs the same
//! workload through:
//!
//! * `sim::reference::run_with_faults_reference` — the executable
//!   specification, a verbatim replica of the seed event loop;
//! * `SimWorld::run_sharded` / `run_streamed` — the engine
//!   (`sim::shard`): channel shards, compact per-shard link tables,
//!   slot recycling and chunked workload feeding.
//!
//! **Exact points** (144 / 10k / 100k nodes) assert both produce
//! record-for-record identical output and identical gateway stats
//! before reporting anything. The **streamed points** (1M and 10M nodes)
//! cannot afford per-packet records, so each runs the workload twice —
//! N shards and 1 shard — and applies the statistical-equivalence gate
//! (`RunSummary::statistically_equivalent`): the two aggregate
//! summaries must agree exactly, because shard count is proven not to
//! change results at small scale (see `docs/SCALING.md`).
//!
//! Writes the machine-readable `BENCH_sim.json` artifact
//! (`schema_version: 5`) through the obs session writer, falling back
//! to `results/out/` when no `--obs-out` session is active.
//!
//! Pass `--quick` for the CI perf-smoke configuration: the 144-node
//! exact point plus short-horizon 1M- and 10M-node streamed points.

use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use serde::{Deserialize, Serialize};
use sim::faults::NoFaults;
use sim::shard::ShardOpts;
use sim::topology::Topology;
use sim::traffic::{duty_cycled, DutyCycleStream, TxPlan};
use sim::world::SimWorld;
use std::time::Instant;

/// The paper's experiment payload: 10 app bytes + 13 LoRaWAN framing.
const PAYLOAD_LEN: usize = 23;
/// Offered duty cycle for the dense points; the 10M-node point drops to
/// a realistic sparse-IoT duty (see `main`).
const DEFAULT_DUTY: f64 = 0.01;

/// Shard ceiling for the sharded paths: the band has 8 gateway-covered
/// sub-band components at most, so 8 is "as sharded as it gets".
const MAX_SHARDS: usize = 8;

/// A US915-scale uplink band: 64 disjoint 125 kHz channels in 8
/// sub-bands of 8 (12.8 MHz at the standard 200 kHz spacing).
fn band() -> Vec<Channel> {
    ChannelGrid::standard(902_300_000, 12_800_000).channels()
}

/// Sub-bands that have at least one listening gateway (nodes are only
/// planned onto covered spectrum).
fn covered_subbands(gws: usize) -> usize {
    (band().len() / 8).min(gws)
}

/// A dense urban deployment with *heterogeneous* gateway listening
/// sets: the fleet is split into contiguous groups, one per covered
/// sub-band, and each gateway listens to its group's 8-channel block.
/// Only that block's gateways are candidates for any one transmission —
/// the regime the channel→gateway index targets, and exactly the
/// structure the shard partition exploits (each sub-band block is an
/// independent component).
fn build_world(nodes: usize, gws: usize, seed: u64) -> SimWorld {
    let chans = band();
    let model = PathLossModel {
        shadowing_sigma_db: 2.0,
        ..Default::default()
    };
    let mut topo = Topology::new((1_800.0, 1_400.0), nodes, gws, model, seed);
    topo.clamp_loss(108.0, 126.0);
    let profile = GatewayProfile::rak7268cv2();
    let n_sub = covered_subbands(gws);
    let gateways = (0..gws)
        .map(|i| {
            // Contiguous gateway groups per sub-band: candidate sets are
            // contiguous gateway-index ranges, keeping the hot path's
            // RSSI row reads on adjacent cache lines.
            let block = (i * n_sub / gws) * 8;
            let cfg = GatewayConfig::new(profile, chans[block..block + 8].to_vec())
                .expect("8-channel block valid for an SX1302");
            Gateway::new(i, 1, profile, cfg)
        })
        .collect();
    SimWorld::new(topo, vec![1; nodes], gateways)
}

/// Channel/DR assignment over the covered spectrum with a mixed DR
/// population (shared by the materialized and streamed workloads).
fn assignments(nodes: usize, gws: usize) -> Vec<(usize, Channel, DataRate)> {
    let chans = band();
    let n_cov = covered_subbands(gws) * 8;
    (0..nodes)
        .map(|i| {
            (
                i,
                chans[i % n_cov],
                DataRate::from_index((i / n_cov) % 6).unwrap(),
            )
        })
        .collect()
}

/// Duty-cycled materialized workload for the exact points.
fn workload(nodes: usize, gws: usize, duty: f64, horizon_us: u64, seed: u64) -> Vec<TxPlan> {
    duty_cycled(
        &assignments(nodes, gws),
        PAYLOAD_LEN,
        duty,
        horizon_us,
        seed ^ 0xF00D,
    )
}

/// Process peak resident set (VmHWM), MB; 0.0 if unreadable (non-Linux).
/// Shares the registry-gauge probe (`obs::proc_mem`) so the bench and
/// the daemons report the same number.
fn peak_rss_mb() -> f64 {
    obs::proc_mem()
        .map(|m| m.peak_rss_bytes as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}

/// One (nodes, gateways) measurement point of `BENCH_sim.json`
/// (schema v5; see `docs/SCALING.md` for the field-by-field contract).
#[derive(Debug, Serialize, Deserialize)]
struct ScalePoint {
    nodes: usize,
    gateways: usize,
    /// `"exact"`: spec and engine run and are asserted record-identical.
    /// `"streamed"`: aggregate-only, gated statistically.
    mode: String,
    /// Offered duty cycle of this point's workload (airtime / period
    /// per node); per-point so the 10M-node point can run at a
    /// realistic sparse duty.
    duty: f64,
    txs: u64,
    /// Events processed (3 × txs).
    events: u64,
    /// Shards the partition actually produced (≤ `MAX_SHARDS`).
    shards: u32,
    /// Cores the shard threads could occupy: min(shards, host cores).
    workers: u32,
    /// Fraction of the (tx, gateway) product the lock-on loop visited.
    candidate_cull_ratio: f64,
    /// Verbatim replica of the seed revision's event loop (exact mode).
    reference_secs: Option<f64>,
    /// The engine (exact mode: `run_sharded`; streamed mode:
    /// `run_streamed` over a `DutyCycleStream`).
    sharded_secs: f64,
    /// Wall-clock speedup, reference / engine (exact mode).
    speedup: Option<f64>,
    /// Engine event throughput.
    sharded_events_per_sec: f64,
    /// Sharded throughput normalized by `workers` — the scaling curve's
    /// y-axis, comparable across hosts.
    per_core_events_per_sec: f64,
    /// Max over shards of peak simultaneously-live transmission slots
    /// (the streamed working-set ceiling).
    peak_live: u64,
    /// Process peak RSS after this point, MB (Linux VmHWM; cumulative
    /// across points, so read the first streamed point's value).
    peak_rss_mb: f64,
    /// Exact mode: the engine's records and gateway stats matched the
    /// reference run bit for bit.
    records_identical: Option<bool>,
    /// Streamed mode: the N-shard vs 1-shard statistical gate passed.
    stat_gate_ok: Option<bool>,
    /// Streamed mode: largest per-network PDR gap across the two runs.
    stat_pdr_gap: Option<f64>,
    /// Streamed mode: total-variation distance between the outcome
    /// distributions of the two runs.
    stat_tv_distance: Option<f64>,
    /// Time-wheel level-up cascades during the primary sharded run
    /// (each drains one upper-level bucket back into the wheel).
    #[serde(default)]
    wheel_cascades: u64,
    /// Interference-state fold operations in the primary sharded run:
    /// list pushes, index inserts and leak folds at TxStart plus leak
    /// undos at TxEnd. The cost model in `docs/SCALING.md` predicts
    /// `accum_folds / events` stays O(candidate gateways), independent
    /// of the on-air population.
    #[serde(default)]
    accum_folds: u64,
}

/// The `BENCH_sim.json` schema.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    schema_version: u32,
    quick: bool,
    scales: Vec<ScalePoint>,
}

/// Repetitions per path; each point reports the best run, which damps
/// scheduler noise (shared CI boxes see heavy CPU steal). Reps of the
/// paths are interleaved so a sustained load epoch inflates all of them rather
/// than whichever happened to run during it.
const REPS: usize = 5;

/// An exact point: the reference and the engine over the same
/// materialized plan list, timed and asserted identical.
fn measure_exact(nodes: usize, gws: usize, duty: f64, horizon_us: u64) -> ScalePoint {
    let seed = 550_000 + nodes as u64;
    let plans = workload(nodes, gws, duty, horizon_us, seed);
    let opts = ShardOpts {
        max_shards: MAX_SHARDS,
        ..ShardOpts::default()
    };

    let mut w_ref = build_world(nodes, gws, seed);
    let mut w_shard = build_world(nodes, gws, seed);
    let mut reference_secs = f64::INFINITY;
    let mut sharded_secs = f64::INFINITY;
    let mut recs_ref = Vec::new();
    let mut recs_shard = Vec::new();
    for _ in 0..REPS {
        w_ref.reset();
        let t0 = Instant::now();
        recs_ref = sim::reference::run_with_faults_reference(&mut w_ref, &plans, &NoFaults);
        reference_secs = reference_secs.min(t0.elapsed().as_secs_f64());

        w_shard.reset();
        let t0 = Instant::now();
        recs_shard = w_shard.run_sharded(&plans, &opts);
        sharded_secs = sharded_secs.min(t0.elapsed().as_secs_f64());
    }

    assert_eq!(
        recs_shard, recs_ref,
        "the engine must be record-for-record identical to the reference"
    );
    for (a, b) in w_shard.gateways.iter().zip(&w_ref.gateways) {
        assert_eq!(a.stats(), b.stats(), "gateway stats must match");
    }

    let stats = w_shard.last_run_stats().expect("run recorded stats");
    let shard_stats = w_shard
        .last_shard_stats()
        .expect("sharded run recorded per-shard stats")
        .to_vec();

    if bench::obs_session::active() {
        bench::obs_session::record_event(&stats.to_event(0));
        for s in &shard_stats {
            bench::obs_session::record_event(&s.to_event(0));
        }
    }
    let workers = (shard_stats.len())
        .min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .max(1);
    let point = ScalePoint {
        nodes,
        gateways: gws,
        mode: "exact".to_string(),
        duty,
        txs: stats.txs,
        events: stats.events,
        shards: shard_stats.len() as u32,
        workers: workers as u32,
        candidate_cull_ratio: stats.cull_ratio(),
        reference_secs: Some(reference_secs),
        sharded_secs,
        speedup: Some(reference_secs / sharded_secs.max(1e-12)),
        sharded_events_per_sec: stats.events as f64 / sharded_secs.max(1e-12),
        per_core_events_per_sec: stats.events as f64 / sharded_secs.max(1e-12) / workers as f64,
        peak_live: shard_stats.iter().map(|s| s.peak_live).max().unwrap_or(0),
        peak_rss_mb: peak_rss_mb(),
        records_identical: Some(true),
        stat_gate_ok: None,
        stat_pdr_gap: None,
        stat_tv_distance: None,
        wheel_cascades: stats.wheel_cascades,
        accum_folds: stats.accum_updates + stats.accum_undos,
    };
    println!(
        "bench simworld/{nodes}n_{gws}gw   reference {:>8.3}s  engine {:>8.3}s ({} shards, {:>10.0} ev/s)  speedup {:>6.1}x  cull {:>5.3}",
        reference_secs, sharded_secs, point.shards,
        point.sharded_events_per_sec, point.speedup.unwrap(), point.candidate_cull_ratio
    );
    point
}

/// The streamed points: the workload is generated chunk by chunk and
/// never materialized, per-packet records are never kept, and N-shard
/// vs 1-shard aggregate summaries pass the statistical gate.
fn measure_streamed(nodes: usize, gws: usize, duty: f64, horizon_us: u64) -> ScalePoint {
    let seed = 770_000 + nodes as u64;
    let assigns = assignments(nodes, gws);
    let chunk_us = 500_000;
    let mut world = build_world(nodes, gws, seed);

    let run_once = |world: &mut SimWorld, max_shards: usize| {
        let mut stream = DutyCycleStream::new(
            &assigns,
            PAYLOAD_LEN,
            duty,
            horizon_us,
            seed ^ 0xF00D,
            chunk_us,
        );
        let opts = ShardOpts {
            max_shards,
            ..ShardOpts::default()
        };
        let t0 = Instant::now();
        let run = world.run_streamed(&mut stream, &opts);
        (run, t0.elapsed().as_secs_f64())
    };

    let (run_n, sharded_secs) = run_once(&mut world, MAX_SHARDS);
    world.reset();
    let (run_1, _) = run_once(&mut world, 1);

    // The statistical-equivalence gate. Shard count provably does not
    // change results (exact points + the workspace proptest), so the
    // summaries must agree *exactly*; any gap at all means scale broke
    // something the small-scale proofs cannot see.
    let gate = run_n
        .summary
        .statistically_equivalent(&run_1.summary, 1e-9, 1e-9);
    let pdr_gap = run_n.summary.pdr_gap(&run_1.summary);
    let tv = run_n.summary.loss_tv_distance(&run_1.summary);
    assert!(
        gate.is_ok(),
        "{nodes}-node statistical gate failed: {}",
        gate.as_ref().err().cloned().unwrap_or_default()
    );

    let stats = run_n.stats;
    if bench::obs_session::active() {
        bench::obs_session::record_event(&stats.to_event(0));
        for s in &run_n.shard_stats {
            bench::obs_session::record_event(&s.to_event(0));
        }
    }
    let workers = (run_n.shard_stats.len())
        .min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .max(1);
    let point = ScalePoint {
        nodes,
        gateways: gws,
        mode: "streamed".to_string(),
        duty,
        txs: stats.txs,
        events: stats.events,
        shards: run_n.shard_stats.len() as u32,
        workers: workers as u32,
        candidate_cull_ratio: stats.cull_ratio(),
        reference_secs: None,
        sharded_secs,
        speedup: None,
        sharded_events_per_sec: stats.events as f64 / sharded_secs.max(1e-12),
        per_core_events_per_sec: stats.events as f64 / sharded_secs.max(1e-12) / workers as f64,
        peak_live: run_n
            .shard_stats
            .iter()
            .map(|s| s.peak_live)
            .max()
            .unwrap_or(0),
        peak_rss_mb: peak_rss_mb(),
        records_identical: None,
        stat_gate_ok: Some(true),
        stat_pdr_gap: Some(pdr_gap),
        stat_tv_distance: Some(tv),
        wheel_cascades: stats.wheel_cascades,
        accum_folds: stats.accum_updates + stats.accum_undos,
    };
    println!(
        "bench simworld/{nodes}n_{gws}gw   streamed {:>8.3}s ({} shards, {} txs)  {:>10.0} ev/s  peak_live {}  rss {:.0} MB  gate ok (pdr gap {:.2e}, tv {:.2e})",
        sharded_secs,
        point.shards,
        point.txs,
        point.sharded_events_per_sec,
        point.peak_live,
        point.peak_rss_mb,
        pdr_gap,
        tv
    );
    point
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // (nodes, gateways, duty, horizon) per mode. Exact points shorten
    // the window as nodes grow so the reference replica finishes in
    // reasonable wall time; the streamed points keep short horizons
    // because their txs counts scale with nodes × duty × horizon. The
    // 10M-node point runs at a sparse-IoT duty (0.1%): at city scale
    // most of the fleet is dormant at any instant, and the lower duty
    // keeps the offered load inside what one host can replay while
    // still leaving hundreds of thousands of transmissions.
    let exact: &[(usize, usize, f64, u64)] = if quick {
        &[(144, 3, DEFAULT_DUTY, 60_000_000)]
    } else {
        &[
            (144, 3, DEFAULT_DUTY, 60_000_000),
            (10_000, 32, DEFAULT_DUTY, 60_000_000),
            (100_000, 64, DEFAULT_DUTY, 10_000_000),
        ]
    };
    let streamed: &[(usize, usize, f64, u64)] = if quick {
        &[
            (1_000_000, 64, DEFAULT_DUTY, 2_000_000),
            (10_000_000, 32, 0.001, 2_000_000),
        ]
    } else {
        &[
            (1_000_000, 64, DEFAULT_DUTY, 10_000_000),
            (10_000_000, 32, 0.001, 10_000_000),
        ]
    };

    let mut scales: Vec<ScalePoint> = exact
        .iter()
        .map(|&(n, g, d, h)| measure_exact(n, g, d, h))
        .collect();
    scales.extend(
        streamed
            .iter()
            .map(|&(n, g, d, h)| measure_streamed(n, g, d, h)),
    );

    let report = BenchReport {
        bench: "sim".to_string(),
        schema_version: 5,
        quick,
        scales,
    };

    let json = serde_json::to_string(&report).expect("bench report serializes");
    let path = bench::obs_session::write_bench_artifact("BENCH_sim.json", &json)
        .expect("bench artifact written");
    // Validate the artifact end-to-end: it must parse back into the
    // schema (the CI perf-smoke job asserts the same from python).
    let back: BenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("artifact readable"))
            .expect("BENCH_sim.json parses");
    assert_eq!(back.schema_version, 5);
    assert_eq!(back.scales.len(), exact.len() + streamed.len());
    assert!(
        back.scales
            .iter()
            .all(|s| s.sharded_events_per_sec > 0.0 && s.txs > 0 && s.shards > 0),
        "sharded throughput and workload must be measured"
    );
    assert!(
        back.scales.iter().all(|s| s.accum_folds > 0),
        "every point must count its interference folds"
    );
    assert!(
        back.scales
            .iter()
            .any(|s| s.mode == "streamed" && s.nodes >= 10_000_000),
        "the 10M-node streamed point must be present"
    );
    // Seal the session event stream (rename off `.partial`) so the
    // SimRunStats/SimShardStats events this bench recorded are
    // tracectl-readable after the run.
    bench::obs_session::flush();
    println!("wrote {}", path.display());
}
