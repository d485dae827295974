//! `sim-coex` and `sim-dense`: the streamed simulator driven through
//! `DutyCycleStream` → `SimWorld::run_streamed(&mut src,
//! &ShardOpts::default())`, the call a default caller makes.

use super::micro;
use crate::harness::{
    best_high, best_low, median, peak_rss_mb, setup_reps, timed, Outcome, RunCfg, SpanId, Tracer,
};
use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use sim::{
    ChunkSource, DutyCycleStream, RunSummary, ShardOpts, SimWorld, StreamedRun, Topology, TxPlan,
};
use std::time::Instant;

/// Frozen sizes of one sim workload.
pub struct SimSizes {
    pub nodes: usize,
    pub gateways: usize,
    /// Coexisting networks on aligned plans; node and gateway network
    /// ids are interleaved.
    pub networks: usize,
    pub duty: f64,
    pub horizon_us: u64,
    /// Simulated time per traffic chunk.
    pub chunk_us: u64,
}

pub fn sizes(workload: &str, smoke: bool) -> SimSizes {
    match (workload, smoke) {
        // 1.06 M transmissions per repetition of about 0.9 s, PDR 0.67.
        ("sim-coex", false) => SimSizes {
            nodes: 100_000,
            gateways: 64,
            networks: 4,
            duty: 0.001,
            horizon_us: 1_800_000_000,
            chunk_us: 60_000_000,
        },
        ("sim-coex", true) => SimSizes {
            nodes: 4_000,
            gateways: 16,
            networks: 4,
            duty: 0.001,
            horizon_us: 600_000_000,
            chunk_us: 60_000_000,
        },
        // 45 k transmissions per repetition of about 0.6 s over 22 k
        // live slots, PDR 0.0007: the historical BENCH_sim.json 1M-node
        // point on a horizon short enough for fifteen repetitions in
        // ten seconds (single repetitions vary by a fifth on two cores).
        ("sim-dense", false) => SimSizes {
            nodes: 1_000_000,
            gateways: 64,
            networks: 1,
            duty: 0.01,
            horizon_us: 750_000,
            chunk_us: 250_000,
        },
        ("sim-dense", true) => SimSizes {
            nodes: 20_000,
            gateways: 16,
            networks: 1,
            duty: 0.01,
            horizon_us: 1_500_000,
            chunk_us: 250_000,
        },
        _ => panic!("not a sim workload: {workload}"),
    }
}

/// The 64-channel US915-style uplink band: 8 sub-bands of 8 channels.
fn band() -> Vec<Channel> {
    ChannelGrid::standard(902_300_000, 12_800_000).channels()
}

/// A dense urban deployment: contiguous gateway groups, one per
/// sub-band, each gateway listening to its group's 8-channel block
/// (the layout of `crates/bench/benches/simworld.rs`), with gateway
/// `g` owned by network `g mod networks`.
fn build_world(sz: &SimSizes, seed: u64) -> SimWorld {
    let chans = band();
    let model = PathLossModel {
        shadowing_sigma_db: 2.0,
        ..Default::default()
    };
    let mut topo = Topology::new((1_800.0, 1_400.0), sz.nodes, sz.gateways, model, seed);
    for row in &mut topo.loss_db {
        for loss in row.iter_mut() {
            *loss = loss.clamp(108.0, 126.0);
        }
    }
    let profile = GatewayProfile::rak7268cv2();
    let sub_bands = (chans.len() / 8).min(sz.gateways);
    let gateways = (0..sz.gateways)
        .map(|g| {
            let block = (g * sub_bands / sz.gateways) * 8;
            let cfg = GatewayConfig::new(profile, chans[block..block + 8].to_vec())
                .expect("an 8-channel block fits an SX1302");
            Gateway::new(g, (g % sz.networks) as u32 + 1, profile, cfg)
        })
        .collect();
    SimWorld::new(topo, node_networks(sz), gateways)
}

/// Channel, data rate and network are crossed: channel `i mod 64`, data
/// rate `(i / 64) mod 6`, network `(i / 384) mod networks`.
fn node_networks(sz: &SimSizes) -> Vec<u32> {
    (0..sz.nodes)
        .map(|i| ((i / 384) % sz.networks) as u32 + 1)
        .collect()
}

fn assignments(sz: &SimSizes) -> Vec<(usize, Channel, DataRate)> {
    let chans = band();
    let covered = (chans.len() / 8).min(sz.gateways) * 8;
    (0..sz.nodes)
        .map(|i| {
            (
                i,
                chans[i % covered],
                DataRate::from_index((i / covered) % 6).expect("index below 6"),
            )
        })
        .collect()
}

/// Times `next_chunk` of the source it wraps (traced run only).
struct TimedSource<'a> {
    inner: &'a mut dyn ChunkSource,
    /// Duration of each `next_chunk` call, ns.
    calls_ns: Vec<u64>,
}

impl ChunkSource for TimedSource<'_> {
    fn channels(&self) -> &[Channel] {
        self.inner.channels()
    }

    fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64> {
        let t0 = Instant::now();
        let frontier = self.inner.next_chunk(out);
        self.calls_ns.push(t0.elapsed().as_nanos() as u64);
        frontier
    }
}

struct Rep {
    run: StreamedRun,
    wall_s: f64,
    /// Time inside `next_chunk`, when the source was wrapped.
    traffic_s: Option<f64>,
}

fn one_rep(
    world: &mut SimWorld,
    sz: &SimSizes,
    assigns: &[(usize, Channel, DataRate)],
    seed: u64,
    tracer: &mut Tracer,
    wrap: bool,
    rep: u32,
) -> Rep {
    world.reset();
    let mut stream = DutyCycleStream::new(
        assigns,
        bench::scenario::PAYLOAD_LEN,
        sz.duty,
        sz.horizon_us,
        seed ^ 0xF00D,
        sz.chunk_us,
    );
    if !wrap {
        let (run, wall_s) = timed(|| world.run_streamed(&mut stream, &ShardOpts::default()));
        return Rep {
            run,
            wall_s,
            traffic_s: None,
        };
    }
    let mut src = TimedSource {
        inner: &mut stream,
        calls_ns: Vec::new(),
    };
    let span = tracer.open("sim.run_streamed", SpanId::NONE, rep);
    let (run, wall_s) = timed(|| world.run_streamed(&mut src, &ShardOpts::default()));
    tracer.close(span);
    // The chunk calls ran on the producer side of this call; their
    // spans are laid end to end before its close, which keeps their
    // total (what self time uses) exact.
    for &ns in &src.calls_ns {
        tracer.record("sim.traffic", span, rep, ns);
    }
    Rep {
        run,
        wall_s,
        traffic_s: Some(src.calls_ns.iter().sum::<u64>() as f64 / 1e9),
    }
}

/// `delivered + lost = sent = transmissions`, per run.
fn conserved(run: &StreamedRun) -> bool {
    let t = &run.summary.total;
    t.delivered + t.losses.total() == t.sent && t.sent == run.stats.txs
}

pub fn run(workload: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let sz = sizes(workload, cfg.smoke);
    let assigns = assignments(&sz);
    let mut out = Outcome::new();

    // Set-up, several times: world construction plus the warm-up
    // repetition (the cold run fills the lazy link tables).
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut colds = Vec::new();
    let mut state: Option<(SimWorld, RunSummary)> = None;
    // Three set-ups; two of the 1M-node world, at five seconds each.
    let full = if workload == "sim-dense" { 2 } else { 3 };
    for _ in 0..setup_reps(cfg, full) {
        drop(state.take());
        let (mut world, build_s) = timed(|| build_world(&sz, cfg.seed));
        let cold = one_rep(&mut world, &sz, &assigns, cfg.seed, tracer, false, 0);
        setups.push(build_s + cold.wall_s);
        builds.push(build_s);
        colds.push(cold.wall_s);
        out.check(conserved(&cold.run), || {
            "warm-up run: delivered + lost != sent".to_string()
        });
        state = Some((world, cold.run.summary));
    }
    let (mut world, reference) = state.expect("at least one set-up");

    // Timed repetitions until `--seconds` have passed, three at least.
    // On the traced run every other repetition wraps the source.
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let wrap = cfg.trace && reps.len().is_multiple_of(2);
        let rep = one_rep(
            &mut world,
            &sz,
            &assigns,
            cfg.seed,
            tracer,
            wrap,
            reps.len() as u32 + 1,
        );
        out.attempted += rep.run.stats.txs;
        if rep.run.summary != reference || !conserved(&rep.run) {
            out.failed += rep.run.stats.txs;
            out.problems.push(format!(
                "repetition {}: RunSummary differs from the warm-up run's",
                reps.len() + 1
            ));
        }
        reps.push(rep);
    }

    let plain: Vec<&Rep> = reps.iter().filter(|r| r.traffic_s.is_none()).collect();
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.run.stats.events as f64 / r.wall_s)
        .collect();
    out.set("work_per_s", best_high(&rates));
    out.set("op_us", best_low(&walls) * 1e6);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.sample_count("timed_reps", reps.len() as u64);
    out.sample_count("work_per_s", plain.len() as u64);
    out.sample_count("op_us", plain.len() as u64);
    out.sample_count("setup_s", setups.len() as u64);
    out.set("bench.timed_reps", reps.len() as f64);

    if cfg.trace {
        layer_metrics(&mut out, &reps, &walls, &builds, &colds, cfg);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    reps: &[Rep],
    plain_walls: &[f64],
    builds: &[f64],
    colds: &[f64],
    cfg: &RunCfg,
) {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traffic_s.is_some()).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    let traffic: Vec<f64> = traced.iter().filter_map(|r| r.traffic_s).collect();
    let engine: Vec<f64> = traced
        .iter()
        .map(|r| r.wall_s - r.traffic_s.unwrap_or(0.0))
        .collect();
    let last = &reps.last().expect("three repetitions at least").run;
    let stats = &last.stats;
    let shard_walls: Vec<f64> = last
        .shard_stats
        .iter()
        .map(|s| s.wall_us as f64 / 1e6)
        .collect();
    let shard_sum: f64 = shard_walls.iter().sum();
    let shard_max = shard_walls.iter().cloned().fold(0.0, f64::max);

    out.set("sim.traffic_s", median(&traffic));
    out.set(
        "sim.traffic_ns_per_tx",
        median(&traffic) * 1e9 / stats.txs.max(1) as f64,
    );
    out.set("sim.engine_s", median(&engine));
    out.set("sim.shard_wall_max_s", shard_max);
    out.set("sim.shard_wall_sum_s", shard_sum);
    out.set(
        "sim.shard_imbalance",
        shard_max / (shard_sum / shard_walls.len().max(1) as f64).max(1e-12),
    );
    out.set("sim.cold_run_s", median(colds));
    out.set("sim.world_build_s", median(builds));
    out.set(
        "sim.candidate_visits_per_tx",
        stats.candidate_visits as f64 / stats.txs.max(1) as f64,
    );
    out.set("sim.cull_ratio", stats.cull_ratio());
    out.set(
        "sim.peak_live",
        last.shard_stats
            .iter()
            .map(|s| s.peak_live)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("sim.wheel_cascades", stats.wheel_cascades as f64);
    out.set(
        "sim.accum_folds",
        (stats.accum_updates + stats.accum_undos) as f64,
    );
    out.set("sim.shards", last.shard_stats.len() as f64);
    out.set("sim.txs", stats.txs as f64);
    out.set("sim.pdr", last.summary.total.pdr());
    out.sample_count("sim.traffic_s", traffic.len() as u64);

    let groups = if cfg.smoke { 2_000 } else { 100_000 };
    let (admit_ns, end_ns) = micro::gateway_admit_end(cfg.seed, groups);
    out.set("gateway.admit_ns", admit_ns);
    out.set("gateway.end_ns", end_ns);
    out.set(
        "gateway.admit_est_share",
        admit_ns * stats.candidate_visits as f64 / 1e9 / shard_sum.max(1e-12),
    );
    let iters = if cfg.smoke { 20_000 } else { 2_000_000 };
    let (airtime_ns, capture_ns) = micro::phy(cfg.seed, iters);
    out.set("lora-phy.airtime_ns", airtime_ns);
    out.set("lora-phy.capture_ns", capture_ns);

    out.set(
        "obs.trace_overhead_frac",
        median(&traced_walls) / median(plain_walls).max(1e-12) - 1.0,
    );
}
