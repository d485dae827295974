//! End-to-end CP-solver scaling at the paper's Fig 17 sizes.
//!
//! Compares the pre-engine GA — a verbatim replica of the seed
//! revision's solver loop, HashMap-based `objective` and per-node
//! allocating `repair` included — against the flat-genome engine path
//! ([`GaSolver::solve_seeded_stats`]) at 144 / 1 000 / 4 000 nodes
//! hearing every gateway, plus one *clustered* point whose reach comes
//! from a [`Topology`] (~100 reach classes, a large share of every
//! child's nodes repaired) — the shape of a log-derived problem, where
//! breeding, not scoring, is most of a generation.
//! Both sides start from the same precomputed greedy seed so neither
//! timer includes `greedy_plan`. Also records a raw
//! objective-evaluations-per-second micro-comparison, sweeps the worker
//! pool on the clustered problem (per-worker efficiency, host cores
//! alongside), and writes the
//! machine-readable `BENCH_solver.json` artifact through the obs
//! session writer (falling back to `results/out/` when no `--obs-out`
//! session is active).
//!
//! Pass `--quick` to run only the 144-node and the clustered point with
//! a reduced generation budget — the CI perf-smoke configuration.

use alphawan::cp::eval::{EvalContext, Genome};
use alphawan::cp::ga::{GaConfig, GaSolver};
use alphawan::cp::{CpProblem, CpSolution, GatewayLimits};
use alphawan::{greedy_plan, IntraNetworkPlanner};
use lora_phy::channel::ChannelGrid;
use lora_phy::pathloss::DISTANCE_RINGS;
use serde::{Deserialize, Serialize};
use sim::topology::Topology;
use std::time::Instant;

/// Verbatim replica of the seed revision's GA — objective, operators
/// and solver loop — so `BENCH_solver.json` records speedup against
/// the true prior code, not against today's already-optimized serial
/// reference path. Lints are allowed wholesale: this code must stay
/// byte-faithful to the revision it replicates.
#[allow(clippy::all)]
mod baseline {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-change `CpProblem::objective`: identical risk
    /// accounting, with the duplicate-pair pass through a per-call
    /// `HashMap` — the allocation profile this PR removed.
    pub fn objective(p: &CpProblem, sol: &CpSolution) -> f64 {
        let masks: Vec<u64> = sol
            .gw_channels
            .iter()
            .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
            .collect();
        let mut k = vec![0f64; p.n_gateways()];
        for i in 0..p.n_nodes() {
            let ch = sol.node_channel[i];
            let ring = sol.node_ring[i];
            for j in 0..p.n_gateways() {
                if (masks[j] >> ch) & 1 == 1 && p.reach[i][j][ring] {
                    k[j] += p.traffic[i];
                }
            }
        }
        let phi: Vec<f64> = k
            .iter()
            .zip(&p.gw_limits)
            .map(|(&kj, lim)| (kj - lim.decoders as f64).max(0.0))
            .collect();
        let mut obj = 0.0;
        for i in 0..p.n_nodes() {
            let ch = sol.node_channel[i];
            let ring = sol.node_ring[i];
            let mut best: Option<f64> = None;
            for j in 0..p.n_gateways() {
                if (masks[j] >> ch) & 1 == 1 && p.reach[i][j][ring] {
                    best = Some(best.map_or(phi[j], |b: f64| b.min(phi[j])));
                }
            }
            match best {
                Some(risk) => obj += p.traffic[i] * risk,
                None => obj += p.disconnect_penalty,
            }
        }
        let mut counts = std::collections::HashMap::new();
        for i in 0..p.n_nodes() {
            *counts
                .entry((sol.node_channel[i], sol.node_ring[i]))
                .or_insert(0u32) += 1;
        }
        for (_, c) in counts {
            if c > 1 {
                obj += p.duplicate_penalty * (c - 1) as f64;
            }
        }
        obj
    }

    /// The seed revision's `GaSolver::solve_seeded`, with an
    /// evaluation counter threaded through. Every operator below is
    /// copied unchanged from that revision.
    pub fn solve_seeded(
        cfg: &GaConfig,
        p: &CpProblem,
        seedling: CpSolution,
        evals: &mut u64,
    ) -> (CpSolution, f64) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let node_rate0 = if cfg.optimize_node_assignments {
            0.3
        } else {
            0.0
        };
        let gw_rate0 = if cfg.optimize_gateway_channels {
            0.5
        } else {
            0.0
        };
        let mut population: Vec<CpSolution> = Vec::with_capacity(cfg.population);
        population.push(seedling.clone());
        while population.len() < cfg.population {
            let mut s = seedling.clone();
            mutate(p, &mut s, node_rate0, gw_rate0, &mut rng);
            if cfg.optimize_node_assignments {
                repair(p, &mut s, &mut rng);
            }
            population.push(s);
        }

        let mut scored: Vec<(f64, CpSolution)> = population
            .into_iter()
            .map(|s| {
                *evals += 1;
                (objective(p, &s), s)
            })
            .collect();
        sort_scored(&mut scored);

        for _gen in 0..cfg.generations {
            let mut next: Vec<(f64, CpSolution)> =
                scored.iter().take(cfg.elites).cloned().collect();
            while next.len() < cfg.population {
                let a = tournament(&scored, cfg.tournament, &mut rng);
                let mut child = if rng.gen_bool(cfg.crossover_rate) {
                    let b = tournament(&scored, cfg.tournament, &mut rng);
                    crossover(&scored[a].1, &scored[b].1, &mut rng)
                } else {
                    scored[a].1.clone()
                };
                let node_rate = if cfg.optimize_node_assignments {
                    cfg.node_mutation
                } else {
                    0.0
                };
                let gw_rate = if cfg.optimize_gateway_channels {
                    cfg.gw_mutation
                } else {
                    0.0
                };
                mutate(p, &mut child, node_rate, gw_rate, &mut rng);
                if cfg.optimize_node_assignments {
                    repair(p, &mut child, &mut rng);
                }
                *evals += 1;
                let score = objective(p, &child);
                next.push((score, child));
            }
            scored = next;
            sort_scored(&mut scored);
            if scored[0].0 == 0.0 {
                break;
            }
        }

        let (best_score, best) = scored.swap_remove(0);
        (best, best_score)
    }

    fn sort_scored(scored: &mut [(f64, CpSolution)]) {
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    fn tournament(scored: &[(f64, CpSolution)], k: usize, rng: &mut StdRng) -> usize {
        (0..k)
            .map(|_| rng.gen_range(0..scored.len()))
            .min_by(|&a, &b| scored[a].0.total_cmp(&scored[b].0))
            .expect("tournament size > 0")
    }

    fn crossover(a: &CpSolution, b: &CpSolution, rng: &mut StdRng) -> CpSolution {
        let node_channel = a
            .node_channel
            .iter()
            .zip(&b.node_channel)
            .zip(a.node_ring.iter().zip(&b.node_ring))
            .map(|((ca, cb), _)| if rng.gen_bool(0.5) { *ca } else { *cb })
            .collect::<Vec<_>>();
        let mut node_ring = Vec::with_capacity(a.node_ring.len());
        for i in 0..a.node_ring.len() {
            let take_a = node_channel[i] == a.node_channel[i];
            node_ring.push(if take_a {
                a.node_ring[i]
            } else {
                b.node_ring[i]
            });
        }
        let gw_channels = a
            .gw_channels
            .iter()
            .zip(&b.gw_channels)
            .map(|(ga, gb)| {
                if rng.gen_bool(0.5) {
                    ga.clone()
                } else {
                    gb.clone()
                }
            })
            .collect();
        CpSolution {
            gw_channels,
            node_channel,
            node_ring,
        }
    }

    fn mutate(p: &CpProblem, sol: &mut CpSolution, node_rate: f64, gw_rate: f64, rng: &mut StdRng) {
        let n_ch = p.n_channels();
        for i in 0..sol.node_channel.len() {
            if rng.gen_bool(node_rate) {
                sol.node_channel[i] = rng.gen_range(0..n_ch);
            }
            if rng.gen_bool(node_rate) {
                sol.node_ring[i] = rng.gen_range(0..DISTANCE_RINGS);
            }
        }
        for j in 0..sol.gw_channels.len() {
            if rng.gen_bool(gw_rate) {
                resample_gateway_channels(p, sol, j, rng);
            }
        }
    }

    fn resample_gateway_channels(p: &CpProblem, sol: &mut CpSolution, j: usize, rng: &mut StdRng) {
        let n_ch = p.n_channels();
        let window = p.window_channels(j).max(1).min(n_ch);
        let start = rng.gen_range(0..=n_ch - window);
        let budget = p.gw_limits[j].max_channels.min(window);
        let count = rng.gen_range(1..=budget);
        let mut chans: Vec<usize> = (start..start + window).collect();
        for i in 0..count {
            let swap = rng.gen_range(i..chans.len());
            chans.swap(i, swap);
        }
        chans.truncate(count);
        chans.sort_unstable();
        sol.gw_channels[j] = chans;
    }

    fn repair(p: &CpProblem, sol: &mut CpSolution, rng: &mut StdRng) {
        let masks: Vec<u64> = sol
            .gw_channels
            .iter()
            .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
            .collect();
        for i in 0..sol.node_channel.len() {
            let connected = (0..p.n_gateways()).any(|j| {
                (masks[j] >> sol.node_channel[i]) & 1 == 1 && p.reach[i][j][sol.node_ring[i]]
            });
            if connected {
                continue;
            }
            let mut options: Vec<(usize, usize)> = Vec::new();
            for j in 0..p.n_gateways() {
                for l in 0..DISTANCE_RINGS {
                    if p.reach[i][j][l] {
                        for &k in &sol.gw_channels[j] {
                            options.push((k, l));
                        }
                    }
                }
            }
            if !options.is_empty() {
                let (k, l) = options[rng.gen_range(0..options.len())];
                sol.node_channel[i] = k;
                sol.node_ring[i] = l;
            }
        }
    }
}

/// One (nodes, gateways) measurement point.
#[derive(Debug, Serialize, Deserialize)]
struct ScalePoint {
    nodes: usize,
    gateways: usize,
    /// `full`: every node hears every gateway at every ring;
    /// `topology`: reach from testbed link budgets.
    reach: String,
    /// Distinct reach rows among the nodes (1 for `full`).
    reach_classes: usize,
    /// Seed-revision GA replica (HashMap objective, allocating repair).
    baseline_solve_secs: f64,
    baseline_evaluations: u64,
    baseline_objective: f64,
    /// Engine GA (flat genomes + allocation-free evaluator).
    engine_solve_secs: f64,
    engine_evaluations: u64,
    engine_objective: f64,
    /// Wall-clock speedup of the engine GA over the baseline GA.
    end_to_end_speedup: f64,
    /// Single-evaluation throughput, measured on the greedy solution.
    baseline_evals_per_sec: f64,
    engine_evals_per_sec: f64,
    eval_speedup: f64,
}

/// One point of the worker-count sweep at the frontier scale.
#[derive(Debug, Serialize, Deserialize)]
struct WorkerPoint {
    workers: usize,
    solve_secs: f64,
    evaluations: u64,
    evals_per_sec: f64,
    /// Wall-clock speedup over the single-worker run of the same
    /// problem (the ROADMAP "solver raw speed" tracked number).
    speedup_vs_one: f64,
    /// `speedup_vs_one / workers`: 1.0 is linear scaling. Read it
    /// against `BenchReport::cores` — past the core count it can only
    /// fall.
    efficiency: f64,
}

/// The `BENCH_solver.json` schema.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    quick: bool,
    population: usize,
    generations: usize,
    workers: u32,
    /// `std::thread::available_parallelism` of the host.
    cores: usize,
    scales: Vec<ScalePoint>,
    /// Engine GA wall clock on the clustered problem as the worker
    /// pool widens: breeding, repair and scoring all run on the
    /// workers, so up to `cores` the curve should rise. On single-core
    /// runners expect it flat (or mildly negative) — there it only
    /// catches coordination-overhead regressions.
    worker_scaling_nodes: usize,
    worker_scaling: Vec<WorkerPoint>,
}

/// How a scale point's reach matrix is made.
#[derive(Clone, Copy)]
enum Reach {
    /// Every node hears every gateway at every ring: one reach class,
    /// the scorer's O(1)-per-node path, repairs only when nobody
    /// listens on a channel.
    Full,
    /// Link budgets of `Topology::testbed`, each node known only at
    /// its [`HEARD_AT`] strongest gateways — what a network server's
    /// logs show of a fleet: ~100 reach classes at 4 000 nodes, most of
    /// them dozens to hundreds of nodes strong.
    Topology,
}

impl Reach {
    /// The `reach` value of a scale point (`BENCH_baseline.json`
    /// selects the clustered point by it).
    fn tag(self) -> &'static str {
        match self {
            Reach::Full => "full",
            Reach::Topology => "topology",
        }
    }
}

/// Gateways per node in a [`Reach::Topology`] problem. (With every
/// testbed link kept, 4 000 nodes have 3 900 distinct reach rows — the
/// all-distinct corner, not the shape of a deployment.)
const HEARD_AT: usize = 3;

fn problem(nodes: usize, gws: usize, reach: Reach) -> CpProblem {
    let channels = ChannelGrid::standard(916_800_000, 4_800_000).channels();
    match reach {
        Reach::Full => CpProblem::new(
            channels,
            vec![vec![[true; DISTANCE_RINGS]; gws]; nodes],
            vec![1.0; nodes],
            vec![GatewayLimits::sx1302(); gws],
        ),
        Reach::Topology => {
            let mut topo = Topology::testbed(nodes, gws, 17);
            for row in &mut topo.loss_db {
                let mut by_loss = row.to_vec();
                by_loss.sort_by(f64::total_cmp);
                let weakest_kept = by_loss[HEARD_AT.min(gws) - 1];
                for loss in row.iter_mut().filter(|l| **l > weakest_kept) {
                    *loss = f64::INFINITY;
                }
            }
            IntraNetworkPlanner::new(channels, gws).problem(&topo, vec![1.0; nodes])
        }
    }
}

/// Time `iters` calls of `f`, returning calls per second.
fn throughput<F: FnMut() -> f64>(iters: u64, mut f: F) -> f64 {
    std::hint::black_box(f()); // warm caches (and the dense scratch)
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

fn measure(nodes: usize, gws: usize, reach: Reach, ga: GaConfig) -> ScalePoint {
    let p = problem(nodes, gws, reach);
    let solver = GaSolver::new(ga);
    let seed = greedy_plan(&p);

    // End-to-end: seed-revision GA replica from the precomputed seed.
    let mut baseline_evaluations = 0u64;
    let t0 = Instant::now();
    let (_, baseline_objective_found) =
        baseline::solve_seeded(&ga, &p, seed.clone(), &mut baseline_evaluations);
    let baseline_solve_secs = t0.elapsed().as_secs_f64();

    // End-to-end: engine GA from the same precomputed seed, so both
    // timers exclude `greedy_plan`.
    let (_, engine_objective_found, stats) = solver.solve_seeded_stats(&p, seed.clone());

    // Single-evaluation throughput on the greedy solution.
    let iters = (400_000 / nodes.max(1)).max(20) as u64;
    let baseline_evals_per_sec = throughput(iters, || baseline::objective(&p, &seed));
    let ctx = EvalContext::new(&p);
    let genome = Genome::from_solution(&seed);
    let mut scratch = ctx.scratch();
    let engine_evals_per_sec = throughput(iters * 4, || ctx.score(&genome, &mut scratch));

    let tag = reach.tag();
    let point = ScalePoint {
        nodes,
        gateways: gws,
        reach_classes: ctx.n_classes(),
        reach: tag.to_string(),
        baseline_solve_secs,
        baseline_evaluations,
        baseline_objective: baseline_objective_found,
        engine_solve_secs: stats.wall.as_secs_f64(),
        engine_evaluations: stats.evaluations,
        engine_objective: engine_objective_found,
        end_to_end_speedup: baseline_solve_secs / stats.wall.as_secs_f64().max(1e-12),
        baseline_evals_per_sec,
        engine_evals_per_sec,
        eval_speedup: engine_evals_per_sec / baseline_evals_per_sec.max(1e-12),
    };
    println!(
        "bench ga_end_to_end/{nodes}n_{gws}gw_{tag}    baseline {:>8.3}s  engine {:>8.3}s  speedup {:>6.1}x",
        point.baseline_solve_secs, point.engine_solve_secs, point.end_to_end_speedup
    );
    println!(
        "bench objective_eval/{nodes}n_{gws}gw_{tag}   baseline {:>10.0}/s  engine {:>10.0}/s  speedup {:>6.1}x",
        point.baseline_evals_per_sec, point.engine_evals_per_sec, point.eval_speedup
    );
    point
}

/// Interleaved repetitions per worker count in the sweep; each count
/// reports its fastest. A solve is tens of milliseconds, short enough
/// for one descheduling on a shared host to double it.
const SWEEP_REPS: usize = 7;

/// Sweep the engine GA's worker pool on the clustered problem: same
/// problem, same seed, only `GaConfig::workers` varies.
fn worker_sweep(nodes: usize, gws: usize, ga: GaConfig, counts: &[usize]) -> Vec<WorkerPoint> {
    let p = problem(nodes, gws, Reach::Topology);
    let seed = greedy_plan(&p);
    let mut best = vec![(f64::INFINITY, 0u64); counts.len()];
    for _ in 0..SWEEP_REPS {
        for (slot, &workers) in best.iter_mut().zip(counts) {
            let cfg = GaConfig { workers, ..ga };
            let (_, _, stats) = GaSolver::new(cfg).solve_seeded_stats(&p, seed.clone());
            *slot = (slot.0.min(stats.wall.as_secs_f64()), stats.evaluations);
        }
    }
    let one_secs = best[0].0;
    let point = |(&workers, &(solve_secs, evaluations)): (&usize, &(f64, u64))| {
        let speedup_vs_one = one_secs / solve_secs.max(1e-12);
        let efficiency = speedup_vs_one / workers as f64;
        println!(
            "bench ga_workers/{nodes}n_{workers}w       solve {solve_secs:>8.3}s  \
             speedup-vs-1 {speedup_vs_one:>5.2}x  efficiency {efficiency:>4.2}"
        );
        WorkerPoint {
            workers,
            solve_secs,
            evaluations,
            evals_per_sec: evaluations as f64 / solve_secs.max(1e-12),
            speedup_vs_one,
            efficiency,
        }
    };
    counts.iter().zip(&best).map(point).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ga = GaConfig {
        population: 24,
        generations: if quick { 8 } else { 16 },
        ..GaConfig::default()
    };
    let clustered = (4_000, 15, Reach::Topology);
    let scales: &[(usize, usize, Reach)] = if quick {
        &[(144, 9, Reach::Full), clustered]
    } else {
        &[
            (144, 9, Reach::Full),
            (1_000, 15, Reach::Full),
            (4_000, 15, Reach::Full),
            clustered,
        ]
    };
    // Worker sweep on the clustered problem, where a generation is
    // mostly breeding and repair: the full run covers four pool
    // widths, quick mode keeps CI honest with two.
    let (sweep_nodes, sweep_gws) = (clustered.0, clustered.1);
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };

    let report = BenchReport {
        bench: "solver".to_string(),
        quick,
        population: ga.population,
        generations: ga.generations,
        workers: GaSolver::new(ga)
            .solve_stats(&problem(16, 2, Reach::Full))
            .2
            .workers,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scales: scales
            .iter()
            .map(|&(n, g, r)| measure(n, g, r, ga))
            .collect(),
        worker_scaling_nodes: sweep_nodes,
        worker_scaling: worker_sweep(sweep_nodes, sweep_gws, ga, worker_counts),
    };

    let json = serde_json::to_string(&report).expect("bench report serializes");
    let path = bench::obs_session::write_bench_artifact("BENCH_solver.json", &json)
        .expect("bench artifact written");
    // Validate the artifact end-to-end: it must parse back into the
    // schema (the CI perf-smoke job asserts the same from jq).
    let back: BenchReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("artifact readable"))
            .expect("BENCH_solver.json parses");
    assert_eq!(back.scales.len(), scales.len());
    assert!(
        back.scales.iter().all(|s| s.engine_evals_per_sec > 0.0),
        "evaluation throughput must be measured"
    );
    assert_eq!(back.worker_scaling.len(), worker_counts.len());
    assert!(
        back.worker_scaling.iter().all(|w| w.evals_per_sec > 0.0),
        "worker sweep must be measured"
    );
    println!("wrote {}", path.display());
}
