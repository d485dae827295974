//! The evolutionary CP solver (§4.3.1: "AlphaWAN runs an evolutionary
//! algorithm on a central server to search for approximate solutions").
//!
//! Standard (μ+λ)-style GA: tournament selection, uniform crossover,
//! mutation (node reassignment, gateway channel resampling within the
//! radio window), a connectivity repair pass, and elitism. Seeded with
//! the greedy plan so the search starts feasible.
//!
//! Two implementations share the hyper-parameters:
//!
//! * The **engine path** ([`GaSolver::solve`] and friends) runs on the
//!   flat [`Genome`] encoding through the allocation-free
//!   [`eval`](super::eval) engine. A generation is one fan-out over
//!   its slots: each worker draws the next slot and does the whole of
//!   it — tournament, crossover, mutation, repair *and* scoring — into
//!   a pre-allocated genome of the double-buffered population. A slot
//!   draws only from its own deterministic RNG stream (`slot_rng`: a
//!   splitmix64 chain of seed, generation and population slot), reads
//!   only the previous generation and is scored by a pure function, so
//!   the result is byte-identical for every worker count —
//!   determinism is per (problem, config), not per machine. A worker
//!   owns its state for the whole solve: a scoring [`Scratch`] (its
//!   cell table is distinct (class, ring) reach masks × channels
//!   rounded up to a power of two, 16 bytes a cell) and a
//!   [`RepairScratch`] (one `u32` per node plus the option lists).
//! * The **reference path** ([`GaSolver::solve_reference_with`]) is the
//!   original direct-encoding loop over
//!   [`CpProblem::objective`], kept as the property-tested baseline and
//!   as the fallback for problems beyond the engine's 64-gateway /
//!   64-channel bitmask width.
//!
//! Both paths sort score-then-slot (stable sort on the objective), so
//! equal-scoring candidates keep their breeding order and runs stay
//! reproducible.

use super::eval::{
    fan_out, gene_channel, gene_ring, pack_gene, EvalContext, Genome, Scratch, MAX_ENGINE_GATEWAYS,
};
use super::greedy::greedy_plan;
use super::{CpProblem, CpSolution};
use lora_phy::pathloss::DISTANCE_RINGS;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    pub population: usize,
    pub generations: usize,
    pub tournament: usize,
    pub crossover_rate: f64,
    /// Per-node gene mutation probability.
    pub node_mutation: f64,
    /// Per-gateway channel-set mutation probability.
    pub gw_mutation: f64,
    pub elites: usize,
    pub seed: u64,
    /// When false, gateway channel sets are pinned to the seed solution
    /// (the "AlphaWAN with Strategy ① disabled" ablation, §5.1.1).
    pub optimize_gateway_channels: bool,
    /// When false, node (channel, ring) genes are pinned to the seed
    /// solution (the "without cooperation from the node side" ablation,
    /// §5.1.3).
    pub optimize_node_assignments: bool,
    /// Worker threads breeding and scoring the generation step
    /// (0 = one per available CPU core). Results are bit-identical for
    /// every value — this knob only trades wall time.
    pub workers: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 120,
            tournament: 3,
            crossover_rate: 0.9,
            node_mutation: 0.08,
            gw_mutation: 0.25,
            elites: 4,
            seed: 0x0A1F_A0AD,
            optimize_gateway_channels: true,
            optimize_node_assignments: true,
            workers: 0,
        }
    }
}

/// Work accounting for one solver run (GA or annealing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Objective evaluations performed across the whole search.
    pub evaluations: u64,
    /// Generations (GA) or iterations (annealing) executed.
    pub generations: u32,
    /// Generation-step worker threads used (1 = serial).
    pub workers: u32,
    /// Host wall-clock duration of the search.
    pub wall: Duration,
}

/// The evolutionary solver.
pub struct GaSolver {
    pub config: GaConfig,
}

impl GaSolver {
    pub fn new(config: GaConfig) -> GaSolver {
        GaSolver { config }
    }

    /// Solve `p` from the greedy seed; returns the best solution found
    /// and its objective.
    pub fn solve(&self, p: &CpProblem) -> (CpSolution, f64) {
        let (sol, obj, _) = self.solve_seeded_stats(p, greedy_plan(p));
        (sol, obj)
    }

    /// Solve `p` starting from an explicit seed solution. With the
    /// `optimize_*` flags cleared, the corresponding genes stay pinned
    /// to the seed — the paper's ablation variants.
    pub fn solve_seeded(&self, p: &CpProblem, seedling: CpSolution) -> (CpSolution, f64) {
        let (sol, obj, _) = self.solve_seeded_stats(p, seedling);
        (sol, obj)
    }

    /// [`GaSolver::solve`] plus work accounting.
    pub fn solve_stats(&self, p: &CpProblem) -> (CpSolution, f64, SolverStats) {
        self.solve_seeded_stats(p, greedy_plan(p))
    }

    /// [`GaSolver::solve_seeded`] plus work accounting.
    pub fn solve_seeded_stats(
        &self,
        p: &CpProblem,
        seedling: CpSolution,
    ) -> (CpSolution, f64, SolverStats) {
        let start = Instant::now();
        if p.n_gateways() > MAX_ENGINE_GATEWAYS || p.n_channels() > 64 {
            // Beyond the engine's bitmask width: reference loop.
            let evals = std::cell::Cell::new(0u64);
            let (sol, obj) = self.solve_reference_with(p, seedling, |p, s| {
                evals.set(evals.get() + 1);
                p.objective(s)
            });
            let stats = SolverStats {
                evaluations: evals.get(),
                generations: self.config.generations as u32,
                workers: 1,
                wall: start.elapsed(),
            };
            return (sol, obj, stats);
        }
        let (sol, obj, evaluations, generations, workers) = self.solve_engine(p, seedling);
        let stats = SolverStats {
            evaluations,
            generations,
            workers,
            wall: start.elapsed(),
        };
        (sol, obj, stats)
    }

    /// Worker-thread count for this run: the configured value, or one
    /// per available CPU core when 0, never more than the population.
    fn resolve_workers(&self) -> usize {
        let w = if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.workers
        };
        w.clamp(1, self.config.population.max(1))
    }

    /// The engine GA loop over flat genomes. Returns (solution,
    /// objective, evaluations, generations run, workers used).
    fn solve_engine(
        &self,
        p: &CpProblem,
        seedling: CpSolution,
    ) -> (CpSolution, f64, u64, u32, u32) {
        // Degenerate sizes would leave nobody to select from or index
        // past the population; clamp them once, here.
        let population = self.config.population.max(1);
        let cfg = GaConfig {
            population,
            tournament: self.config.tournament.max(1),
            elites: self.config.elites.min(population),
            ..self.config
        };
        let ctx = EvalContext::new(p);
        let mut workers: Vec<(Scratch, RepairScratch)> = (0..self.resolve_workers())
            .map(|_| (ctx.scratch(), RepairScratch::new(&ctx)))
            .collect();
        let gated = |on: bool, rate: f64| if on { rate } else { 0.0 };

        // One generation slot, bred and scored where it runs: `slot`
        // draws only from its own RNG stream and reads only the
        // immutable `parents`, so the child is the same whichever
        // worker breeds it. Generation 0 mutates clones of the seed.
        let breed = |gen: usize,
                     parents: &[(f64, Genome)],
                     slot: usize,
                     (score, child): &mut (f64, Genome),
                     (scratch, repair): &mut (Scratch, RepairScratch)| {
            let mut rng = slot_rng(cfg.seed, gen as u64, slot as u64);
            let (node_rate, gw_rate) = if gen == 0 {
                child.copy_from(&parents[0].1);
                (0.3, 0.5)
            } else {
                let a = tournament_genome(parents, cfg.tournament, &mut rng);
                if rng.gen_bool(cfg.crossover_rate) {
                    let b = tournament_genome(parents, cfg.tournament, &mut rng);
                    crossover_genome(&parents[a].1, &parents[b].1, child, &mut rng);
                } else {
                    child.copy_from(&parents[a].1);
                }
                (cfg.node_mutation, cfg.gw_mutation)
            };
            mutate_genome(
                p,
                child,
                gated(cfg.optimize_node_assignments, node_rate),
                gated(cfg.optimize_gateway_channels, gw_rate),
                &mut rng,
            );
            if cfg.optimize_node_assignments {
                repair_genome(&ctx, child, repair, &mut rng);
            }
            *score = ctx.score(child, scratch);
        };

        // The population is double-buffered: `scored` holds the sorted
        // parents, `spare` the genomes the next children are written
        // into; after a step the two trade places slot for slot, so no
        // generation allocates.
        let seed = (0.0, Genome::from_solution(&seedling));
        let mut scored = vec![seed.clone(); cfg.population];
        let mut spare = vec![seed.clone(); cfg.population - cfg.elites];
        scored[0].0 = ctx.score(&seed.1, &mut workers[0].0);
        fan_out(&mut scored[1..], &mut workers, |k, child, w| {
            breed(0, std::slice::from_ref(&seed), k + 1, child, w)
        });
        let mut evaluations = cfg.population as u64;
        sort_scored_genomes(&mut scored);

        let mut generations_run = 0u32;
        for gen in 1..=cfg.generations {
            if scored[0].0 == 0.0 || spare.is_empty() {
                break; // contention-free plan found, or nobody to breed
            }
            generations_run = gen as u32;
            fan_out(&mut spare, &mut workers, |k, child, w| {
                breed(gen, &scored, cfg.elites + k, child, w)
            });
            evaluations += spare.len() as u64;
            // Elites + children, stable-sorted on the objective
            // (score-then-sort keeps ties in slot order regardless of
            // the worker count).
            scored[cfg.elites..].swap_with_slice(&mut spare);
            sort_scored_genomes(&mut scored);
        }

        let (best_score, best) = scored.swap_remove(0);
        (
            best.to_solution(),
            best_score,
            evaluations,
            generations_run,
            workers.len() as u32,
        )
    }

    /// The reference loop from the greedy seedling over
    /// [`CpProblem::objective`]: the baseline the engine is
    /// property-tested against.
    #[cfg(test)]
    fn solve_reference(&self, p: &CpProblem) -> (CpSolution, f64) {
        self.solve_reference_with(p, greedy_plan(p), |p, s| p.objective(s))
    }

    /// The pre-engine GA loop over the direct encoding, from an explicit
    /// seedling and scoring with a caller-supplied objective function —
    /// the fallback beyond the engine's bitmask width.
    pub fn solve_reference_with<F>(
        &self,
        p: &CpProblem,
        seedling: CpSolution,
        objective: F,
    ) -> (CpSolution, f64)
    where
        F: Fn(&CpProblem, &CpSolution) -> f64,
    {
        let cfg = &self.config;
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
        let mut repair_buf: Vec<(usize, usize)> = Vec::new();
        let mut population: Vec<CpSolution> = Vec::with_capacity(cfg.population);
        population.push(seedling.clone());
        while population.len() < cfg.population {
            let mut s = seedling.clone();
            mutate(p, &mut s, node_rate0, gw_rate0, &mut rng);
            if cfg.optimize_node_assignments {
                repair(p, &mut s, &mut repair_buf, &mut rng);
            }
            population.push(s);
        }

        let mut scored: Vec<(f64, CpSolution)> = population
            .into_iter()
            .map(|s| (objective(p, &s), s))
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
                    repair(p, &mut child, &mut repair_buf, &mut rng);
                }
                let score = objective(p, &child);
                next.push((score, child));
            }
            scored = next;
            sort_scored(&mut scored);
            if scored[0].0 == 0.0 {
                break; // contention-free plan found
            }
        }

        let (best_score, best) = scored.swap_remove(0);
        (best, best_score)
    }
}

/// splitmix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators").
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic RNG stream breeding child `slot` of generation
/// `generation`: a splitmix64 chain of (seed, generation, slot). Each
/// child draws only from its own stream, which is what lets breeding
/// and scoring parallelize without perturbing the search trajectory.
pub(crate) fn slot_rng(seed: u64, generation: u64, slot: u64) -> StdRng {
    let mixed =
        splitmix64(splitmix64(splitmix64(seed).wrapping_add(generation)).wrapping_add(slot));
    StdRng::seed_from_u64(mixed)
}

fn sort_scored_genomes(scored: &mut [(f64, Genome)]) {
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
}

fn tournament_genome(scored: &[(f64, Genome)], k: usize, rng: &mut StdRng) -> usize {
    (0..k)
        .map(|_| rng.gen_range(0..scored.len()))
        .min_by(|&a, &b| scored[a].0.total_cmp(&scored[b].0))
        .expect("tournament size > 0")
}

/// Visit every index in `0..n` selected by an independent
/// Bernoulli(`rate`) trial, drawing O(selected) random numbers via
/// geometric jumps instead of one coin per index. Distribution-
/// equivalent to per-index `gen_bool(rate)` coins but not
/// draw-sequence-compatible with them — the engine path owns its
/// per-slot RNG streams, so only self-consistency matters, and on
/// large instances the per-gene coin cascade dominated breeding time.
fn bernoulli_hits<F: FnMut(usize, &mut StdRng)>(n: usize, rate: f64, rng: &mut StdRng, mut hit: F) {
    if rate <= 0.0 || n == 0 {
        return;
    }
    if rate >= 1.0 {
        for i in 0..n {
            hit(i, rng);
        }
        return;
    }
    let denom = (1.0 - rate).ln();
    let mut i = 0usize;
    loop {
        // Geometric(rate) gap; ln(0)/denom = +inf saturates past `n`.
        let u: f64 = rng.gen_range(0.0..1.0);
        let skip = (u.ln() / denom) as usize;
        i = match i.checked_add(skip) {
            Some(v) if v < n => v,
            _ => return,
        };
        hit(i, rng);
        i += 1;
    }
}

/// Uniform crossover on the flat encoding, written into `child`: one
/// coin per node keeps its (channel, ring) gene paired, one coin per
/// gateway picks a parent's whole channel mask. Coins come 64 at a
/// time from single `u64` draws, low bit first, the gateways carrying
/// on in the word the nodes left off in. A coin turns into a select
/// mask, not a branch — a fair coin mispredicts every other gene.
fn crossover_genome(a: &Genome, b: &Genome, child: &mut Genome, rng: &mut StdRng) {
    let mut bits = 0u64;
    let genes = a.gene.chunks(64).zip(b.gene.chunks(64));
    for (out, (ga, gb)) in child.gene.chunks_mut(64).zip(genes) {
        bits = rng.next_u64();
        for (t, (slot, (&ga, &gb))) in out.iter_mut().zip(ga.iter().zip(gb)).enumerate() {
            let take_b = ((bits >> t) as u16 & 1).wrapping_neg();
            *slot = ga ^ ((ga ^ gb) & take_b);
        }
    }
    let used = a.gene.len() % 64;
    let mut left = (64 - used) % 64;
    bits >>= used;
    let masks = a.gw_mask.iter().zip(&b.gw_mask);
    for (slot, (&ma, &mb)) in child.gw_mask.iter_mut().zip(masks) {
        if left == 0 {
            bits = rng.next_u64();
            left = 64;
        }
        *slot = if bits & 1 == 1 { mb } else { ma };
        bits >>= 1;
        left -= 1;
    }
}

/// Mutate node genes and gateway masks in place — the flat-encoding
/// counterpart of [`mutate`], with each Bernoulli cascade run through
/// [`bernoulli_hits`] so the cost scales with mutations applied rather
/// than genome length.
fn mutate_genome(p: &CpProblem, g: &mut Genome, node_rate: f64, gw_rate: f64, rng: &mut StdRng) {
    let n_ch = p.n_channels();
    let n = g.gene.len();
    bernoulli_hits(n, node_rate, rng, |i, rng| {
        g.gene[i] = pack_gene(rng.gen_range(0..n_ch), gene_ring(g.gene[i]));
    });
    bernoulli_hits(n, node_rate, rng, |i, rng| {
        g.gene[i] = pack_gene(gene_channel(g.gene[i]), rng.gen_range(0..DISTANCE_RINGS));
    });
    bernoulli_hits(g.gw_mask.len(), gw_rate, rng, |j, rng| {
        g.gw_mask[j] = resample_gw_mask(p, j, rng);
    });
}

/// Fresh channel mask for gateway `j`: a random count within budget
/// drawn from a random window satisfying the bandwidth constraint —
/// [`resample_gateway_channels`] without the heap (partial
/// Fisher–Yates over a stack array; the engine guarantees ≤ 64
/// channels).
pub(crate) fn resample_gw_mask(p: &CpProblem, j: usize, rng: &mut StdRng) -> u64 {
    let n_ch = p.n_channels();
    let window = p.window_channels(j).max(1).min(n_ch);
    let start = rng.gen_range(0..=n_ch - window);
    let budget = p.gw_limits[j].max_channels.min(window);
    let count = rng.gen_range(1..=budget);
    let mut chans = [0usize; 64];
    for (slot, ch) in chans[..window].iter_mut().zip(start..) {
        *slot = ch;
    }
    let mut mask = 0u64;
    for i in 0..count {
        let swap = rng.gen_range(i..window);
        chans.swap(i, swap);
        mask |= 1 << chans[i];
    }
    mask
}

/// A reach class this populous answers its repairs from a per-child
/// option list; a smaller one walks the masks per repair. Measured on
/// the 11.8 k-node log-derived problem, building a list (~50 options)
/// costs about as much as three walks and about a third of a class is
/// disconnected per child, so a list pays from ~9 nodes up.
const LIST_MIN_NODES: usize = 16;

/// Per-worker repair state: the disconnected nodes of the child being
/// repaired, and its (channel, ring) option lists, one per populous
/// reach class, built the first time the class needs a repair in that
/// child. Sized at construction for the worst case (every node
/// disconnected, every populous class listed).
pub struct RepairScratch {
    /// Indices of the current child's disconnected nodes, ascending.
    disconnected: Vec<u32>,
    /// Every list of the current child, back to back.
    options: Vec<u16>,
    /// `(start, len)` of each class's list in `options`; `start ==
    /// UNBUILT` until the class is first repaired in this child.
    list: Vec<(u32, u32)>,
    lists_built: u64,
}

const UNBUILT: u32 = u32::MAX;

impl RepairScratch {
    /// Allocate for `ctx`'s problem: room for the longest list every
    /// populous class can have, so repairing never allocates.
    pub fn new(ctx: &EvalContext) -> RepairScratch {
        let n_ch = ctx.problem().n_channels();
        let bound = |c: usize| -> usize {
            (0..DISTANCE_RINGS)
                .map(|l| ctx.class_reach_mask(c, l).count_ones() as usize * n_ch)
                .sum()
        };
        let listed = (0..ctx.n_classes()).filter(|&c| ctx.class_nodes(c) >= LIST_MIN_NODES);
        RepairScratch {
            disconnected: vec![0; ctx.problem().n_nodes()],
            options: Vec::with_capacity(listed.map(bound).sum()),
            list: vec![(UNBUILT, 0); ctx.n_classes()],
            lists_built: 0,
        }
    }

    /// Option lists built since construction.
    pub fn lists_built(&self) -> u64 {
        self.lists_built
    }
}

/// Connectivity repair on the flat encoding. The listener masks and
/// per-gateway channel counts are built once per pass; each
/// disconnected node then draws uniformly, with one RNG draw, from its
/// feasible (ring, gateway, channel) option multiset — the same
/// multiset, in the same order, the reference repair enumerates into
/// its options buffer. Nodes of one reach class share that multiset:
/// a populous class enumerates it once per child and every repair is
/// a load; a small class finds the drawn option by O(set bits) mask
/// walks, never enumerating. No heap use either way.
///
/// The disconnected nodes are listed first, in one pass that writes
/// every index and advances only past the disconnected ones — about a
/// third of the nodes in no pattern a branch predictor learns. Repair
/// never changes a gateway mask, so a node's connectivity does not
/// depend on earlier repairs, and repairing the list in node order
/// draws exactly what checking and repairing node by node would.
pub fn repair_genome(ctx: &EvalContext, g: &mut Genome, s: &mut RepairScratch, rng: &mut StdRng) {
    let mut listeners = [0u64; 64];
    let mut nch = [0u32; 64];
    for (j, &mask) in g.gw_mask.iter().enumerate() {
        nch[j] = mask.count_ones();
        let mut m = mask;
        while m != 0 {
            listeners[m.trailing_zeros() as usize] |= 1 << j;
            m &= m - 1;
        }
    }
    let mut n = 0usize;
    for (i, &gene) in g.gene.iter().enumerate() {
        let serve =
            ctx.class_reach_mask(ctx.class_of(i), gene_ring(gene)) & listeners[gene_channel(gene)];
        s.disconnected[n] = i as u32;
        n += (serve == 0) as usize;
    }
    s.options.clear();
    s.list.fill((UNBUILT, 0));
    for k in 0..n {
        let i = s.disconnected[k] as usize;
        let c = ctx.class_of(i);
        if ctx.class_nodes(c) < LIST_MIN_NODES {
            if let Some(option) = walk_to_option(ctx, c, &g.gw_mask, &nch, rng) {
                g.gene[i] = option;
            }
            continue;
        }
        if s.list[c].0 == UNBUILT {
            let start = s.options.len();
            for l in 0..DISTANCE_RINGS {
                let mut m = ctx.class_reach_mask(c, l);
                while m != 0 {
                    let mut gm = g.gw_mask[m.trailing_zeros() as usize];
                    while gm != 0 {
                        s.options.push(pack_gene(gm.trailing_zeros() as usize, l));
                        gm &= gm - 1;
                    }
                    m &= m - 1;
                }
            }
            s.list[c] = (start as u32, (s.options.len() - start) as u32);
            s.lists_built += 1;
        }
        let (start, len) = s.list[c];
        if len > 0 {
            g.gene[i] = s.options[start as usize + rng.gen_range(0..len as usize)];
        }
    }
}

/// Draw one option for a disconnected node of class `c` without
/// enumerating the multiset: every gateway hearing ring `l` adds one
/// option per channel it listens on (`nch`), so per-ring totals are
/// sums of channel counts over the ring's reach bits and the drawn
/// index walks down ring → gateway → channel. `None`, and no draw,
/// when the class has no option at all.
fn walk_to_option(
    ctx: &EvalContext,
    c: usize,
    gw_mask: &[u64],
    nch: &[u32; 64],
    rng: &mut StdRng,
) -> Option<u16> {
    let mut ring_total = [0usize; DISTANCE_RINGS];
    let mut total = 0usize;
    for (l, slot) in ring_total.iter_mut().enumerate() {
        let mut m = ctx.class_reach_mask(c, l);
        let mut acc = 0usize;
        while m != 0 {
            acc += nch[m.trailing_zeros() as usize] as usize;
            m &= m - 1;
        }
        *slot = acc;
        total += acc;
    }
    if total == 0 {
        return None;
    }
    let mut pick = rng.gen_range(0..total);
    for (l, &ring_options) in ring_total.iter().enumerate() {
        if pick >= ring_options {
            pick -= ring_options;
            continue;
        }
        let mut m = ctx.class_reach_mask(c, l);
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            let w = nch[j] as usize;
            if pick < w {
                // The pick-th listened channel of gateway j.
                let mut gm = gw_mask[j];
                for _ in 0..pick {
                    gm &= gm - 1;
                }
                return Some(pack_gene(gm.trailing_zeros() as usize, l));
            }
            pick -= w;
            m &= m - 1;
        }
    }
    unreachable!("pick < total = the options the rings hold")
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

/// Uniform crossover over per-node genes and per-gateway channel sets.
fn crossover(a: &CpSolution, b: &CpSolution, rng: &mut StdRng) -> CpSolution {
    let node_channel = a
        .node_channel
        .iter()
        .zip(&b.node_channel)
        .zip(a.node_ring.iter().zip(&b.node_ring))
        .map(|((ca, cb), _)| if rng.gen_bool(0.5) { *ca } else { *cb })
        .collect::<Vec<_>>();
    // Keep (channel, ring) genes paired: resample the same coin per node.
    let node_ring: Vec<_> = node_channel
        .iter()
        .zip(&a.node_channel)
        .zip(a.node_ring.iter().zip(&b.node_ring))
        // Ring follows whichever parent supplied the channel.
        .map(|((ch, ach), (ar, br))| if ch == ach { *ar } else { *br })
        .collect();
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

/// Mutate node genes and gateway channel sets in place.
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

/// Give gateway `j` a fresh channel set: a random count within budget,
/// drawn from a random window that satisfies the bandwidth constraint.
fn resample_gateway_channels(p: &CpProblem, sol: &mut CpSolution, j: usize, rng: &mut StdRng) {
    let n_ch = p.n_channels();
    let window = p.window_channels(j).max(1).min(n_ch);
    let start = rng.gen_range(0..=n_ch - window);
    let budget = p.gw_limits[j].max_channels.min(window);
    let count = rng.gen_range(1..=budget);
    let mut chans: Vec<usize> = (start..start + window).collect();
    // Fisher–Yates partial shuffle to pick `count` distinct channels.
    for i in 0..count {
        let swap = rng.gen_range(i..chans.len());
        chans.swap(i, swap);
    }
    chans.truncate(count);
    chans.sort_unstable();
    sol.gw_channels[j] = chans;
}

/// Connectivity repair: every node must have a gateway listening on its
/// channel within ring reach; try the cheapest feasible fix per node.
/// `options` is a caller-owned buffer reused across nodes (and across
/// repair passes), so the per-node option list costs no allocation
/// once warm.
fn repair(
    p: &CpProblem,
    sol: &mut CpSolution,
    options: &mut Vec<(usize, usize)>,
    rng: &mut StdRng,
) {
    let masks: Vec<u64> = sol
        .gw_channels
        .iter()
        .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
        .collect();
    for i in 0..sol.node_channel.len() {
        let connected = (0..p.n_gateways())
            .any(|j| (masks[j] >> sol.node_channel[i]) & 1 == 1 && p.reach[i][j][sol.node_ring[i]]);
        if connected {
            continue;
        }
        // Collect all feasible (channel, ring) options for this node.
        options.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::brute::brute_force;
    use crate::cp::GatewayLimits;
    use lora_phy::channel::ChannelGrid;

    fn full_reach(nodes: usize, gws: usize) -> Vec<Vec<[bool; DISTANCE_RINGS]>> {
        vec![vec![[true; DISTANCE_RINGS]; gws]; nodes]
    }

    fn solver() -> GaSolver {
        GaSolver::new(GaConfig {
            population: 32,
            generations: 60,
            ..GaConfig::default()
        })
    }

    #[test]
    fn ga_finds_contention_free_plan_when_one_exists() {
        // 5 gateways × 16 decoders ≥ 48 users; 8 channels × 6 DRs = 48
        // slots: a zero-objective plan exists (Fig 5a's 16→48 result).
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(48, 5),
            vec![1.0; 48],
            vec![GatewayLimits::sx1302(); 5],
        );
        let (sol, score) = solver().solve(&p);
        assert!(p.feasible(&sol));
        assert!(p.all_connected(&sol));
        assert_eq!(score, 0.0, "a perfect plan exists and must be found");
    }

    #[test]
    fn ga_beats_or_matches_greedy() {
        let channels = ChannelGrid::standard(916_800_000, 3_200_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(96, 7),
            vec![1.0; 96],
            vec![GatewayLimits::sx1302(); 7],
        );
        let greedy_obj = p.objective(&greedy_plan(&p));
        let (_, ga_obj) = solver().solve(&p);
        assert!(
            ga_obj <= greedy_obj,
            "GA {ga_obj} worse than greedy {greedy_obj}"
        );
    }

    #[test]
    fn ga_matches_brute_force_on_tiny_instance() {
        // 2 channels, 1 gateway, 3 nodes: exhaustively searchable.
        let channels = ChannelGrid::standard(920_000_000, 400_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(3, 1),
            vec![1.0, 2.0, 1.0],
            vec![GatewayLimits {
                decoders: 2,
                max_channels: 2,
                bandwidth_hz: 1_600_000,
            }],
        );
        let (_, brute_obj) = brute_force(&p);
        let (_, ga_obj) = solver().solve(&p);
        assert!(
            (ga_obj - brute_obj).abs() < 1e-9,
            "GA {ga_obj} vs brute {brute_obj}"
        );
    }

    #[test]
    fn ga_deterministic_per_seed() {
        let channels = ChannelGrid::standard(920_000_000, 1_600_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(24, 3),
            vec![1.0; 24],
            vec![GatewayLimits::sx1302(); 3],
        );
        let (s1, o1) = solver().solve(&p);
        let (s2, o2) = solver().solve(&p);
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn ga_bit_identical_across_worker_counts() {
        let channels = ChannelGrid::standard(920_000_000, 1_600_000).channels();
        let full = CpProblem::new(
            channels,
            full_reach(24, 3),
            vec![1.0; 24],
            vec![GatewayLimits::sx1302(); 3],
        );
        // Full reach never needs a repair; the clustered problem
        // repairs through both the option lists and the mask walk.
        for p in [full, clustered_problem()] {
            let runs: Vec<(CpSolution, f64)> = [1usize, 2, 3, 8]
                .iter()
                .map(|&workers| {
                    GaSolver::new(GaConfig {
                        population: 24,
                        generations: 20,
                        workers,
                        ..GaConfig::default()
                    })
                    .solve(&p)
                })
                .collect();
            for run in &runs[1..] {
                assert_eq!(runs[0].0, run.0);
                assert_eq!(runs[0].1.to_bits(), run.1.to_bits());
            }
        }
    }

    #[test]
    fn ga_output_always_feasible() {
        // Constrained instance: narrow per-gateway budgets.
        let channels = ChannelGrid::standard(920_000_000, 4_800_000).channels();
        let limits = GatewayLimits {
            decoders: 8,
            max_channels: 3,
            bandwidth_hz: 1_600_000,
        };
        let p = CpProblem::new(channels, full_reach(30, 4), vec![1.0; 30], vec![limits; 4]);
        let (sol, _) = solver().solve(&p);
        assert!(p.feasible(&sol));
    }

    #[test]
    fn reference_path_matches_engine_objective_reporting() {
        // Both paths must report the objective of the solution they
        // return (engine scores are exact for integer traffic).
        let channels = ChannelGrid::standard(920_000_000, 1_600_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(16, 2),
            vec![1.0; 16],
            vec![GatewayLimits::sx1302(); 2],
        );
        let s = solver();
        let (sol, obj) = s.solve(&p);
        assert_eq!(obj.to_bits(), p.objective(&sol).to_bits());
        let (rsol, robj) = s.solve_reference(&p);
        assert_eq!(robj.to_bits(), p.objective(&rsol).to_bits());
    }

    #[test]
    fn stats_account_evaluations_and_workers() {
        let channels = ChannelGrid::standard(920_000_000, 1_600_000).channels();
        let p = CpProblem::new(
            channels,
            full_reach(12, 2),
            vec![2.0; 12],
            vec![GatewayLimits::sx1302(); 2],
        );
        let solver = GaSolver::new(GaConfig {
            population: 16,
            generations: 10,
            workers: 2,
            ..GaConfig::default()
        });
        let (_, _, stats) = solver.solve_stats(&p);
        assert!(stats.evaluations >= 16, "at least the initial population");
        assert_eq!(stats.workers, 2);
        let (_, _, again) = solver.solve_stats(&p);
        assert_eq!(
            again.evaluations, stats.evaluations,
            "a fixed seed counts the same work"
        );
    }

    /// Clustered reach over `gws` gateways of which the last is heard
    /// by nobody: node `i` sits in cluster `i % (gws − 1)` and hears
    /// gateway `j` from ring `2·((j − cluster) mod (gws − 1)) + i % 3`
    /// upwards — `3·(gws − 1)` populous reach classes. The last ten
    /// nodes are stragglers with a row each (non-monotone in the ring),
    /// the very last one hearing no gateway at all.
    fn clustered_reach(nodes: usize, gws: usize) -> Vec<Vec<[bool; DISTANCE_RINGS]>> {
        let clusters = gws - 1;
        let row = |i: usize, j: usize| -> [bool; DISTANCE_RINGS] {
            let hops = (j + clusters - i % clusters) % clusters;
            std::array::from_fn(|l| match (j == clusters, nodes - i) {
                (true, _) | (_, 1) => false,
                (_, 2..=10) => (i * 7 + j * 3 + l).is_multiple_of(4),
                _ => l >= 2 * hops + i % 3,
            })
        };
        (0..nodes)
            .map(|i| (0..gws).map(|j| row(i, j)).collect())
            .collect()
    }

    fn clustered_problem() -> CpProblem {
        let channels = ChannelGrid::standard(916_800_000, 4_800_000).channels();
        CpProblem::new(
            channels,
            clustered_reach(310, 6),
            (0..310).map(|i| 1.0 + (i % 4) as f64).collect(),
            vec![GatewayLimits::sx1302(); 6],
        )
    }

    /// FNV-1a over every decision of a solution.
    fn fingerprint(sol: &CpSolution) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: usize| {
            h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
        };
        for chs in &sol.gw_channels {
            eat(chs.len());
            chs.iter().for_each(|&k| eat(k));
        }
        sol.node_channel.iter().for_each(|&k| eat(k));
        sol.node_ring.iter().for_each(|&l| eat(l));
        h
    }

    /// Everybody on channel 0 at the longest ring, every gateway
    /// listening there only: a seed the GA improves on in every
    /// generation, so its answer depends on the whole trajectory (from
    /// the greedy seed these small problems return the seed itself).
    fn crowded_seed(p: &CpProblem) -> CpSolution {
        CpSolution {
            gw_channels: vec![vec![0]; p.n_gateways()],
            node_channel: vec![0; p.n_nodes()],
            node_ring: vec![DISTANCE_RINGS - 1; p.n_nodes()],
        }
    }

    /// The GA trajectory is pinned: fingerprints and objective bits
    /// recorded from the serial-breeding solver (PR 13) must come back
    /// at every worker count — 3 does not divide the 44 children.
    #[test]
    fn ga_trajectory_matches_golden_pins() {
        let full = {
            let channels = ChannelGrid::standard(916_800_000, 3_200_000).channels();
            CpProblem::new(
                channels,
                full_reach(96, 7),
                vec![3.0; 96],
                vec![GatewayLimits::sx1302(); 7],
            )
        };
        let pins = [
            (
                &full,
                10usize,
                0xFA77_E5E2_B885_050Au64,
                0x40C8_9600_0000_0000u64,
            ),
            (
                &clustered_problem(),
                20,
                0xEFB2_D5BD_A8C8_9DD1,
                0x40FC_5BC0_0000_0000,
            ),
        ];
        for (p, generations, want_fp, want_bits) in pins {
            for workers in [1usize, 2, 3, 8] {
                let (sol, obj) = GaSolver::new(GaConfig {
                    generations,
                    workers,
                    ..GaConfig::default()
                })
                .solve_seeded(p, crowded_seed(p));
                assert_eq!(
                    (fingerprint(&sol), obj.to_bits()),
                    (want_fp, want_bits),
                    "workers {workers}: objective {obj}"
                );
            }
        }
    }

    /// Degenerate sizes are clamped at solve entry instead of indexing
    /// an empty population or selecting from nobody.
    #[test]
    fn degenerate_configs_return_a_plan_instead_of_panicking() {
        let p = clustered_problem();
        let seed = crowded_seed(&p);
        let seed_obj = p.objective(&seed);
        let solve = |cfg: GaConfig| GaSolver::new(cfg).solve_seeded_stats(&p, seed.clone());
        let base = GaConfig {
            generations: 3,
            ..GaConfig::default()
        };
        // Nobody but the seed: it comes back untouched.
        let (sol, obj, stats) = solve(GaConfig {
            population: 0,
            ..base
        });
        assert_eq!((sol, obj.to_bits()), (seed.clone(), seed_obj.to_bits()));
        assert_eq!((stats.evaluations, stats.generations), (1, 0));
        // Every slot an elite: generation 0 is all there is.
        for elites in [8, 9, usize::MAX] {
            let (sol, obj, stats) = solve(GaConfig {
                population: 8,
                elites,
                ..base
            });
            assert!(obj <= seed_obj && obj.to_bits() == p.objective(&sol).to_bits());
            assert_eq!((stats.evaluations, stats.generations), (8, 0));
        }
        // A tournament of nobody selects like a tournament of one.
        let of_one = solve(GaConfig {
            tournament: 1,
            ..base
        });
        let of_none = solve(GaConfig {
            tournament: 0,
            ..base
        });
        assert_eq!(
            (of_none.0, of_none.1.to_bits()),
            (of_one.0, of_one.1.to_bits())
        );
        assert!(of_none.1 <= seed_obj);
    }
}
