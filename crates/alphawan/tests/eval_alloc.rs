//! Heap-allocation audit for the evaluation engine's hot path.
//!
//! A counting global allocator wraps the system allocator; after
//! [`EvalContext`]/[`Scratch`]/[`IncrementalEval`] construction and one
//! warm-up pass, full scores and incremental moves must perform zero
//! heap allocations — and so must every GA generation step after the
//! first (breed + repair + score of every child). This is the binary's
//! only test so no concurrent test can perturb the counter.

use alphawan::cp::eval::{pack_gene, EvalContext, Genome, IncrementalEval};
use alphawan::cp::ga::{GaConfig, GaSolver};
use alphawan::cp::{CpProblem, CpSolution, GatewayLimits};
use alphawan::greedy_plan;
use lora_phy::channel::ChannelGrid;
use lora_phy::pathloss::DISTANCE_RINGS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn scoring_hot_path_never_allocates() {
    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let nodes = 96usize;
    let gws = 5usize;
    let reach = vec![vec![[true; DISTANCE_RINGS]; gws]; nodes];
    let p = CpProblem::new(
        channels,
        reach,
        vec![1.0; nodes],
        vec![GatewayLimits::sx1302(); gws],
    );
    let ctx = EvalContext::new(&p);
    let mut scratch = ctx.scratch();
    let genome = Genome::from_solution(&greedy_plan(&p));
    let mut inc = IncrementalEval::new(&ctx, genome.clone());
    let n_ch = p.n_channels();

    // Warm-up: first calls may touch lazily-sized internals.
    let warm = ctx.score(&genome, &mut scratch);
    inc.set_node_gene(0, pack_gene(1 % n_ch, 3));
    inc.set_gw_mask(0, 0b101);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0.0;
    for round in 0..100u64 {
        acc += ctx.score(&genome, &mut scratch);
        let i = (round as usize * 7) % nodes;
        let old = inc.set_node_gene(
            i,
            pack_gene((round as usize) % n_ch, (i + 1) % DISTANCE_RINGS),
        );
        inc.swap_nodes(i, (i + 13) % nodes);
        inc.set_gw_mask((round as usize) % gws, 1 << (round % n_ch as u64));
        inc.set_node_gene(i, old);
        acc += inc.score();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(acc.is_finite() && warm.is_finite());
    assert_eq!(
        after - before,
        0,
        "the scoring hot path heap-allocated {} times",
        after - before
    );
    ga_generations_never_allocate();
}

/// Heap allocations of one serial GA solve of `generations`
/// generations (worker threads would add their spawns).
fn solve_allocations(p: &CpProblem, seed: &CpSolution, generations: usize) -> u64 {
    let solver = GaSolver::new(GaConfig {
        generations,
        workers: 1,
        ..GaConfig::default()
    });
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, obj, stats) = solver.solve_seeded_stats(p, seed.clone());
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(obj > 0.0, "an early exit would run fewer generations");
    assert_eq!(stats.generations as usize, generations);
    after - before
}

/// A solve allocates while it sets up (context, worker scratches, the
/// double-buffered population) and when it expands the winner, the
/// same number of times whatever the generation count: 2 generations
/// and 14 cost equally many heap allocations, so the 12 × 44 children
/// in between cost none. The
/// problem has three populous reach classes (repaired from option
/// lists), a handful of one-node classes (repaired by the mask walk)
/// and a seed crowded onto one channel, so every child needs repairs.
fn ga_generations_never_allocate() {
    let channels = ChannelGrid::standard(916_800_000, 3_200_000).channels();
    let (nodes, gws) = (240usize, 4usize);
    let reach = (0..nodes)
        .map(|i| {
            (0..gws)
                .map(|j| -> [bool; DISTANCE_RINGS] {
                    if i < 8 {
                        std::array::from_fn(|l| (i >> (j % 3)) & 1 == 1 && l >= j)
                    } else {
                        std::array::from_fn(|l| j != 3 && l >= (i + j) % 3)
                    }
                })
                .collect()
        })
        .collect();
    let p = CpProblem::new(
        channels,
        reach,
        vec![2.0; nodes],
        vec![GatewayLimits::sx1302(); gws],
    );
    let crowded = CpSolution {
        gw_channels: vec![vec![0]; gws],
        node_channel: vec![0; nodes],
        node_ring: vec![DISTANCE_RINGS - 1; nodes],
    };
    let (short, long) = (
        solve_allocations(&p, &crowded, 2),
        solve_allocations(&p, &crowded, 14),
    );
    assert_eq!(
        long,
        short,
        "12 more generations heap-allocated {} more times",
        long as i64 - short as i64
    );
}
