//! Property tests for the CP evaluation engine: the incremental
//! evaluator must track the full recompute bit-for-bit through
//! arbitrary mutation chains, the cell-folded full score must equal a
//! per-node rebuild on every reach-table shape, the GA must be
//! bit-identical across worker counts, the
//! engine must reproduce the serial reference objective exactly on
//! integer traffic, and the class-lookup repair must reproduce the
//! per-node mask walk it replaced, draw for draw.

use alphawan::cp::eval::{
    gene_channel, gene_ring, pack_gene, EvalContext, Genome, IncrementalEval,
};
use alphawan::cp::ga::{repair_genome, GaConfig, GaSolver, RepairScratch};
use alphawan::cp::{CpProblem, GatewayLimits};
use lora_phy::channel::ChannelGrid;
use lora_phy::pathloss::DISTANCE_RINGS;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A randomized CP instance. `integer_traffic` selects the regime where
/// the engine's fixed-point arithmetic is provably exact against the
/// floating-point reference.
fn build_problem(
    seed: u64,
    nodes: usize,
    gws: usize,
    n_ch: usize,
    integer_traffic: bool,
) -> CpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = ChannelGrid::standard(916_800_000, n_ch as u32 * 200_000).channels();
    let reach = (0..nodes)
        .map(|_| {
            (0..gws)
                .map(|_| {
                    let mut row = [false; DISTANCE_RINGS];
                    for slot in row.iter_mut() {
                        *slot = rng.gen_bool(0.7);
                    }
                    row
                })
                .collect()
        })
        .collect();
    let traffic = (0..nodes)
        .map(|_| {
            if integer_traffic {
                rng.gen_range(1..5u32) as f64
            } else {
                rng.gen_range(0.1..5.0f64)
            }
        })
        .collect();
    let limits = (0..gws)
        .map(|_| GatewayLimits {
            decoders: rng.gen_range(1..6),
            max_channels: rng.gen_range(1..=n_ch.min(8)),
            bandwidth_hz: 1_600_000,
        })
        .collect();
    CpProblem::new(channels, reach, traffic, limits)
}

fn random_genome(p: &CpProblem, rng: &mut StdRng) -> Genome {
    let n_ch = p.n_channels();
    let gene = (0..p.n_nodes())
        .map(|_| pack_gene(rng.gen_range(0..n_ch), rng.gen_range(0..DISTANCE_RINGS)))
        .collect();
    let gw_mask = (0..p.n_gateways())
        .map(|_| random_mask(n_ch, rng))
        .collect();
    Genome { gene, gw_mask }
}

/// The repair oracle: the per-node mask walk `repair_genome` was before
/// it learnt reach classes and option lists, kept verbatim (PR 13).
fn repair_oracle(ctx: &EvalContext, g: &mut Genome, rng: &mut StdRng) {
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
    'node: for i in 0..g.gene.len() {
        let gene = g.gene[i];
        if ctx.reach_mask(i, gene_ring(gene)) & listeners[gene_channel(gene)] != 0 {
            continue;
        }
        // Every gateway hearing ring `l` contributes one option per
        // channel it listens on, so per-ring totals are sums of
        // channel counts over the ring's reach bits.
        let mut ring_total = [0usize; DISTANCE_RINGS];
        let mut total = 0usize;
        for (l, slot) in ring_total.iter_mut().enumerate() {
            let mut m = ctx.reach_mask(i, l);
            let mut acc = 0usize;
            while m != 0 {
                acc += nch[m.trailing_zeros() as usize] as usize;
                m &= m - 1;
            }
            *slot = acc;
            total += acc;
        }
        if total == 0 {
            continue;
        }
        let mut pick = rng.gen_range(0..total);
        for (l, &ring_options) in ring_total.iter().enumerate() {
            if pick >= ring_options {
                pick -= ring_options;
                continue;
            }
            let mut m = ctx.reach_mask(i, l);
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                let w = nch[j] as usize;
                if pick < w {
                    // The pick-th listened channel of gateway j.
                    let mut gm = g.gw_mask[j];
                    for _ in 0..pick {
                        gm &= gm - 1;
                    }
                    g.gene[i] = pack_gene(gm.trailing_zeros() as usize, l);
                    continue 'node;
                }
                pick -= w;
                m &= m - 1;
            }
        }
    }
}

/// A CP instance whose reach table is shaped by `rows`: that many
/// distinct random rows (non-monotone in the ring, possibly empty)
/// dealt to the nodes round-robin; `rows ≥ nodes` gives every node a
/// row of its own (made distinct by construction), 1 gives all one.
fn reach_table_problem(seed: u64, nodes: usize, gws: usize, n_ch: usize, rows: usize) -> CpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = ChannelGrid::standard(916_800_000, n_ch as u32 * 200_000).channels();
    let table: Vec<Vec<[bool; DISTANCE_RINGS]>> = (0..rows.min(nodes))
        .map(|r| {
            let density = [0.0, 0.15, 0.5, 0.9][rng.gen_range(0..4usize)];
            (0..gws)
                .map(|j| {
                    let mut row = [false; DISTANCE_RINGS];
                    for slot in row.iter_mut() {
                        *slot = rng.gen_bool(density);
                    }
                    if rows >= nodes && gws * DISTANCE_RINGS >= 16 {
                        // Stamp the row index into the first 16 cells.
                        for (bit, slot) in row.iter_mut().enumerate() {
                            let cell = j * DISTANCE_RINGS + bit;
                            if cell < 16 {
                                *slot = r >> cell & 1 == 1;
                            }
                        }
                    }
                    row
                })
                .collect()
        })
        .collect();
    let reach = (0..nodes).map(|i| table[i % table.len()].clone()).collect();
    let limits = vec![GatewayLimits::sx1302(); gws];
    CpProblem::new(channels, reach, vec![1.0; nodes], limits)
}

/// A uniform mask over `1 ≤ n_ch ≤ 64` channels: the same draw as
/// `0..1 << n_ch` wherever that shift does not overflow.
fn random_mask(n_ch: usize, rng: &mut StdRng) -> u64 {
    rng.gen_range(0..=u64::MAX >> (64 - n_ch))
}

proptest! {
    /// The incremental evaluator equals the full recompute bit-for-bit
    /// after every step of an arbitrary mutation chain — including on
    /// fractional traffic, where both sides run the same fixed-point
    /// arithmetic.
    fn incremental_matches_full_recompute(
        seed in any::<u64>(),
        nodes in 2usize..14,
        gws in 1usize..4,
        n_ch in 2usize..9,
        moves in 1usize..40,
    ) {
        let p = build_problem(seed, nodes, gws, n_ch, false);
        let ctx = EvalContext::new(&p);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
        let mut inc = IncrementalEval::new(&ctx, random_genome(&p, &mut rng));
        let mut scratch = ctx.scratch();
        for _ in 0..moves {
            match rng.gen_range(0..4u8) {
                0 => {
                    let i = rng.gen_range(0..nodes);
                    let g = pack_gene(rng.gen_range(0..n_ch), rng.gen_range(0..DISTANCE_RINGS));
                    inc.set_node_gene(i, g);
                }
                1 => {
                    let a = rng.gen_range(0..nodes);
                    let b = rng.gen_range(0..nodes);
                    inc.swap_nodes(a, b);
                }
                2 => {
                    let j = rng.gen_range(0..gws);
                    let m = random_mask(n_ch, &mut rng);
                    inc.set_gw_mask(j, m);
                }
                _ => {
                    // Apply-then-undo through the returned old value:
                    // the exact-inverse property the annealer relies on.
                    let i = rng.gen_range(0..nodes);
                    let g = pack_gene(rng.gen_range(0..n_ch), rng.gen_range(0..DISTANCE_RINGS));
                    let old = inc.set_node_gene(i, g);
                    inc.set_node_gene(i, old);
                }
            }
            let full = ctx.score(inc.genome(), &mut scratch);
            prop_assert_eq!(
                inc.score().to_bits(),
                full.to_bits(),
                "incremental {} != full {}",
                inc.score(),
                full
            );
        }
    }

    /// The cell-folded full score equals an independent per-node
    /// rebuild (`IncrementalEval::new`) bit for bit on fractional
    /// traffic and tight decoder budgets — over one reach row for all
    /// nodes, a few shared rows, a row per node, rows with no reach and
    /// full reach; 1 to 64 gateways and 2 to 64 channels — with one
    /// scratch reused genome after genome.
    fn cell_score_matches_per_node_rebuild(
        seed in any::<u64>(),
        nodes in 1usize..300,
        gw_pick in 0usize..6,
        n_ch in 2usize..65,
        row_pick in 0usize..6,
    ) {
        let gws = [1, 2, 3, 7, 33, 64][gw_pick];
        let rows = [1, 2, 5, 17, usize::MAX, 0][row_pick];
        let mut p = reach_table_problem(seed, nodes, gws, n_ch, rows.max(1));
        prop_assert_eq!(p.n_channels(), n_ch);
        if rows == 0 {
            for row in p.reach.iter_mut() {
                row.fill([true; DISTANCE_RINGS]);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0E);
        p.traffic = (0..nodes).map(|_| rng.gen_range(0.1..5.0f64)).collect();
        for limits in p.gw_limits.iter_mut() {
            limits.decoders = rng.gen_range(1..6);
        }
        let ctx = EvalContext::new(&p);
        let mut scratch = ctx.scratch();
        for _ in 0..4 {
            let mut g = random_genome(&p, &mut rng);
            for mask in g.gw_mask.iter_mut() {
                if rng.gen_bool(0.3) {
                    *mask = 0; // a gateway listening nowhere
                }
            }
            let rebuilt = IncrementalEval::new(&ctx, g.clone()).score();
            let folded = ctx.score(&g, &mut scratch);
            prop_assert_eq!(folded.to_bits(), rebuilt.to_bits(), "{} vs {}", folded, rebuilt);
        }
    }

    /// On integer traffic every fixed-point partial sum is an exact
    /// integer below 2^53, so the engine score equals the serial
    /// reference [`CpProblem::objective`] bit-for-bit.
    fn engine_matches_reference_on_integer_traffic(
        seed in any::<u64>(),
        nodes in 1usize..16,
        gws in 1usize..4,
        n_ch in 2usize..9,
    ) {
        let p = build_problem(seed, nodes, gws, n_ch, true);
        let ctx = EvalContext::new(&p);
        let mut scratch = ctx.scratch();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E);
        for _ in 0..8 {
            let g = random_genome(&p, &mut rng);
            let engine = ctx.score(&g, &mut scratch);
            let reference = p.objective(&g.to_solution());
            prop_assert_eq!(
                engine.to_bits(),
                reference.to_bits(),
                "engine {} != reference {}",
                engine,
                reference
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full GA returns a bit-identical (solution, objective) for
    /// every worker count, across randomized instances and budgets.
    fn ga_worker_count_never_changes_the_answer(
        seed in any::<u64>(),
        nodes in 4usize..16,
        gws in 1usize..4,
        population in 4usize..16,
        generations in 1usize..6,
    ) {
        let p = build_problem(seed, nodes, gws, 8, true);
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                GaSolver::new(GaConfig {
                    population,
                    generations,
                    workers,
                    seed,
                    ..GaConfig::default()
                })
                .solve(&p)
            })
            .collect();
        prop_assert_eq!(&runs[0].0, &runs[1].0);
        prop_assert_eq!(&runs[0].0, &runs[2].0);
        prop_assert_eq!(runs[0].1.to_bits(), runs[1].1.to_bits());
        prop_assert_eq!(runs[0].1.to_bits(), runs[2].1.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The class-lookup repair is the mask-walk oracle gene for gene
    /// and leaves the RNG where the oracle leaves it — over reach
    /// tables with non-monotone rings, rows with no option, one row
    /// for all nodes, a row per node, 1 and 64 gateways, and gateway
    /// masks that listen nowhere — and keeps doing so when the scratch
    /// is reused child after child.
    fn repair_matches_the_mask_walk_oracle(
        seed in any::<u64>(),
        nodes in 1usize..160,
        gw_pick in 0usize..6,
        n_ch in 1usize..9,
        row_pick in 0usize..5,
        children in 1usize..4,
    ) {
        let gws = [1, 2, 3, 7, 33, 64][gw_pick];
        let rows = [1, 2, 5, 17, usize::MAX][row_pick];
        let p = reach_table_problem(seed, nodes, gws, n_ch, rows);
        let ctx = EvalContext::new(&p);
        let mut scratch = RepairScratch::new(&ctx);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E9A);
        for _ in 0..children {
            let mut g = random_genome(&p, &mut rng);
            for mask in g.gw_mask.iter_mut() {
                if rng.gen_bool(0.3) {
                    *mask = 0; // a gateway listening nowhere
                }
            }
            let (mut want, mut want_rng) = (g.clone(), rng.clone());
            repair_oracle(&ctx, &mut want, &mut want_rng);
            repair_genome(&ctx, &mut g, &mut scratch, &mut rng);
            prop_assert_eq!(&g, &want);
            prop_assert_eq!(rng.next_u64(), want_rng.next_u64());
        }
    }
}

/// A problem where every node has a reach row of its own has no class
/// worth a list: the repair walks, as it did before classes existed,
/// while the same nodes sharing a few rows do build lists.
#[test]
fn all_distinct_reach_builds_no_option_list() {
    for (rows, expect_lists) in [(usize::MAX, false), (3, true)] {
        let p = reach_table_problem(7, 400, 7, 8, rows);
        let ctx = EvalContext::new(&p);
        assert_eq!(ctx.n_classes(), rows.min(400));
        let mut scratch = RepairScratch::new(&ctx);
        let mut rng = StdRng::seed_from_u64(11);
        let mut repaired = 0;
        for _ in 0..8 {
            let mut g = random_genome(&p, &mut rng);
            let before = g.clone();
            repair_genome(&ctx, &mut g, &mut scratch, &mut rng);
            repaired += g
                .gene
                .iter()
                .zip(&before.gene)
                .filter(|(a, b)| a != b)
                .count();
        }
        assert!(repaired > 0, "the case must exercise the repair");
        assert_eq!(scratch.lists_built() > 0, expect_lists, "rows {rows}");
    }
}
