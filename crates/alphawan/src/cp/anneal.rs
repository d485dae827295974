//! Simulated-annealing CP solver — an ablation alternative to the
//! paper's evolutionary algorithm.
//!
//! Same encoding and objective as [`super::ga`], different search:
//! single-solution hill climbing with temperature-scheduled uphill
//! acceptance. The ablation experiment (`bench --bin ablation_solvers`)
//! compares greedy / GA / annealing on solution quality and wall time,
//! motivating the paper's GA choice.
//!
//! Annealing is the natural home of the delta-scored
//! [`IncrementalEval`]: every iteration perturbs a single gene, so the
//! engine path applies the move, reads the updated objective in O(1),
//! and on rejection replays the returned inverse — no clone, no full
//! re-score. The move sequence, RNG draws, and acceptance decisions are
//! identical to the original full-recompute loop (kept as the fallback
//! for problems beyond the engine's 64-gateway / 64-channel width), so
//! for integer-valued traffic both paths walk the same trajectory.

use super::eval::{gene_channel, gene_ring, pack_gene, EvalContext, Genome, IncrementalEval};
use super::ga::SolverStats;
use super::greedy::greedy_plan;
use super::{CpProblem, CpSolution};
use lora_phy::pathloss::DISTANCE_RINGS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Annealing hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    pub iterations: usize,
    /// Initial temperature, in objective units.
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 20_000,
            t0: 10.0,
            cooling: 0.9995,
            seed: 0x5A,
        }
    }
}

/// The simulated-annealing solver.
pub struct AnnealSolver {
    pub config: AnnealConfig,
}

/// Solve by simulated annealing from the greedy seed.
pub fn anneal(p: &CpProblem, cfg: AnnealConfig) -> (CpSolution, f64) {
    AnnealSolver::new(cfg).solve(p)
}

/// The inverse of one applied move — replaying it through the
/// incremental evaluator restores the pre-move state exactly (all
/// bookkeeping is fixed-point integer arithmetic).
enum Undo {
    Node { i: usize, gene: u16 },
    Swap { a: usize, b: usize },
    Gateway { j: usize, mask: u64 },
}

impl AnnealSolver {
    pub fn new(config: AnnealConfig) -> AnnealSolver {
        AnnealSolver { config }
    }

    /// Solve `p` from the greedy seed; returns the best solution found
    /// and its objective.
    pub fn solve(&self, p: &CpProblem) -> (CpSolution, f64) {
        let (sol, obj, _) = self.solve_stats(p);
        (sol, obj)
    }

    /// [`AnnealSolver::solve`] plus work accounting.
    pub fn solve_stats(&self, p: &CpProblem) -> (CpSolution, f64, SolverStats) {
        let start = Instant::now();
        let (sol, obj, evaluations, iterations) =
            if p.n_gateways() > super::eval::MAX_ENGINE_GATEWAYS || p.n_channels() > 64 {
                self.solve_reference(p)
            } else {
                self.solve_engine(p)
            };
        let stats = SolverStats {
            evaluations,
            generations: iterations,
            workers: 1,
            wall: start.elapsed(),
        };
        (sol, obj, stats)
    }

    /// The delta-scored annealing loop. Returns (solution, objective,
    /// evaluations, iterations run).
    fn solve_engine(&self, p: &CpProblem) -> (CpSolution, f64, u64, u32) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let ctx = EvalContext::new(p);
        let mut inc = IncrementalEval::new(&ctx, Genome::from_solution(&greedy_plan(p)));
        let mut current_obj = inc.score();
        let mut best = inc.genome().clone();
        let mut best_obj = current_obj;
        let mut temp = cfg.t0;
        let mut evaluations = 1u64;
        let mut iterations = 0u32;

        for _ in 0..cfg.iterations {
            if best_obj == 0.0 {
                break;
            }
            iterations += 1;
            let undo = apply_move(p, &mut inc, &mut rng);
            let obj = inc.score();
            evaluations += 1;
            let accept = obj <= current_obj
                || rng.gen_bool(((current_obj - obj) / temp.max(1e-9)).exp().clamp(0.0, 1.0));
            if accept {
                current_obj = obj;
                if obj < best_obj {
                    best_obj = obj;
                    best = inc.genome().clone();
                }
            } else {
                match undo {
                    Undo::Node { i, gene } => {
                        inc.set_node_gene(i, gene);
                    }
                    Undo::Swap { a, b } => inc.swap_nodes(a, b),
                    Undo::Gateway { j, mask } => {
                        inc.set_gw_mask(j, mask);
                    }
                }
            }
            temp *= cfg.cooling;
        }
        (best.to_solution(), best_obj, evaluations, iterations)
    }

    /// The original full-recompute loop over the direct encoding —
    /// fallback beyond the engine's bitmask width, and the trajectory
    /// oracle the engine path is tested against.
    fn solve_reference(&self, p: &CpProblem) -> (CpSolution, f64, u64, u32) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut current = greedy_plan(p);
        let mut current_obj = p.objective(&current);
        let mut best = current.clone();
        let mut best_obj = current_obj;
        let mut temp = cfg.t0;
        let mut evaluations = 1u64;
        let mut iterations = 0u32;

        for _ in 0..cfg.iterations {
            if best_obj == 0.0 {
                break;
            }
            iterations += 1;
            let mut candidate = current.clone();
            mutate_once(p, &mut candidate, &mut rng);
            let obj = p.objective(&candidate);
            evaluations += 1;
            let accept = obj <= current_obj
                || rng.gen_bool(((current_obj - obj) / temp.max(1e-9)).exp().clamp(0.0, 1.0));
            if accept {
                current = candidate;
                current_obj = obj;
                if obj < best_obj {
                    best_obj = obj;
                    best = current.clone();
                }
            }
            temp *= cfg.cooling;
        }
        (best, best_obj, evaluations, iterations)
    }
}

/// One random neighborhood move through the incremental evaluator —
/// the same move set and draw sequence as [`mutate_once`], returning
/// the inverse for rejection.
fn apply_move(p: &CpProblem, inc: &mut IncrementalEval, rng: &mut StdRng) -> Undo {
    let n = p.n_nodes();
    match rng.gen_range(0..4u8) {
        0 => {
            let i = rng.gen_range(0..n);
            let ch = rng.gen_range(0..p.n_channels());
            let old = inc.set_node_gene(i, pack_gene(ch, gene_ring(inc.node_gene(i))));
            Undo::Node { i, gene: old }
        }
        1 => {
            let i = rng.gen_range(0..n);
            let ring = rng.gen_range(0..DISTANCE_RINGS);
            let old = inc.set_node_gene(i, pack_gene(gene_channel(inc.node_gene(i)), ring));
            Undo::Node { i, gene: old }
        }
        2 => {
            // Swap two nodes' assignments.
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            inc.swap_nodes(a, b);
            Undo::Swap { a, b }
        }
        _ => {
            let j = rng.gen_range(0..inc.genome().gw_mask.len());
            let mask = super::ga::resample_gw_mask(p, j, rng);
            let old = inc.set_gw_mask(j, mask);
            Undo::Gateway { j, mask: old }
        }
    }
}

/// One random neighborhood move on the direct encoding: reassign a
/// node's channel or ring, swap two nodes, or resample one gateway's
/// channel window.
fn mutate_once(p: &CpProblem, sol: &mut CpSolution, rng: &mut StdRng) {
    match rng.gen_range(0..4u8) {
        0 => {
            let i = rng.gen_range(0..sol.node_channel.len());
            sol.node_channel[i] = rng.gen_range(0..p.n_channels());
        }
        1 => {
            let i = rng.gen_range(0..sol.node_ring.len());
            sol.node_ring[i] = rng.gen_range(0..DISTANCE_RINGS);
        }
        2 => {
            // Swap two nodes' assignments.
            let a = rng.gen_range(0..sol.node_channel.len());
            let b = rng.gen_range(0..sol.node_channel.len());
            sol.node_channel.swap(a, b);
            sol.node_ring.swap(a, b);
        }
        _ => {
            let j = rng.gen_range(0..sol.gw_channels.len());
            let n_ch = p.n_channels();
            let window = p.window_channels(j).max(1).min(n_ch);
            let start = rng.gen_range(0..=n_ch - window);
            let budget = p.gw_limits[j].max_channels.min(window);
            let count = rng.gen_range(1..=budget);
            let mut chans: Vec<usize> = (start..start + window).collect();
            for i in 0..count {
                let s = rng.gen_range(i..chans.len());
                chans.swap(i, s);
            }
            chans.truncate(count);
            chans.sort_unstable();
            sol.gw_channels[j] = chans;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::GatewayLimits;
    use lora_phy::channel::ChannelGrid;

    fn problem(nodes: usize, gws: usize) -> CpProblem {
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; gws]; nodes];
        CpProblem::new(
            channels,
            reach,
            vec![1.0; nodes],
            vec![GatewayLimits::sx1302(); gws],
        )
    }

    #[test]
    fn anneal_feasible_and_no_worse_than_greedy() {
        let p = problem(48, 5);
        let greedy_obj = p.objective(&greedy_plan(&p));
        let (sol, obj) = anneal(
            &p,
            AnnealConfig {
                iterations: 4_000,
                ..Default::default()
            },
        );
        assert!(p.feasible(&sol));
        assert!(obj <= greedy_obj);
    }

    #[test]
    fn anneal_deterministic_per_seed() {
        let p = problem(24, 3);
        let cfg = AnnealConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let (s1, o1) = anneal(&p, cfg);
        let (s2, o2) = anneal(&p, cfg);
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn anneal_finds_zero_when_it_exists() {
        // Same instance the GA test solves: a contention-free plan
        // exists for 48 users / 5 gateways / 8 channels.
        let p = problem(48, 5);
        let (sol, obj) = anneal(
            &p,
            AnnealConfig {
                iterations: 30_000,
                ..Default::default()
            },
        );
        assert!(p.all_connected(&sol));
        assert_eq!(obj, 0.0);
    }

    #[test]
    fn engine_walks_the_reference_trajectory() {
        // Integer traffic ⇒ the delta-scored engine and the
        // full-recompute reference produce bit-identical results: same
        // draws, same acceptance decisions, same best solution.
        let p = problem(24, 3);
        let solver = AnnealSolver::new(AnnealConfig {
            iterations: 1_500,
            ..Default::default()
        });
        let (esol, eobj, _, _) = solver.solve_engine(&p);
        let (rsol, robj, _, _) = solver.solve_reference(&p);
        assert_eq!(esol, rsol);
        assert_eq!(eobj.to_bits(), robj.to_bits());
    }

    #[test]
    fn anneal_stats_account_the_search() {
        let p = problem(12, 2);
        let solver = AnnealSolver::new(AnnealConfig {
            iterations: 500,
            ..Default::default()
        });
        let (sol, obj, stats) = solver.solve_stats(&p);
        assert!(p.feasible(&sol));
        assert!(stats.evaluations >= 1);
        assert_eq!(stats.workers, 1);
        let (plain, plain_obj) = solver.solve(&p);
        assert_eq!(sol, plain);
        assert_eq!(obj.to_bits(), plain_obj.to_bits());
    }
}
