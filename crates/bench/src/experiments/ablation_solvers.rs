//! Ablation: CP solver choice and objective design.
//!
//! DESIGN.md calls out two design choices worth ablating:
//! 1. **Solver** — greedy construction only, simulated annealing, or
//!    the paper's evolutionary algorithm (greedy-seeded GA): objective
//!    value, work (evaluations) and realized capacity on a Fig 12a-style
//!    instance. Solver wall time is Fig 17's measurement.
//! 2. **Greedy seeding** — the GA starts from the greedy constructor;
//!    seeded search reaches low objectives in a fraction of the
//!    generations a random-start GA needs.

use crate::experiments::{band_channels, deploy_plan, probe_capacity, quick_ga};
use crate::report::{f3, Table};
use crate::scenario::{NetworkSpec, WorldBuilder};
use alphawan::cp::anneal::{AnnealConfig, AnnealSolver};
use alphawan::cp::ga::GaSolver;
use alphawan::cp::greedy::greedy_plan;
use alphawan::cp::CpSolution;
use alphawan::planner::IntraNetworkPlanner;

const USERS: usize = 144;
const GWS: usize = 9;

/// Run this experiment: build its scenario, measure, and emit the
/// table/CSV outputs (plus obs events when a session is active).
pub fn run() {
    solver_comparison();
    seeding_ablation();
}

fn solver_comparison() {
    let channels = band_channels(4_800_000);
    let b = WorldBuilder::testbed(300_000).network(NetworkSpec {
        network_id: 1,
        n_nodes: USERS,
        gw_channels: vec![channels[..8].to_vec(); GWS],
    });
    let w0 = b.build();
    let mut planner = IntraNetworkPlanner::new(channels.clone(), GWS);
    planner.ga = quick_ga(USERS);
    let problem = planner.problem(&w0.topo, vec![1.0; USERS]);

    let mut t = Table::new(
        "Ablation — CP solver choice (144 users, 9 GWs, 4.8 MHz)",
        &["solver", "objective", "evaluations", "probe_capacity"],
    );
    let mut eval = |name: &str, sol: CpSolution, obj: f64, evals: u64| {
        let mut w = b.build();
        let ids: Vec<usize> = (0..USERS).collect();
        let gw_ids: Vec<usize> = (0..GWS).collect();
        let outcome = planner.materialize(&problem, sol, obj);
        let assigns = deploy_plan(&mut w, &outcome, &ids, &gw_ids);
        let cap = probe_capacity(&mut w, &assigns);
        t.row(vec![
            name.to_string(),
            f3(obj),
            evals.to_string(),
            cap.to_string(),
        ]);
    };

    // Greedy constructs without search: its one evaluation scores it.
    let sol = greedy_plan(&problem);
    let obj = problem.objective(&sol);
    eval("greedy", sol, obj, 1);

    let (sol, obj, stats) = AnnealSolver::new(AnnealConfig::default()).solve_stats(&problem);
    eval("annealing", sol, obj, stats.evaluations);

    let (sol, obj, stats) = GaSolver::new(planner.ga).solve_stats(&problem);
    eval("ga (paper)", sol, obj, stats.evaluations);

    t.emit("ablation_solvers");
}

fn seeding_ablation() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let channels = band_channels(1_600_000);
    let gws = 5usize;
    let users = 48usize;
    let b = WorldBuilder::testbed(300_100).network(NetworkSpec {
        network_id: 1,
        n_nodes: users,
        gw_channels: vec![channels.clone(); gws],
    });
    let w0 = b.build();
    let mut planner = IntraNetworkPlanner::new(channels.clone(), gws);
    planner.ga = quick_ga(users);
    planner.ga.generations = 30; // a tight budget exposes the seed's value
    let problem = planner.problem(&w0.topo, vec![1.0; users]);

    let mut t = Table::new(
        "Ablation — GA seeding (30 generations, 48 users, 5 GWs)",
        &["seed", "objective", "probe_capacity"],
    );
    // Greedy-seeded (the shipped configuration).
    let (sol, obj) = GaSolver::new(planner.ga).solve(&problem);
    let outcome = planner.materialize(&problem, sol, obj);
    let mut w = b.build();
    let ids: Vec<usize> = (0..users).collect();
    let gw_ids: Vec<usize> = (0..gws).collect();
    let assigns = deploy_plan(&mut w, &outcome, &ids, &gw_ids);
    t.row(vec![
        "greedy".into(),
        f3(obj),
        probe_capacity(&mut w, &assigns).to_string(),
    ]);

    // Random-seeded.
    let mut rng = StdRng::seed_from_u64(13);
    let random_seed = CpSolution {
        gw_channels: (0..gws)
            .map(|_| {
                let start = rng.gen_range(0..channels.len().saturating_sub(3).max(1));
                (start..(start + 3).min(channels.len())).collect()
            })
            .collect(),
        node_channel: (0..users)
            .map(|_| rng.gen_range(0..channels.len()))
            .collect(),
        node_ring: (0..users).map(|_| rng.gen_range(0..6)).collect(),
    };
    let (sol, obj) = GaSolver::new(planner.ga).solve_seeded(&problem, random_seed);
    let outcome = planner.materialize(&problem, sol, obj);
    let mut w = b.build();
    let assigns = deploy_plan(&mut w, &outcome, &ids, &gw_ids);
    t.row(vec![
        "random".into(),
        f3(obj),
        probe_capacity(&mut w, &assigns).to_string(),
    ]);
    t.emit("ablation_seeding");
}
