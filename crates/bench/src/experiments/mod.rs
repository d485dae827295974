//! One module per paper table/figure. Each exposes `run()`, printing
//! the same rows and series the paper reports and writing CSVs under
//! `results/`. The `all_experiments [name…]` binary runs the named
//! modules, or everything.

pub mod ablation_solvers;
pub mod fig02_capacity_gap;
pub mod fig03_lockon_fcfs;
pub mod fig04_loss_breakdown;
pub mod fig05_strategies;
pub mod fig06_adr_cells;
pub mod fig07_directional;
pub mod fig08_overlap;
pub mod fig12a_gateways;
pub mod fig12b_spectrum;
pub mod fig12c_contention;
pub mod fig12de_sharing;
pub mod fig13_scale;
pub mod fig14_partial_adoption;
pub mod fig15_fairness;
pub mod fig16_threshold;
pub mod fig17_latency;
pub mod fig18_spectrum_regions;
pub mod fig21_longterm;
pub mod table02_operators;
pub mod table03_strategies;
pub mod table04_gateways;

use crate::scenario::PAYLOAD_LEN;
use alphawan::cp::ga::GaConfig;
use alphawan::planner::{IntraNetworkPlanner, PlanOutcome};
use lora_phy::channel::{Channel, ChannelGrid};
use sim::topology::Topology;
use sim::world::SimWorld;

/// Default uplink band anchor for the §5.1 experiments
/// (916.8–921.6 MHz in the paper).
pub const BAND_LOW_HZ: u32 = 916_800_000;

/// The channel grid for a spectrum slice anchored at [`BAND_LOW_HZ`].
pub fn band_channels(spectrum_hz: u32) -> Vec<Channel> {
    ChannelGrid::standard(BAND_LOW_HZ, spectrum_hz).channels()
}

/// Swap a gateway's channel configuration in place.
pub fn set_gateway_channels(world: &mut SimWorld, gw: usize, channels: Vec<Channel>) {
    let profile = world.gateways[gw].profile();
    let config = gateway::config::GatewayConfig::new(profile, channels)
        .expect("experiment channel config valid");
    world.gateways[gw].reconfigure(config);
}

/// A GA configuration scaled down for interactive experiment runtimes
/// (the paper's full solver budget is only needed for Fig. 17's latency
/// measurements).
pub fn quick_ga(n_nodes: usize) -> GaConfig {
    let (population, generations) = if n_nodes <= 200 {
        (32, 80)
    } else if n_nodes <= 2_000 {
        (24, 40)
    } else {
        (16, 24)
    };
    GaConfig {
        population,
        generations,
        ..GaConfig::default()
    }
}

/// Run the AlphaWAN intra-network planner over (a subset of) a world
/// and return the outcome. `node_ids`/`gw_ids` select the operator's
/// own deployment; `channels` is its allocation.
pub fn plan_network(
    topo: &Topology,
    node_ids: &[usize],
    gw_ids: &[usize],
    channels: Vec<Channel>,
    ga: GaConfig,
) -> PlanOutcome {
    let sub = crate::scenario::subtopology(topo, node_ids, gw_ids);
    let mut planner = IntraNetworkPlanner::new(channels, gw_ids.len());
    planner.ga = ga;
    planner.plan(&sub, vec![1.0; node_ids.len()])
}

/// Apply a plan to a world: reconfigure the operator's gateways and
/// return per-node assignments keyed by global node id.
pub fn deploy_plan(
    world: &mut SimWorld,
    outcome: &PlanOutcome,
    node_ids: &[usize],
    gw_ids: &[usize],
) -> Vec<(usize, Channel, lora_phy::types::DataRate)> {
    for (slot, &gw) in gw_ids.iter().enumerate() {
        set_gateway_channels(world, gw, outcome.gateway_channels[slot].clone());
    }
    crate::scenario::planned_assignments(outcome, node_ids)
}

/// The "AlphaWAN with Strategy ① disabled" gateway layout: every
/// gateway keeps a full 8-channel window, windows spread evenly over
/// the grid (heterogeneous but never fewer channels).
pub fn fixed_eight_channel_windows(channels: &[Channel], n_gateways: usize) -> Vec<Vec<usize>> {
    let window = 8.min(channels.len());
    let max_start = channels.len() - window;
    (0..n_gateways)
        .map(|j| {
            let start = if n_gateways <= 1 {
                0
            } else {
                (j * max_start) / (n_gateways - 1)
            };
            (start..start + window).collect()
        })
        .collect()
}

/// Solve a CP instance with pinned gateway channels (the w/o-① ablation).
pub fn plan_with_pinned_gateways(
    topo: &Topology,
    node_ids: &[usize],
    gw_ids: &[usize],
    channels: Vec<Channel>,
    gw_channels: Vec<Vec<usize>>,
    mut ga: GaConfig,
) -> PlanOutcome {
    use alphawan::cp::greedy::greedy_plan;
    let sub = crate::scenario::subtopology(topo, node_ids, gw_ids);
    let mut planner = IntraNetworkPlanner::new(channels, gw_ids.len());
    ga.optimize_gateway_channels = false;
    planner.ga = ga;
    let problem = planner.problem(&sub, vec![1.0; node_ids.len()]);
    let mut seed = greedy_plan(&problem);
    seed.gw_channels = gw_channels;
    let solver = alphawan::cp::ga::GaSolver::new(planner.ga);
    let (solution, objective) = solver.solve_seeded(&problem, seed);
    planner.materialize(&problem, solution, objective)
}

/// Solve a CP instance with pinned node assignments (the w/o-node-side
/// ablation of §5.1.3): gateway channels are optimized around the given
/// node settings.
pub fn plan_with_pinned_nodes(
    topo: &Topology,
    node_ids: &[usize],
    gw_ids: &[usize],
    channels: Vec<Channel>,
    node_assignment: &[(Channel, lora_phy::types::DataRate)],
    mut ga: GaConfig,
) -> PlanOutcome {
    use alphawan::cp::greedy::greedy_plan;
    let sub = crate::scenario::subtopology(topo, node_ids, gw_ids);
    let mut planner = IntraNetworkPlanner::new(channels.clone(), gw_ids.len());
    ga.optimize_node_assignments = false;
    planner.ga = ga;
    let problem = planner.problem(&sub, vec![1.0; node_ids.len()]);
    let mut seed = greedy_plan(&problem);
    let index_of = |ch: &Channel| -> usize {
        channels
            .iter()
            .position(|c| c == ch)
            .expect("pinned node channel is in the operator's grid")
    };
    for (i, (ch, dr)) in node_assignment.iter().enumerate() {
        seed.node_channel[i] = index_of(ch);
        seed.node_ring[i] = 5 - dr.index();
    }
    let solver = alphawan::cp::ga::GaSolver::new(planner.ga);
    let (solution, objective) = solver.solve_seeded(&problem, seed);
    planner.materialize(&problem, solution, objective)
}

/// Capacity of one probe: delivered packets of one concurrent burst.
pub fn probe_capacity(
    world: &mut SimWorld,
    assignments: &[(usize, Channel, lora_phy::types::DataRate)],
) -> usize {
    crate::scenario::apply_group_tpc(world, assignments);
    let recs = crate::scenario::capacity_probe(world, assignments);
    recs.iter().filter(|r| r.delivered).count()
}

/// Duty-cycled workload for a set of assignments over `horizon_us`.
pub fn duty_workload(
    assignments: &[(usize, Channel, lora_phy::types::DataRate)],
    horizon_us: u64,
    seed: u64,
) -> Vec<sim::traffic::TxPlan> {
    sim::traffic::duty_cycled(assignments, PAYLOAD_LEN, 0.01, horizon_us, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::types::DataRate;

    fn tiny_ga() -> GaConfig {
        GaConfig {
            population: 8,
            generations: 4,
            workers: 1,
            ..GaConfig::default()
        }
    }

    #[test]
    fn fixed_windows_spread_evenly_over_the_grid() {
        let grid = band_channels(4_800_000);
        assert_eq!(grid.len(), 24);
        let windows = fixed_eight_channel_windows(&grid, 3);
        let starts: Vec<usize> = windows.iter().map(|w| w[0]).collect();
        assert_eq!(starts, [0, 8, 16]);
        assert!(windows.iter().all(|w| w.len() == 8 && w[7] == w[0] + 7));
        assert_eq!(
            fixed_eight_channel_windows(&grid, 1),
            [(0..8).collect::<Vec<_>>()]
        );
        // A grid narrower than a window: every gateway takes all of it.
        let narrow = &grid[..5];
        assert_eq!(
            fixed_eight_channel_windows(narrow, 2),
            [vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3, 4]]
        );
    }

    #[test]
    fn pinned_gateway_channels_survive_the_solve() {
        let topo = Topology::testbed(12, 3, 4);
        let channels = band_channels(3_200_000);
        let pins = fixed_eight_channel_windows(&channels, 2);
        let outcome = plan_with_pinned_gateways(
            &topo,
            &(0..12).collect::<Vec<_>>(),
            &[0, 2],
            channels.clone(),
            pins.clone(),
            tiny_ga(),
        );
        let want: Vec<Vec<Channel>> = pins
            .iter()
            .map(|w| w.iter().map(|&k| channels[k]).collect())
            .collect();
        assert_eq!(outcome.gateway_channels, want);
        assert_eq!(outcome.node_settings.len(), 12);
    }

    #[test]
    fn pinned_node_settings_survive_the_solve() {
        let topo = Topology::testbed(6, 2, 9);
        let channels = band_channels(1_600_000);
        let pins: Vec<(Channel, DataRate)> = (0..6)
            .map(|i| (channels[i % 3], DataRate::from_index(i % 6).unwrap()))
            .collect();
        let outcome = plan_with_pinned_nodes(
            &topo,
            &(0..6).collect::<Vec<_>>(),
            &[0, 1],
            channels,
            &pins,
            tiny_ga(),
        );
        let got: Vec<(Channel, DataRate)> = outcome
            .node_settings
            .iter()
            .map(|&(ch, dr, _)| (ch, dr))
            .collect();
        assert_eq!(got, pins);
    }

    #[test]
    fn deploying_a_plan_retunes_only_the_operators_gateways() {
        let channels = band_channels(1_600_000);
        let builder =
            crate::scenario::WorldBuilder::testbed(2).network(crate::scenario::NetworkSpec {
                network_id: 1,
                n_nodes: 8,
                gw_channels: vec![channels.clone(); 3],
            });
        let mut world = builder.build_with_sink(None);
        let (nodes, gws) = ([1, 3, 5, 7], [2]);
        let outcome = plan_network(&world.topo, &nodes, &gws, channels, tiny_ga());
        let before: Vec<Vec<Channel>> = world
            .gateways
            .iter()
            .map(|g| g.config().channels().to_vec())
            .collect();
        let assigned = deploy_plan(&mut world, &outcome, &nodes, &gws);
        let ids: Vec<usize> = assigned.iter().map(|a| a.0).collect();
        assert_eq!(ids, nodes, "assignments keyed by global node id");
        for (j, g) in world.gateways.iter().enumerate() {
            let want = if j == 2 {
                &outcome.gateway_channels[0]
            } else {
                &before[j]
            };
            assert_eq!(g.config().channels(), &want[..], "gateway {j}");
        }
    }
}
