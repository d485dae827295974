//! `Topology::new` against a serial rebuild through the public API
//! only: one generator, two draws per node for its position, then
//! `PathLossModel::loss_db` per link in row-major order. The parallel
//! flat fill must return the same bits at every size — including one
//! above its inline threshold, where the processors this test may run
//! on all take part — and a run over its matrix must equal a run over
//! the rebuilt one.

use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::topology::{grid_positions, LossMatrix, Pos, Topology};
use alphawan_system::sim::{DutyCycleStream, RunSummary, ShardOpts, SimWorld};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const AREA: (f64, f64) = (1_800.0, 1_400.0);

/// Smallest world the fill shares out: 2²⁰ links at 64 gateways.
const SHARED_OUT: (usize, usize) = (16_384, 64);

fn model(sigma: f64) -> PathLossModel {
    PathLossModel {
        shadowing_sigma_db: sigma,
        ..Default::default()
    }
}

fn serial_build(
    n_nodes: usize,
    n_gateways: usize,
    model: PathLossModel,
    seed: u64,
) -> (Vec<Pos>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<Pos> = (0..n_nodes)
        .map(|_| Pos {
            x_m: rng.gen_range(0.0..AREA.0),
            y_m: rng.gen_range(0.0..AREA.1),
        })
        .collect();
    let gateways = grid_positions(AREA, n_gateways);
    let rows = nodes
        .iter()
        .map(|n| {
            gateways
                .iter()
                .map(|g| model.loss_db(n.dist_m(g), &mut rng))
                .collect()
        })
        .collect();
    (nodes, rows)
}

#[test]
fn new_returns_the_serial_bits() {
    for (n, g, sigma, seed) in [
        (5_000, 33, 2.0, 1),
        (3_000, 64, 0.0, 2),
        (2_049, 40, 4.0, 3),
        (SHARED_OUT.0, SHARED_OUT.1, 2.0, 4),
    ] {
        let topo = Topology::new(AREA, n, g, model(sigma), seed);
        let (nodes, rows) = serial_build(n, g, model(sigma), seed);
        assert_eq!(topo.nodes, nodes, "{n} x {g}");
        assert_eq!(topo.loss_db.len(), n);
        for (i, (got, want)) in topo.loss_db.iter().zip(&rows).enumerate() {
            assert_eq!(got.len(), g);
            for (j, (a, b)) in got.iter().zip(want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{n} x {g}: link ({i}, {j})");
            }
        }
    }
}

fn streamed_summary(mut topo: Topology) -> RunSummary {
    let (n, g) = (topo.nodes.len(), topo.gateways.len());
    topo.clamp_loss(108.0, 126.0);
    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let profile = GatewayProfile::rak7268cv2();
    let gateways = (0..g)
        .map(|j| {
            let config = GatewayConfig::new(profile, channels.clone()).unwrap();
            Gateway::new(j, (j % 2) as u32 + 1, profile, config)
        })
        .collect();
    let node_network = (0..n).map(|i| (i % 2) as u32 + 1).collect();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..n)
        .map(|i| (i, channels[i % 8], DataRate::from_index(i / 8 % 6).unwrap()))
        .collect();
    let mut world = SimWorld::new(topo, node_network, gateways);
    let mut stream = DutyCycleStream::new(&assigns, 23, 0.01, 3_000_000, 7, 100_000);
    world
        .run_streamed(&mut stream, &ShardOpts::default())
        .summary
}

#[test]
fn a_run_over_the_shared_out_build_equals_one_over_the_serial_matrix() {
    let (n, g) = SHARED_OUT;
    let built = Topology::new(AREA, n, g, model(2.0), 5);
    let (nodes, rows) = serial_build(n, g, model(2.0), 5);
    let assembled = Topology {
        nodes,
        loss_db: LossMatrix::from(rows),
        ..built.clone()
    };
    assert_eq!(built.loss_db, assembled.loss_db);
    let summary = streamed_summary(built);
    assert!(summary.total.sent > 1_000, "{} sent", summary.total.sent);
    assert!(summary.total.delivered > 0);
    assert_eq!(summary, streamed_summary(assembled));
}
