//! Multi-operator coexistence through the AlphaWAN Master — over real
//! TCP, exactly the paper's §4.3.2 workflow:
//!
//! 1. a Master node starts for the region (1.6 MHz, up to 3 operators);
//! 2. each operator registers over TCP and receives a
//!    frequency-misaligned channel plan;
//! 3. operators plan their own networks on their allocation;
//! 4. a concurrent cross-network burst shows the isolation: no foreign
//!    packet ever occupies a decoder.
//!
//! ```text
//! cargo run --release --example coexistence
//! ```

use alphawan_system::alphawan::master::server::MasterServer;
use alphawan_system::alphawan::master::RegionSpec;
use alphawan_system::alphawan::planner::IntraNetworkPlanner;
use alphawan_system::alphawan::MasterClient;
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::end_aligned_burst;
use alphawan_system::sim::world::SimWorld;

const OPERATORS: usize = 3;
const NODES_PER_OP: usize = 24;
const GWS_PER_OP: usize = 3;

fn main() {
    // 1. The Master comes up for this region.
    let server = MasterServer::start(RegionSpec {
        band_low_hz: 916_800_000,
        spectrum_hz: 1_600_000,
        expected_networks: OPERATORS,
    })
    .expect("master starts");
    println!("AlphaWAN Master listening on {}", server.addr());

    // 2. Operators register over TCP and fetch their plans.
    let mut plans = Vec::new();
    for op in 0..OPERATORS {
        let mut client = MasterClient::connect(server.addr()).expect("connect");
        let id = client
            .register(&format!("operator-{op}"))
            .expect("register");
        let plan = client.request_channels(id).expect("assignment");
        println!(
            "operator-{op} (id {id}): {} channels, first at {:.4} MHz",
            plan.len(),
            plan[0].center_hz as f64 / 1e6
        );
        client.bye().ok();
        plans.push(plan);
    }

    // 3. One shared urban area; each operator plans its own deployment.
    let total_nodes = OPERATORS * NODES_PER_OP;
    let total_gws = OPERATORS * GWS_PER_OP;
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let topo = Topology::new((600.0, 450.0), total_nodes, total_gws, model, 11);

    let profile = GatewayProfile::rak7268cv2();
    let mut gateways = Vec::new();
    let mut node_network = vec![0u32; total_nodes];
    let mut assigns: Vec<(usize, _, DataRate)> = Vec::new();
    for (op, cp_plan) in plans.iter().enumerate() {
        let node_ids: Vec<usize> = (op * NODES_PER_OP..(op + 1) * NODES_PER_OP).collect();
        let gw_ids: Vec<usize> = (op * GWS_PER_OP..(op + 1) * GWS_PER_OP).collect();
        // Sub-topology for this operator's own planning.
        let sub = topo.subset(&node_ids, &gw_ids);
        let mut planner = IntraNetworkPlanner::new(cp_plan.clone(), GWS_PER_OP);
        planner.ga.generations = 40;
        let outcome = planner.plan(&sub, vec![1.0; NODES_PER_OP]);
        for (slot, &g) in gw_ids.iter().enumerate() {
            gateways.push(Gateway::new(
                g,
                op as u32 + 1,
                profile,
                GatewayConfig::new(profile, outcome.gateway_channels[slot].clone()).unwrap(),
            ));
        }
        for (&n, &(ch, dr, _)) in node_ids.iter().zip(&outcome.node_settings) {
            node_network[n] = op as u32 + 1;
            assigns.push((n, ch, dr));
        }
    }

    // 4. Everyone transmits concurrently.
    let mut world = SimWorld::new(topo, node_network, gateways);
    let plans_tx = end_aligned_burst(&assigns, 23, 2_000_000, 1_000);
    let recs = world.run(&plans_tx);
    for op in 1..=OPERATORS as u32 {
        let rx = recs
            .iter()
            .filter(|r| r.network_id == op && r.delivered)
            .count();
        println!(
            "operator-{}: {rx}/{NODES_PER_OP} concurrent packets received",
            op - 1
        );
    }
    let foreign: u64 = world
        .gateways
        .iter()
        .map(|g| g.stats().foreign_filtered)
        .sum();
    println!(
        "foreign packets that consumed a decoder anywhere: {foreign} \
         (frequency misalignment keeps them out of the pipeline)"
    );
    server.shutdown();
}
