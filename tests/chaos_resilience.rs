//! Chaos-layer acceptance tests: fault plans replay deterministically
//! (byte-identical metrics), and a gateway crash degrades AlphaWAN's
//! delivery gracefully with the loss attributed to infrastructure, not
//! contention.

use alphawan_system::chaos::{FaultPlan, FaultSchedule, FaultSpec};
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::metrics::RunMetrics;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::duty_cycled;
use alphawan_system::sim::world::{LossCause, SimWorld};

fn flat_topology(nodes: usize, gws: usize, seed: u64) -> Topology {
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut topo = Topology::new((500.0, 400.0), nodes, gws, model, seed);
    topo.clamp_loss(108.0, f64::INFINITY);
    topo
}

fn eight_channels() -> Vec<Channel> {
    ChannelGrid::standard(916_800_000, 1_600_000).channels()
}

fn homogeneous_gateways(n: usize) -> Vec<Gateway> {
    let profile = GatewayProfile::rak7268cv2();
    (0..n)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, eight_channels()).unwrap(),
            )
        })
        .collect()
}

/// Fast, collision-free assignments: distinct channels, DR3–DR5 so
/// airtimes are short and duty-cycled traffic is dense.
fn orthogonal(users: usize) -> Vec<(usize, Channel, DataRate)> {
    let chans = eight_channels();
    (0..users)
        .map(|i| (i, chans[i % 8], DataRate::from_index(3 + i % 3).unwrap()))
        .collect()
}

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        faults: vec![
            // Overlapping crash windows: from 4 s to 8 s *no* gateway is
            // up, so packets in that span are infrastructure losses.
            FaultSpec::GatewayCrash {
                gateway: 0,
                start_us: 3_000_000,
                end_us: 9_000_000,
            },
            FaultSpec::GatewayCrash {
                gateway: 1,
                start_us: 4_000_000,
                end_us: 8_000_000,
            },
            FaultSpec::DecoderLockup {
                gateway: 1,
                decoders: 4,
                start_us: 10_000_000,
                end_us: 15_000_000,
            },
        ],
    }
}

fn run_once(plan: &FaultPlan) -> (Vec<u8>, RunMetrics) {
    let topo = flat_topology(24, 2, 7);
    let mut world = SimWorld::new(topo, vec![1; 24], homogeneous_gateways(2));
    let traffic = duty_cycled(&orthogonal(24), 23, 0.05, 20_000_000, 11);
    let schedule = FaultSchedule::compile(plan).unwrap();
    let records = world.run_with_faults(&traffic, &schedule);
    let metrics = RunMetrics::from_records(&records, None);
    let bytes = serde_json::to_vec(&metrics).unwrap();
    (bytes, metrics)
}

#[test]
fn same_plan_same_seed_byte_identical_metrics() {
    // The acceptance bar for determinism: two runs of the same topology
    // + workload seed + fault plan serialize to the same bytes.
    let plan = chaos_plan();
    let (bytes_a, metrics_a) = run_once(&plan);
    let (bytes_b, metrics_b) = run_once(&plan);
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(
        bytes_a, bytes_b,
        "serialized metrics must be byte-identical"
    );
    // The run is non-trivial: packets flowed and faults bit.
    assert!(metrics_a.sent > 100);
    assert!(metrics_a.delivered > 0);
    assert!(metrics_a.losses.infrastructure > 0);
}

#[test]
fn different_fault_seed_changes_nothing_without_probabilistic_faults() {
    // Window faults are seed-independent; only probabilistic backhaul
    // decisions consume the seed. Same windows, different seed ⇒ same
    // sim outcome.
    let mut plan_b = chaos_plan();
    plan_b.seed ^= 0xFFFF;
    assert_eq!(run_once(&chaos_plan()).0, run_once(&plan_b).0);
}

#[test]
fn gateway_crash_loss_lands_in_infrastructure_bucket() {
    let topo = flat_topology(16, 1, 3);
    let traffic = duty_cycled(&orthogonal(16), 23, 0.05, 20_000_000, 5);

    // Baseline: healthy run.
    let mut world = SimWorld::new(topo.clone(), vec![1; 16], homogeneous_gateways(1));
    let healthy = RunMetrics::from_records(&world.run(&traffic), None);
    assert_eq!(healthy.losses.infrastructure, 0);

    // Same workload with the only gateway down for 40% of the run.
    let plan = FaultPlan {
        seed: 1,
        faults: vec![FaultSpec::GatewayCrash {
            gateway: 0,
            start_us: 6_000_000,
            end_us: 14_000_000,
        }],
    };
    let schedule = FaultSchedule::compile(&plan).unwrap();
    let mut world = SimWorld::new(topo, vec![1; 16], homogeneous_gateways(1));
    let records = world.run_with_faults(&traffic, &schedule);
    let faulted = RunMetrics::from_records(&records, None);

    // Graceful degradation: the run completes, packets outside the
    // crash window still deliver, and the new loss bucket separates
    // infrastructure loss from contention.
    assert_eq!(faulted.sent, healthy.sent);
    assert!(
        faulted.delivered > 0,
        "delivery continues outside the window"
    );
    assert!(
        faulted.delivered < healthy.delivered,
        "the crash must cost packets"
    );
    assert!(
        faulted.losses.infrastructure > 0,
        "crash loss must be attributed"
    );
    // The delivery drop is explained by the new bucket: contention
    // losses did not inflate to cover for the crash.
    let drop = faulted.delivered as i64 - healthy.delivered as i64;
    assert!(
        -drop <= faulted.losses.infrastructure as i64 + healthy.losses.total() as i64,
        "PDR drop is explained by attributed loss"
    );
    // The fraction vector exposes the new bucket last.
    let f = faulted.loss_fractions();
    assert!(f[5] > 0.0);
    // Packets fully inside the crash window never deliver.
    for r in &records {
        if r.start_us >= 6_000_000 && r.end_us < 14_000_000 {
            assert!(!r.delivered, "tx {} delivered inside crash window", r.tx_id);
            assert_eq!(r.cause, Some(LossCause::Infrastructure));
        }
    }
}

#[test]
fn empty_plan_matches_plain_run_exactly() {
    let topo = flat_topology(24, 2, 9);
    let traffic = duty_cycled(&orthogonal(24), 23, 0.01, 10_000_000, 13);
    let mut world = SimWorld::new(topo.clone(), vec![1; 24], homogeneous_gateways(2));
    let plain = world.run(&traffic);
    let schedule = FaultSchedule::compile(&FaultPlan::empty(99)).unwrap();
    let mut world = SimWorld::new(topo, vec![1; 24], homogeneous_gateways(2));
    let chaos = world.run_with_faults(&traffic, &schedule);
    assert_eq!(
        plain, chaos,
        "an empty plan must not perturb the simulation"
    );
}
