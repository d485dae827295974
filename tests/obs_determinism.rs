//! Observability acceptance tests: the event stream is a pure function
//! of the simulated run — two runs with identical seeds produce
//! byte-identical JSONL, with or without an active chaos fault plan —
//! and attaching a sink never changes what the simulation computes.

use alphawan_system::chaos::{FaultPlan, FaultSchedule, FaultSpec};
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::obs::{JsonlSink, SharedSink, VecSink};
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::duty_cycled;
use alphawan_system::sim::world::SimWorld;
use std::path::PathBuf;

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

fn build_world(seed: u64) -> SimWorld {
    let profile = GatewayProfile::rak7268cv2();
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, eight_channels()).unwrap(),
            )
        })
        .collect();
    SimWorld::new(flat_topology(24, 2, seed), vec![1; 24], gateways)
}

fn traffic() -> Vec<alphawan_system::sim::traffic::TxPlan> {
    let chans = eight_channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..24)
        .map(|i| (i, chans[i % 8], DataRate::from_index(3 + i % 3).unwrap()))
        .collect();
    duty_cycled(&assigns, 23, 0.05, 20_000_000, 11)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x0B5,
        faults: vec![
            FaultSpec::GatewayCrash {
                gateway: 0,
                start_us: 3_000_000,
                end_us: 9_000_000,
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

/// One instrumented run: events to `<name>.jsonl` in a temp dir,
/// returning the file's exact bytes.
fn run_to_jsonl(name: &str, plan: Option<&FaultPlan>) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!("alphawan-obs-determinism-{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    {
        let sink = JsonlSink::create(&path).expect("temp dir writable");
        let mut world = build_world(7);
        match plan {
            Some(plan) => {
                let schedule = FaultSchedule::compile(plan).unwrap();
                world.set_obs_sink(Box::new(sink));
                world.run_with_faults(&traffic(), &schedule);
            }
            None => {
                world.set_obs_sink(Box::new(sink));
                world.run(&traffic());
            }
        }
        // Dropping the world drops the sink, flushing buffered lines.
    }
    let bytes = std::fs::read(&path).expect("stream written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn same_seed_runs_emit_byte_identical_jsonl() {
    let a = run_to_jsonl("plain-a", None);
    let b = run_to_jsonl("plain-b", None);
    assert!(!a.is_empty(), "instrumented run produced no events");
    assert_eq!(a, b, "fault-free event streams diverged across runs");
}

#[test]
fn same_seed_chaos_runs_emit_byte_identical_jsonl() {
    let plan = chaos_plan();
    let a = run_to_jsonl("chaos-a", Some(&plan));
    let b = run_to_jsonl("chaos-b", Some(&plan));
    assert!(!a.is_empty(), "instrumented chaos run produced no events");
    assert_eq!(a, b, "chaos event streams diverged across runs");
    // Faults change decoder admission, so the chaos stream differs
    // from the fault-free one.
    assert_ne!(a, run_to_jsonl("plain-c", None));
}

/// Trace ids in the stream: nonzero on every packet event, stable for
/// a fixed (epoch, tx), and salted by the world's run epoch — which
/// advances on *every* run, observed or not, so attaching a sink never
/// shifts the ids of later runs.
#[test]
fn trace_ids_are_epoch_salted_and_sink_independent() {
    use alphawan_system::obs::{ObsEvent, SharedSink, VecSink};

    let capture = |world: &mut SimWorld| -> Vec<ObsEvent> {
        let shared = SharedSink::new(VecSink::new());
        world.set_obs_sink(Box::new(shared.clone()));
        world.run(&traffic());
        world.take_obs_sink();
        shared.with(|v| v.events().to_vec())
    };
    let traces =
        |events: &[ObsEvent]| -> Vec<u64> { events.iter().filter_map(|e| e.trace()).collect() };

    // World A: two observed runs. Same txs, different epochs.
    let mut a = build_world(7);
    let (a0, a1) = (capture(&mut a), capture(&mut a));
    let (t0, t1) = (traces(&a0), traces(&a1));
    assert!(t0.iter().all(|&t| t != 0), "untraced packet event");
    assert_eq!(t0.len(), t1.len(), "event sequence changed across runs");
    assert_ne!(t0, t1, "run epoch did not salt the trace ids");
    let expected: Vec<u64> = a0
        .iter()
        .filter_map(|e| match e {
            ObsEvent::TxStart { tx, .. } => Some(alphawan_system::obs::packet_trace(0, *tx)),
            _ => None,
        })
        .collect();
    let minted: Vec<u64> = a0
        .iter()
        .filter_map(|e| match e {
            ObsEvent::TxStart { trace, .. } => Some(*trace),
            _ => None,
        })
        .collect();
    assert_eq!(minted, expected, "epoch-0 ids disagree with packet_trace");

    // World B: one unobserved run, then an observed one. Its observed
    // stream must be identical to world A's second (epoch-1) stream.
    let mut b = build_world(7);
    b.run(&traffic());
    let b1 = capture(&mut b);
    assert_eq!(traces(&b1), t1, "unobserved run did not advance the epoch");
}

#[test]
fn instrumentation_does_not_change_run_results() {
    let mut plain = build_world(7);
    let expected = plain.run(&traffic());

    let mut observed = build_world(7);
    let shared = SharedSink::new(VecSink::new());
    observed.set_obs_sink(Box::new(shared.clone()));
    let got = observed.run(&traffic());

    assert_eq!(got, expected, "sink attachment altered simulation output");
    let events = shared.with(|m| m.len());
    assert!(events > 0, "metrics sink saw no events");
}
