//! Continuous-telemetry acceptance tests.
//!
//! Two contracts, end to end against the real simulation engine:
//!
//! * attaching the span profiler is invisible to the simulation — the
//!   records AND the streamed JSONL event bytes are bit-identical to a
//!   detached run;
//! * a streamed (chunked, sharded) run with `ALPHAWAN_HEARTBEAT` set
//!   emits parseable per-shard heartbeat JSONL with monotone sequence
//!   numbers and frontiers — the live surface `tracectl tail` renders.

use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::obs::{self, JsonlSink};
use alphawan_system::sim::faults::NoFaults;
use alphawan_system::sim::shard::ShardOpts;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::{duty_cycled, DutyCycleStream, TxPlan};
use alphawan_system::sim::world::SimWorld;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// `ALPHAWAN_HEARTBEAT` is process-global and every run reads it, so a
/// run on another test thread would write into the heartbeat test's
/// file: the tests here take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn eight_channels() -> Vec<Channel> {
    ChannelGrid::standard(916_800_000, 1_600_000).channels()
}

fn build_world(nodes: usize, gws: usize, seed: u64) -> SimWorld {
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut topo = Topology::new((500.0, 400.0), nodes, gws, model, seed);
    topo.clamp_loss(108.0, f64::INFINITY);
    let profile = GatewayProfile::rak7268cv2();
    let gateways = (0..gws)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, eight_channels()).unwrap(),
            )
        })
        .collect();
    SimWorld::new(topo, vec![1; nodes], gateways)
}

fn traffic(nodes: usize, horizon_us: u64) -> Vec<TxPlan> {
    let chans = eight_channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..nodes)
        .map(|i| (i, chans[i % 8], DataRate::from_index(3 + i % 3).unwrap()))
        .collect();
    duty_cycled(&assigns, 23, 0.05, horizon_us, 11)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("telemetry-live-{}-{name}", std::process::id()))
}

#[test]
fn span_profiler_attach_is_bit_exact() {
    let _turn = take_turn();
    let plans = traffic(24, 20_000_000);
    let run_to_jsonl = |path: &PathBuf| {
        let mut world = build_world(24, 2, 5);
        world.set_obs_sink(Box::new(JsonlSink::create(path).expect("jsonl sink")));
        let records = world.run_with_faults(&plans, &NoFaults);
        drop(world.take_obs_sink());
        records
    };

    let detached_path = tmp("detached.jsonl");
    obs::span::detach();
    let detached_records = run_to_jsonl(&detached_path);

    let attached_path = tmp("attached.jsonl");
    obs::span::attach_with_stride(0); // sample every call: worst case
    let attached_records = run_to_jsonl(&attached_path);
    let report = obs::span::report();
    obs::span::detach();

    assert_eq!(
        attached_records, detached_records,
        "profiler changed simulation records"
    );
    let detached_bytes = std::fs::read(&detached_path).expect("detached stream");
    let attached_bytes = std::fs::read(&attached_path).expect("attached stream");
    assert!(!detached_bytes.is_empty(), "observed run emitted no events");
    assert_eq!(
        attached_bytes, detached_bytes,
        "profiler changed the event stream bytes"
    );
    // And the attached run actually profiled the engine phases.
    for site in ["shard.ingest", "shard.drain", "shard.merge"] {
        assert!(
            report
                .sites
                .iter()
                .any(|s| s.site == site && s.calls > 0 && s.samples > 0),
            "site {site} missing from attached profile"
        );
    }
    let _ = std::fs::remove_file(&detached_path);
    let _ = std::fs::remove_file(&attached_path);
}

#[test]
fn streamed_run_emits_live_heartbeats() {
    let _turn = take_turn();
    let hb_path = tmp("heartbeats.jsonl");
    let _ = std::fs::remove_file(&hb_path);
    std::env::set_var("ALPHAWAN_HEARTBEAT", &hb_path);
    std::env::set_var("ALPHAWAN_HEARTBEAT_MS", "0"); // every beat

    let nodes = 96;
    let chans = eight_channels();
    let assigns: Vec<(usize, Channel, DataRate)> = (0..nodes)
        .map(|i| (i, chans[i % 8], DataRate::from_index(3 + i % 3).unwrap()))
        .collect();
    let mut stream = DutyCycleStream::new(&assigns, 23, 0.05, 20_000_000, 11, 1_000_000);
    let mut world = build_world(nodes, 2, 7);
    let run = world.run_streamed(&mut stream, &ShardOpts::default());

    std::env::remove_var("ALPHAWAN_HEARTBEAT");
    std::env::remove_var("ALPHAWAN_HEARTBEAT_MS");
    assert!(run.stats.txs > 0, "streamed run retired no transmissions");

    let text = std::fs::read_to_string(&hb_path).expect("heartbeat file written");
    let beats: Vec<obs::Heartbeat> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("heartbeat line parses"))
        .collect();
    assert!(!beats.is_empty(), "no heartbeats emitted");

    let mut last: BTreeMap<u32, &obs::Heartbeat> = BTreeMap::new();
    for b in &beats {
        if let Some(prev) = last.get(&b.shard) {
            assert!(b.seq > prev.seq, "shard {} seq not monotone", b.shard);
            assert!(
                b.frontier_us >= prev.frontier_us,
                "shard {} frontier went backwards",
                b.shard
            );
            assert!(b.events >= prev.events, "shard {} events shrank", b.shard);
        }
        last.insert(b.shard, b);
    }
    let events_seen: u64 = last.values().map(|b| b.events).sum();
    assert!(events_seen > 0, "heartbeats never reported progress");
    let _ = std::fs::remove_file(&hb_path);
}
