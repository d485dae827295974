//! Continuous-telemetry acceptance test: a streamed (chunked, sharded)
//! run with `ALPHAWAN_HEARTBEAT` set emits parseable per-shard
//! heartbeat JSONL with monotone sequence numbers and frontiers — the
//! live surface `tracectl tail` renders.

use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::obs;
use alphawan_system::sim::shard::ShardOpts;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::DutyCycleStream;
use alphawan_system::sim::world::SimWorld;
use std::collections::BTreeMap;
use std::path::PathBuf;

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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("telemetry-live-{}-{name}", std::process::id()))
}

#[test]
fn streamed_run_emits_live_heartbeats() {
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
