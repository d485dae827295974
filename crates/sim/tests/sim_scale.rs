//! The scale gate: million-node streamed runs give the same answer on
//! eight shards as on one.
//!
//! Small worlds hold the engine to the executable spec record for
//! record (`tests/sim_equivalence.rs`); at 1M and 10M nodes the spec
//! cannot run and per-packet records cannot be kept, so each point
//! streams its workload twice — `MAX_SHARDS` shards, then one — and
//! requires the two aggregate summaries to pass
//! [`RunSummary::statistically_equivalent`](sim::metrics::RunSummary::statistically_equivalent)
//! at 1e-9. Shard count is proven not to change results at small
//! scale, so any gap at all means scale broke something the
//! small-scale proofs cannot see.
//!
//! The worlds: heterogeneous gateway listening sets over a US915-scale
//! 64-channel band (one 8-channel sub-band block per gateway group),
//! duty-cycled traffic with a mixed DR population. The 10M-node point
//! needs about 4 GB, so that test is ignored by default; run it with
//!
//! ```text
//! cargo test --release -p sim --test sim_scale -- --ignored
//! ```
//!
//! The default run holds the same two world shapes to the same gate at
//! tier-1 size, and checks that they split into `MAX_SHARDS` shards,
//! so the eight-versus-one comparison is never one shard against one.

use gateway::config::GatewayConfig;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::DataRate;
use sim::shard::{ShardOpts, StreamedRun};
use sim::topology::Topology;
use sim::traffic::DutyCycleStream;
use sim::world::SimWorld;

/// The paper's experiment payload: 10 app bytes + 13 LoRaWAN framing.
const PAYLOAD_LEN: usize = 23;

/// The band has 8 gateway-covered sub-band components at most, so 8
/// shards is "as sharded as it gets".
const MAX_SHARDS: usize = 8;

/// A US915-scale uplink band: 64 disjoint 125 kHz channels in 8
/// sub-bands of 8.
fn band() -> Vec<Channel> {
    ChannelGrid::standard(902_300_000, 12_800_000).channels()
}

/// Sub-bands that have at least one listening gateway.
fn covered_subbands(gws: usize) -> usize {
    (band().len() / 8).min(gws)
}

/// A dense urban deployment whose gateways split into contiguous
/// groups, one per covered sub-band, each listening to its group's
/// 8-channel block — independent components the shard partition finds.
fn build_world(nodes: usize, gws: usize, seed: u64) -> SimWorld {
    let chans = band();
    let model = PathLossModel {
        shadowing_sigma_db: 2.0,
        ..Default::default()
    };
    let mut topo = Topology::new((1_800.0, 1_400.0), nodes, gws, model, seed);
    topo.clamp_loss(108.0, 126.0);
    let profile = GatewayProfile::rak7268cv2();
    let n_sub = covered_subbands(gws);
    let gateways = (0..gws)
        .map(|i| {
            let block = (i * n_sub / gws) * 8;
            let cfg = GatewayConfig::new(profile, chans[block..block + 8].to_vec())
                .expect("8-channel block valid for an SX1302");
            Gateway::new(i, 1, profile, cfg)
        })
        .collect();
    SimWorld::new(topo, vec![1; nodes], gateways)
}

/// Channel/DR assignment over the covered spectrum, DR0–5 mixed.
fn assignments(nodes: usize, gws: usize) -> Vec<(usize, Channel, DataRate)> {
    let chans = band();
    let n_cov = covered_subbands(gws) * 8;
    (0..nodes)
        .map(|i| {
            (
                i,
                chans[i % n_cov],
                DataRate::from_index((i / n_cov) % 6).unwrap(),
            )
        })
        .collect()
}

/// One point's world and workload, streamable on any shard count.
struct Point {
    world: SimWorld,
    assigns: Vec<(usize, Channel, DataRate)>,
    duty: f64,
    horizon_us: u64,
    seed: u64,
}

impl Point {
    fn new(nodes: usize, gws: usize, duty: f64, horizon_us: u64) -> Point {
        let seed = 770_000 + nodes as u64;
        Point {
            world: build_world(nodes, gws, seed),
            assigns: assignments(nodes, gws),
            duty,
            horizon_us,
            seed,
        }
    }

    /// Stream the workload on up to `max_shards` shards, then reset
    /// the world for the next run.
    fn run(&mut self, max_shards: usize) -> StreamedRun {
        let mut stream = DutyCycleStream::new(
            &self.assigns,
            PAYLOAD_LEN,
            self.duty,
            self.horizon_us,
            self.seed ^ 0xF00D,
            500_000,
        );
        let opts = ShardOpts {
            max_shards,
            ..ShardOpts::default()
        };
        let run = self.world.run_streamed(&mut stream, &opts);
        self.world.reset();
        run
    }
}

/// Stream one point's workload on up to `MAX_SHARDS` shards and then
/// on one, and hold the two runs to the gate.
fn streamed_point(nodes: usize, gws: usize, duty: f64, horizon_us: u64) {
    let mut point = Point::new(nodes, gws, duty, horizon_us);
    let run_n = point.run(MAX_SHARDS);
    let run_1 = point.run(1);

    let gate = run_n
        .summary
        .statistically_equivalent(&run_1.summary, 1e-9, 1e-9);
    assert!(
        gate.is_ok(),
        "{nodes}-node statistical gate failed: {}",
        gate.err().unwrap_or_default()
    );
    let stats = run_n.stats;
    assert!(stats.txs > 0, "{nodes} nodes: no transmissions");
    assert_eq!(stats.events, 3 * stats.txs, "{nodes} nodes: {stats:?}");
    assert!(!run_n.shard_stats.is_empty(), "{nodes} nodes: no shards");
    // The interference state's fold count is the O(delta) cost
    // model's witness.
    assert!(
        stats.accum_updates + stats.accum_undos > 0,
        "{nodes} nodes: no interference folds"
    );
}

#[test]
#[ignore = "10M nodes, ~4 GB: CI release only"]
fn streamed_shards_agree_with_one_shard_at_1m_and_10m_nodes() {
    // (nodes, gateways, duty, horizon): a dense 1 % point, and a
    // 10M-node city at a sparse-IoT 0.1 % duty.
    streamed_point(1_000_000, 64, 0.01, 2_000_000);
    streamed_point(10_000_000, 32, 0.001, 2_000_000);
}

#[test]
fn streamed_shards_agree_with_one_shard_in_a_small_dense_city() {
    // The 1M point's shape — 64 gateways, 1 % duty — at tier-1 size.
    streamed_point(20_000, 64, 0.01, 2_000_000);
}

#[test]
fn streamed_shards_agree_with_one_shard_in_a_small_sparse_city() {
    // The 10M point's shape — 32 gateways, 0.1 % duty — at tier-1 size.
    streamed_point(100_000, 32, 0.001, 2_000_000);
}

#[test]
fn the_scale_worlds_split_into_max_shards() {
    for gws in [64, 32] {
        let run = Point::new(20_000, gws, 0.01, 2_000_000).run(MAX_SHARDS);
        assert_eq!(run.shard_stats.len(), MAX_SHARDS, "{gws} gateways");
        for shard in &run.shard_stats {
            assert_eq!(
                shard.gateways as usize,
                gws / MAX_SHARDS,
                "{gws} gateways: {shard:?}"
            );
            assert!(shard.txs > 0, "{gws} gateways: idle shard {shard:?}");
        }
    }
}
