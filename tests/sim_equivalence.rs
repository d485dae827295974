//! Differential property test: the simulation engine behind every
//! `SimWorld::run*` entry point must be record-for-record — and
//! event-for-event — identical to the executable specification
//! (`sim::reference::run_with_faults_reference`) on randomized worlds,
//! at every shard count.
//!
//! Each case draws a full scenario from one seed: topology size and
//! losses, heterogeneous gateway listening sets (including 40%-shifted
//! channels so partial-overlap leakage paths are exercised), two
//! coexisting networks, mixed data rates and Tx powers, CIC on or off,
//! overlapping traffic, and optionally a chaos fault schedule with
//! gateway crashes and decoder lock-ups (the `gateway_ever_down` /
//! `decoder_lockups_possible` fast-path gates). Half the cases attach
//! an observability sink and require the typed event streams to match
//! too; every case runs each world twice so gateway state carried
//! across runs and run-epoch advancement are also covered. Before its
//! two runs, every engine world first serves an unrelated warm-up run
//! (other plans, another shard count, a changed node power and gateway
//! plan, both put back): the engine buffers a world keeps between runs
//! must carry nothing into the next one. Debug builds poison the
//! engine's unwritten link-table lanes, so these runs also prove no
//! read strays outside the lanes written for it.

use alphawan_system::chaos::{FaultPlan, FaultSchedule, FaultSpec};
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::{Channel, ChannelGrid};
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::{DataRate, TxPowerDbm};
use alphawan_system::obs::{ObsEvent, SharedSink, VecSink};
use alphawan_system::sim::faults::{InfraFaults, NoFaults};
use alphawan_system::sim::metrics::RunSummary;
use alphawan_system::sim::reference::run_with_faults_reference;
use alphawan_system::sim::shard::ShardOpts;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::{SliceChunks, TxPlan};
use alphawan_system::sim::world::SimWorld;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Channel pool the generator draws from: a full 8-channel grid plus
/// 40%-shifted variants of half of it, so victim/interferer pairs land
/// in every spectral class (identical, partial-overlap leak, disjoint).
fn channel_pool() -> Vec<Channel> {
    let base = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let mut pool = base.clone();
    for ch in base.iter().take(4) {
        pool.push(Channel::khz125(ch.center_hz + 50_000));
    }
    pool
}

/// One randomized scenario, fully determined by `seed`.
struct Scenario {
    nodes: usize,
    gws: usize,
    topo_seed: u64,
    gw_channels: Vec<Vec<Channel>>,
    gw_network: Vec<u32>,
    node_network: Vec<u32>,
    node_power: Vec<TxPowerDbm>,
    cic: bool,
    plans: Vec<TxPlan>,
    fault_plan: Option<FaultPlan>,
    observed: bool,
    /// The engine worlds' warm-up: its plans, and the listening set
    /// gateway 0 has during it.
    warm_plans: Vec<TxPlan>,
    warm_gw0: Vec<Channel>,
}

impl Scenario {
    fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = channel_pool();
        let nodes = rng.gen_range(1usize..=24);
        let gws = rng.gen_range(1usize..=4);

        let gw_channels: Vec<Vec<Channel>> = (0..gws)
            .map(|_| {
                let len = rng.gen_range(1usize..=6);
                let mut idx: Vec<usize> = (0..len).map(|_| rng.gen_range(0..pool.len())).collect();
                idx.sort_unstable();
                idx.dedup();
                idx.into_iter().map(|i| pool[i]).collect::<Vec<Channel>>()
            })
            .collect();
        let gw_network = (0..gws).map(|_| rng.gen_range(1u32..=2)).collect();
        let node_network = (0..nodes).map(|_| rng.gen_range(1u32..=2)).collect();
        let node_power = (0..nodes)
            .map(|_| TxPowerDbm(rng.gen_range(8i32..=20) as f64))
            .collect();

        let random_plans = |rng: &mut StdRng| -> Vec<TxPlan> {
            let n_txs = rng.gen_range(4usize..=70);
            (0..n_txs)
                .map(|_| TxPlan {
                    node: rng.gen_range(0..nodes),
                    channel: pool[rng.gen_range(0..pool.len())],
                    dr: DataRate::from_index(rng.gen_range(0usize..6)).unwrap(),
                    start_us: rng.gen_range(0u64..3_000_000),
                    payload_len: rng.gen_range(8usize..=32),
                })
                .collect()
        };
        let plans = random_plans(&mut rng);

        let fault_plan = match rng.gen_range(0u8..3) {
            0 => None,
            1 => Some(FaultPlan::empty(seed)),
            _ => {
                let n_faults = rng.gen_range(1usize..=3);
                let faults = (0..n_faults)
                    .map(|_| {
                        let gateway = rng.gen_range(0..gws);
                        let start_us = rng.gen_range(0u64..4_000_000);
                        let end_us = start_us + rng.gen_range(100_000u64..3_000_000);
                        if rng.gen_bool(0.5) {
                            FaultSpec::GatewayCrash {
                                gateway,
                                start_us,
                                end_us,
                            }
                        } else {
                            FaultSpec::DecoderLockup {
                                gateway,
                                decoders: rng.gen_range(1usize..=16),
                                start_us,
                                end_us,
                            }
                        }
                    })
                    .collect();
                Some(FaultPlan { seed, faults })
            }
        };

        let topo_seed = rng.gen_range(0u64..1 << 32);
        let cic = rng.gen_bool(0.5);
        let observed = rng.gen_bool(0.5);
        let warm_plans = random_plans(&mut rng);
        let warm_gw0 = pool
            .iter()
            .copied()
            .filter(|ch| !gw_channels[0].contains(ch))
            .take(rng.gen_range(1usize..=6))
            .collect();
        Scenario {
            nodes,
            gws,
            topo_seed,
            gw_channels,
            gw_network,
            node_network,
            node_power,
            cic,
            plans,
            fault_plan,
            observed,
            warm_plans,
            warm_gw0,
        }
    }

    /// Build one world instance (both paths get identical builds).
    fn build_world(&self) -> SimWorld {
        let model = PathLossModel {
            shadowing_sigma_db: 3.0,
            ..Default::default()
        };
        let topo = Topology::new(
            (2_500.0, 2_000.0),
            self.nodes,
            self.gws,
            model,
            self.topo_seed,
        );
        let profile = GatewayProfile::rak7268cv2();
        let gateways = (0..self.gws)
            .map(|i| {
                Gateway::new(
                    i,
                    self.gw_network[i],
                    profile,
                    GatewayConfig::new(profile, self.gw_channels[i].clone()).unwrap(),
                )
            })
            .collect();
        let mut w = SimWorld::new(topo, self.node_network.clone(), gateways);
        w.node_power = self.node_power.clone();
        w.cic = self.cic;
        w
    }

    /// An unrelated engine run on `w` — the warm-up plans over five
    /// shards, with node 0 louder and gateway 0 on other channels —
    /// after which the world is put back as built (bar its run epoch
    /// and the engine buffers it keeps).
    fn warm_up(&self, w: &mut SimWorld) {
        let profile = GatewayProfile::rak7268cv2();
        let built = w.gateways[0].config().clone();
        w.node_power[0] = TxPowerDbm(self.node_power[0].0 + 7.0);
        w.gateways[0].reconfigure(GatewayConfig::new(profile, self.warm_gw0.clone()).unwrap());
        let opts = ShardOpts {
            max_shards: 5,
            chunk_txs: 3,
        };
        w.run_sharded_with_faults(&self.warm_plans, &NoFaults, &opts);
        w.node_power[0] = self.node_power[0];
        w.gateways[0].reconfigure(built);
        w.reset();
    }
}

type Records = Vec<alphawan_system::sim::world::PacketRecord>;

/// Run one world through `runner` twice (gateway state and run epoch
/// carry across runs), capturing the observed event streams when the
/// scenario asks for them. An engine world is warmed up first
/// ([`Scenario::warm_up`]); the spec's world spends the same run epoch
/// on an empty run, so both mint the same trace ids.
fn run_twice(
    sc: &Scenario,
    engine: bool,
    runner: impl Fn(&mut SimWorld) -> Records,
) -> (
    Records,
    Records,
    Vec<alphawan_system::gateway::radio::GatewayStats>,
    Vec<ObsEvent>,
) {
    let mut w = sc.build_world();
    if engine {
        sc.warm_up(&mut w);
    } else {
        run_with_faults_reference(&mut w, &[], &NoFaults);
    }
    let shared = SharedSink::new(VecSink::new());
    if sc.observed {
        w.set_obs_sink(Box::new(shared.clone()));
    }
    let first = runner(&mut w);
    w.reset();
    let second = runner(&mut w);
    let stats = w.gateways.iter().map(|g| g.stats()).collect();
    let events = shared.with(|v| v.events().to_vec());
    (first, second, stats, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `run_with_faults` (one shard, inline on the calling thread) and
    /// `run_sharded_with_faults` over 1, 2 and 5 shards (spawned from
    /// two up, with a scenario-derived chunk size) each reproduce the
    /// spec byte for byte — records, gateway counters and (when
    /// observed) the typed observability stream — across two
    /// consecutive runs of the same world, the engine's after an
    /// unrelated warm-up run, fault plans and leaking
    /// 40%-shifted channels included (the leak sum is an integer fold
    /// on both sides, so its order cannot matter); and the streamed
    /// (aggregate-only) path folds the exact [`RunSummary`] that the
    /// spec's records imply.
    fn engine_matches_reference(seed in any::<u64>()) {
        let sc = Scenario::generate(seed);
        let schedule = sc
            .fault_plan
            .as_ref()
            .map(|p| FaultSchedule::compile(p).unwrap());
        let faults: &dyn InfraFaults = match &schedule {
            Some(s) => s,
            None => &NoFaults,
        };
        let chunk_txs = 1 + (seed % 23) as usize;

        let spec = run_twice(&sc, false, |w| run_with_faults_reference(w, &sc.plans, faults));
        if sc.observed {
            prop_assert!(!spec.3.is_empty(), "observed run emitted no events");
        }
        // The runs are non-degenerate often enough to mean something:
        // every plan produced a record.
        prop_assert_eq!(spec.0.len(), sc.plans.len());

        // `None` is the plain entry point, `Some(n)` the sharded one.
        for max_shards in [None, Some(1usize), Some(2), Some(5)] {
            let engine = run_twice(&sc, true, |w| match max_shards {
                None => w.run_with_faults(&sc.plans, faults),
                Some(max_shards) => {
                    let opts = ShardOpts { max_shards, chunk_txs };
                    w.run_sharded_with_faults(&sc.plans, faults, &opts)
                }
            });
            prop_assert_eq!(&engine.0, &spec.0, "first-run records diverged ({:?})", max_shards);
            prop_assert_eq!(&engine.1, &spec.1, "second-run records diverged ({:?})", max_shards);
            prop_assert_eq!(&engine.2, &spec.2, "gateway stats diverged ({:?})", max_shards);
            prop_assert_eq!(&engine.3, &spec.3, "observed event streams diverged ({:?})", max_shards);
        }

        // Streamed aggregate == fold of the spec's records, and the
        // statistical gate accepts identical summaries at zero
        // tolerance.
        let expect = RunSummary::from_records(&spec.0);
        let mut w = sc.build_world();
        let opts = ShardOpts { max_shards: 3, chunk_txs };
        let mut source = SliceChunks::new(&sc.plans, chunk_txs);
        let streamed = w.run_streamed_with_faults(&mut source, faults, &opts);
        prop_assert_eq!(&streamed.summary, &expect, "streamed summary diverged");
        prop_assert!(streamed.summary.statistically_equivalent(&expect, 0.0, 0.0).is_ok());
        let per_shard: u64 = streamed.shard_stats.iter().map(|s| s.txs).sum();
        prop_assert_eq!(per_shard, sc.plans.len() as u64);
    }
}
