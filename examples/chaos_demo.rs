//! Fault-injection walkthrough: run the same deployment healthy and
//! under a JSON fault plan, and show the infrastructure-loss
//! attribution the chaos layer adds.
//!
//! ```text
//! cargo run --release --example chaos_demo -- [--obs-out <DIR>] [plan.json]
//! ```
//!
//! With no plan a built-in one (two overlapping gateway crashes + a
//! decoder lock-up) is used; pass a path to replay your own plan.
//!
//! `--obs-out <DIR>` streams the faulted run's full [`ObsEvent`] trace
//! to `<DIR>/chaos_demo.events.jsonl`, ready for `tracectl`:
//!
//! ```text
//! cargo run --release --example chaos_demo -- --obs-out out
//! cargo run --release -p bench --bin tracectl -- out/chaos_demo.events.jsonl --check
//! ```

use alphawan_system::chaos::{FaultPlan, FaultSchedule};
use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::channel::ChannelGrid;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::sim::metrics::RunMetrics;
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::duty_cycled;
use alphawan_system::sim::world::SimWorld;

const DEFAULT_PLAN: &str = r#"{
  "seed": 802309,
  "faults": [
    { "GatewayCrash":  { "gateway": 0, "start_us": 3000000, "end_us": 9000000 } },
    { "GatewayCrash":  { "gateway": 1, "start_us": 4000000, "end_us": 8000000 } },
    { "DecoderLockup": { "gateway": 1, "decoders": 4,
                         "start_us": 10000000, "end_us": 15000000 } }
  ]
}"#;

const NODES: usize = 24;
const RUN_US: u64 = 20_000_000;

fn build_world() -> SimWorld {
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut topo = Topology::new((500.0, 400.0), NODES, 2, model, 7);
    topo.clamp_loss(108.0, f64::INFINITY);
    let profile = GatewayProfile::rak7268cv2();
    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                1,
                profile,
                GatewayConfig::new(profile, channels.clone()).unwrap(),
            )
        })
        .collect();
    SimWorld::new(topo, vec![1; NODES], gateways)
}

fn report(label: &str, m: &RunMetrics) {
    println!(
        "{label:>8}: sent {:4}  delivered {:4}  PDR {:>5.1}%  \
         contention {:3}  infrastructure {:3}",
        m.sent,
        m.delivered,
        100.0 * m.delivered as f64 / m.sent.max(1) as f64,
        m.losses.channel_intra
            + m.losses.channel_inter
            + m.losses.decoder_intra
            + m.losses.decoder_inter,
        m.losses.infrastructure,
    );
}

/// `r`'s value, or `what: <error>` on stderr and exit code 2.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let (mut plan_path, mut obs_dir) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--obs-out" {
            obs_dir = args.next().map(std::path::PathBuf::from);
        } else {
            plan_path = Some(a);
        }
    }
    let json = match plan_path {
        Some(path) => or_exit(
            std::fs::read_to_string(&path),
            &format!("cannot read {path}"),
        ),
        None => DEFAULT_PLAN.to_string(),
    };
    let plan = or_exit(FaultPlan::from_json(&json), "invalid fault plan");
    let schedule = or_exit(FaultSchedule::compile(&plan), "invalid fault plan");

    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let assigns: Vec<_> = (0..NODES)
        .map(|i| (i, channels[i % 8], DataRate::from_index(3 + i % 3).unwrap()))
        .collect();
    let traffic = duty_cycled(&assigns, 23, 0.05, RUN_US, 11);

    println!(
        "{NODES} nodes, 2 gateways, {}s, {} fault(s), seed {}",
        RUN_US / 1_000_000,
        plan.faults.len(),
        plan.seed
    );

    let healthy = RunMetrics::from_records(&build_world().run(&traffic), None);
    report("healthy", &healthy);

    // The faulted run is the interesting one: stream its packet
    // lifecycles to JSONL under `--obs-out`, for offline `tracectl`
    // analysis.
    let mut faulted_world = build_world();
    let obs_path = obs_dir.map(|dir| {
        std::fs::create_dir_all(&dir).expect("--obs-out dir creatable");
        let path = dir.join("chaos_demo.events.jsonl");
        let sink = alphawan_system::obs::JsonlSink::create(&path).expect("events file");
        faulted_world.set_obs_sink(Box::new(sink));
        path
    });
    let faulted =
        RunMetrics::from_records(&faulted_world.run_with_faults(&traffic, &schedule), None);
    drop(faulted_world); // flush the JSONL stream
    report("faulted", &faulted);
    if let Some(path) = obs_path {
        println!("events: {}", path.display());
    }

    // Replay: same plan, fresh world — byte-identical metrics.
    let replay =
        RunMetrics::from_records(&build_world().run_with_faults(&traffic, &schedule), None);
    let identical = faulted == replay;
    println!(
        "replay: {}",
        if identical {
            "byte-identical metrics"
        } else {
            "MISMATCH (bug!)"
        }
    );
}
