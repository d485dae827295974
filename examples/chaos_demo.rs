//! Fault-injection walkthrough: run the same deployment healthy and
//! under a JSON fault plan, and show the infrastructure-loss
//! attribution the chaos layer adds.
//!
//! ```text
//! cargo run --release --example chaos_demo [plan.json]
//! ```
//!
//! With no argument a built-in plan (two overlapping gateway crashes +
//! a decoder lock-up) is used; pass a path to replay your own plan.
//!
//! Set `ALPHAWAN_OBS_OUT=<dir>` to stream the faulted run's full
//! [`ObsEvent`] trace to `<dir>/chaos_demo.events.jsonl` (plan
//! announcement first), ready for `tracectl`:
//!
//! ```text
//! ALPHAWAN_OBS_OUT=out cargo run --release --example chaos_demo
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

fn main() {
    let json = match std::env::args().nth(1) {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => DEFAULT_PLAN.to_string(),
    };
    let plan: FaultPlan = match FaultPlan::from_json(&json) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("invalid fault plan: {e}");
            std::process::exit(2);
        }
    };
    let schedule = match FaultSchedule::compile(&plan) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid fault plan: {e}");
            std::process::exit(2);
        }
    };

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
    // lifecycles (and the fault-plan announcement) to JSONL when
    // ALPHAWAN_OBS_OUT is set, for offline `tracectl` analysis.
    let mut faulted_world = build_world();
    let obs_path = std::env::var_os("ALPHAWAN_OBS_OUT").map(|dir| {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("ALPHAWAN_OBS_OUT dir creatable");
        let path = dir.join("chaos_demo.events.jsonl");
        let mut sink = alphawan_system::obs::JsonlSink::create(&path).expect("events file");
        plan.observe(&mut sink);
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
