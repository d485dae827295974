//! `loadgen` — replay a simulated gateway fleet against a live
//! `netserverd` and (optionally) verify the daemon's dedup decisions.
//!
//! ```text
//! loadgen --server ADDR [--master ADDR] [--metrics ADDR]
//!         [--devices N] [--gateways N] [--replicas N] [--epochs N]
//!         [--batch N] [--target-pps N] [--inflight N] [--seed N]
//!         [--window-us N] [--chaos-loss P] [--mode NAME]
//! ```
//!
//! With `--metrics`, the daemon's `/decisions` stream is scraped after
//! the run and replayed in-process; any divergence is a non-zero exit.
//! With `--chaos-loss`, an in-process [`chaos::ChaosUdpProxy`] with
//! that datagram-loss probability is spliced in front of the server.
//! Prints the versioned service report ([`svc::ServiceBench`]) to
//! stdout.

use chaos::{ChaosUdpProxy, FaultPlan, FaultSchedule, FaultSpec};
use std::net::SocketAddr;
use svc::runtime::parse_decisions;
use svc::{http_get, LatencyQuantiles, LoadgenConfig, ServiceBench};

struct Flags {
    cfg: LoadgenConfig,
    metrics: Option<SocketAddr>,
    window_us: u64,
    chaos_loss: Option<f64>,
    mode: String,
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        cfg: LoadgenConfig::default(),
        metrics: None,
        window_us: 2_000_000,
        chaos_loss: None,
        mode: "smoke".to_string(),
    };
    let mut server = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(parse(&value("--server")?)?),
            "--master" => flags.cfg.master = Some(parse(&value("--master")?)?),
            "--metrics" => flags.metrics = Some(parse(&value("--metrics")?)?),
            "--devices" => flags.cfg.devices = parse(&value("--devices")?)?,
            "--gateways" => flags.cfg.gateways = parse(&value("--gateways")?)?,
            "--replicas" => flags.cfg.replicas = parse(&value("--replicas")?)?,
            "--epochs" => flags.cfg.epochs = parse(&value("--epochs")?)?,
            "--batch" => flags.cfg.batch = parse(&value("--batch")?)?,
            "--target-pps" => flags.cfg.target_pps = Some(parse(&value("--target-pps")?)?),
            "--inflight" => flags.cfg.max_inflight_datagrams = parse(&value("--inflight")?)?,
            "--seed" => flags.cfg.seed = parse(&value("--seed")?)?,
            "--window-us" => flags.window_us = parse(&value("--window-us")?)?,
            "--chaos-loss" => flags.chaos_loss = Some(probability(&value("--chaos-loss")?)?),
            "--mode" => flags.mode = value("--mode")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    flags.cfg.server = server.ok_or("--server is required")?;
    Ok(flags)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?}"))
}

/// A probability: a number in `[0, 1]` (so not NaN).
fn probability(s: &str) -> Result<f64, String> {
    let p: f64 = parse(s)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("bad value {s:?}: a probability is in [0, 1]"))
    }
}

fn main() {
    let mut flags = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Optional chaos splice: loadgen → proxy → server.
    let proxy = flags.chaos_loss.map(|probability| {
        let plan = FaultPlan {
            seed: flags.cfg.seed,
            faults: vec![FaultSpec::BackhaulLoss {
                probability,
                start_us: 0,
                end_us: u64::MAX,
            }],
        };
        let schedule = FaultSchedule::compile(&plan).expect("valid loss plan");
        let proxy = ChaosUdpProxy::start(flags.cfg.server, schedule).expect("start chaos proxy");
        flags.cfg.server = proxy.addr();
        proxy
    });

    let report = match svc::loadgen::run(&flags.cfg, flags.window_us) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };

    // Out-of-process decision verification via the metrics endpoint.
    let mut divergence = 0u64;
    let mut ingested = 0u64;
    let mut ingest_latency = LatencyQuantiles::default();
    let mut dedup = (0u64, 0u64, 0u64);
    if let Some(metrics) = flags.metrics {
        if let Ok(text) = http_get(metrics, "/metrics") {
            let counter = |name: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
                    .unwrap_or(0)
            };
            dedup = (
                counter("dedup_new_total "),
                counter("dedup_duplicate_total "),
                counter("dedup_late_total "),
            );
        }
        match http_get(metrics, "/decisions").ok().and_then(|t| {
            let logs = parse_decisions(&t)?;
            Some((t, logs))
        }) {
            Some((text, logs)) => {
                ingested = logs.iter().map(|l| l.len() as u64).sum();
                divergence = svc::replay_divergence(&logs, flags.window_us);
                // Byte-level check: re-render the replayed stream and
                // compare against the scraped bytes.
                let replayed = svc::replay_decisions(&logs, flags.window_us);
                if svc::render_decisions(&replayed) != text.as_bytes() {
                    divergence = divergence.max(1);
                }
            }
            None => {
                eprintln!("loadgen: could not scrape/parse /decisions from {metrics}");
                std::process::exit(1);
            }
        }
        if let Ok(bench_json) = http_get(metrics, "/bench") {
            // Best-effort quantile pickup from the daemon's own view.
            if let Ok(v) = serde_json::from_str::<serde::Value>(&bench_json) {
                if let Some(obj) = v.as_object() {
                    if let Some(q) = serde::field(obj, "ingest_latency_us").as_object() {
                        let grab = |k: &str| match serde::field(q, k) {
                            serde::Value::U64(n) => *n,
                            _ => 0,
                        };
                        ingest_latency = LatencyQuantiles {
                            p50: grab("p50"),
                            p95: grab("p95"),
                            p99: grab("p99"),
                        };
                    }
                }
            }
        }
    }

    let bench = ServiceBench {
        mode: flags.mode.clone(),
        sustained_pps: ingested as f64 / report.elapsed.as_secs_f64().max(1e-9),
        sent_pkts: report.sent_pkts,
        ingested_pkts: ingested,
        sent_datagrams: report.sent_datagrams,
        acked_datagrams: report.acks,
        ingest_latency_us: ingest_latency,
        ack_rtt_us: LatencyQuantiles::of(&report.ack_rtt),
        plan_serve_latency_us: LatencyQuantiles::of(&report.plan_latency),
        plan_fetches: report.plan_fetches,
        plan_cached: report.plan_cached,
        dedup_new: dedup.0,
        dedup_duplicate: dedup.1,
        dedup_late: dedup.2,
        decision_divergence: divergence,
    };
    print!("{}", bench.to_json());

    if let Some(p) = proxy {
        eprintln!(
            "loadgen: chaos proxy saw {} uplinks, dropped {}",
            p.uplink_seen(),
            p.uplink_dropped()
        );
        p.shutdown();
    }
    if divergence > 0 {
        eprintln!("loadgen: DEDUP DIVERGENCE: {divergence} decisions differ from replay");
        std::process::exit(3);
    }
}
