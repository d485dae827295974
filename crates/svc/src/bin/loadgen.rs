//! `loadgen` — replay a simulated gateway fleet against a live
//! `netserverd` and (optionally) verify the daemon's dedup decisions.
//!
//! ```text
//! loadgen --server ADDR [--master ADDR] [--metrics ADDR]
//!         [--devices N] [--gateways N] [--replicas N] [--epochs N]
//!         [--batch N] [--seed N] [--window-us N] [--chaos-loss P]
//! ```
//!
//! With `--metrics`, the daemon's dedup counters and its `/decisions`
//! stream are scraped after the run and the stream is replayed
//! in-process; any divergence exits 3. With `--chaos-loss`, an
//! in-process [`chaos::ChaosUdpProxy`] with that datagram-loss
//! probability is spliced in front of the server.
//!
//! Prints one line of `key=value` fields, as the daemons announce their
//! ports: `sent_pkts`, `sent_datagrams`, `acks`, `plan_fetches` and
//! `plan_cached`, then with `--metrics` `ingested_pkts` (decisions
//! logged), `dedup_new`, `dedup_duplicate`, `dedup_late` and
//! `divergence`.

use chaos::{ChaosUdpProxy, FaultPlan, FaultSchedule, FaultSpec};
use std::net::SocketAddr;
use svc::runtime::parse_decisions;
use svc::{http_get, LoadgenConfig};

struct Flags {
    cfg: LoadgenConfig,
    metrics: Option<SocketAddr>,
    window_us: u64,
    chaos_loss: Option<f64>,
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        cfg: LoadgenConfig::default(),
        metrics: None,
        window_us: 2_000_000,
        chaos_loss: None,
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
            "--seed" => flags.cfg.seed = parse(&value("--seed")?)?,
            "--window-us" => flags.window_us = parse(&value("--window-us")?)?,
            "--chaos-loss" => flags.chaos_loss = Some(probability(&value("--chaos-loss")?)?),
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

/// A proxy in front of `server` that loses uplinks with `probability`.
fn chaos_proxy(server: SocketAddr, seed: u64, probability: f64) -> Result<ChaosUdpProxy, String> {
    let plan = FaultPlan {
        seed,
        faults: vec![FaultSpec::BackhaulLoss {
            probability,
            start_us: 0,
            end_us: u64::MAX,
        }],
    };
    let schedule = FaultSchedule::compile(&plan).map_err(|e| format!("loss plan: {e}"))?;
    ChaosUdpProxy::start(server, schedule).map_err(|e| format!("chaos proxy: {e}"))
}

/// The `key=value` fields of what the daemon behind `metrics` decided:
/// its dedup counters, and how many logged decisions an in-process
/// replay of its `/decisions` stream decides otherwise.
fn verify(metrics: SocketAddr, window_us: u64) -> Result<(String, u64), String> {
    let text = http_get(metrics, "/metrics").map_err(|e| format!("{metrics}/metrics: {e}"))?;
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let stream =
        http_get(metrics, "/decisions").map_err(|e| format!("{metrics}/decisions: {e}"))?;
    let log = parse_decisions(&stream).ok_or(format!("{metrics}/decisions: malformed"))?;
    let replayed = svc::replay_decisions(&log, window_us);
    let mut divergence = log.iter().zip(&replayed).filter(|(a, b)| a != b).count() as u64;
    // Byte-level check: the replay, rendered, is the stream scraped.
    if svc::render_decisions(&replayed) != stream.as_bytes() {
        divergence = divergence.max(1);
    }
    let fields = format!(
        "ingested_pkts={} dedup_new={} dedup_duplicate={} dedup_late={} divergence={divergence}",
        log.len(),
        counter("dedup_new_total"),
        counter("dedup_duplicate_total"),
        counter("dedup_late_total"),
    );
    Ok((fields, divergence))
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
    let proxy = flags
        .chaos_loss
        .map(|p| chaos_proxy(flags.cfg.server, flags.cfg.seed, p))
        .transpose();
    let proxy = match proxy {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    if let Some(p) = &proxy {
        flags.cfg.server = p.addr();
    }

    let report = match svc::loadgen::run(&flags.cfg, flags.window_us) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    let mut line = format!(
        "sent_pkts={} sent_datagrams={} acks={} plan_fetches={} plan_cached={}",
        report.sent_pkts,
        report.sent_datagrams,
        report.acks,
        report.plan_fetches,
        report.plan_cached
    );
    let mut divergence = 0;
    if let Some(metrics) = flags.metrics {
        match verify(metrics, flags.window_us) {
            Ok((fields, diverged)) => {
                line = format!("{line} {fields}");
                divergence = diverged;
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{line}");

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
