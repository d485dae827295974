//! `netserverd` — run the UDP ingest daemon until killed.
//!
//! ```text
//! netserverd [--bind ADDR] [--metrics ADDR] [--window-us N] [--log-cap N]
//! ```
//!
//! One thread receives, acknowledges and deduplicates against one
//! dedup window, and logs its decisions in one log of at most
//! `--log-cap` entries.
//!
//! Prints `ingest=<addr> metrics=<addr>` once both sockets are bound,
//! so launch scripts can scrape the ephemeral ports.

use std::net::SocketAddr;
use svc::{NetServerConfig, NetServerDaemon};

fn parse_flags(cfg: &mut NetServerConfig) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--bind" => cfg.bind = parse(&value("--bind")?)?,
            "--metrics" => cfg.metrics_bind = parse(&value("--metrics")?)?,
            "--window-us" => cfg.dedup_window_us = parse(&value("--window-us")?)?,
            "--log-cap" => cfg.decision_log_cap = parse(&value("--log-cap")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?}"))
}

fn main() {
    let mut cfg = NetServerConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], 1700)),
        metrics_bind: SocketAddr::from(([127, 0, 0, 1], 9101)),
        ..NetServerConfig::default()
    };
    if let Err(e) = parse_flags(&mut cfg) {
        eprintln!("netserverd: {e}");
        std::process::exit(2);
    }
    let daemon = match NetServerDaemon::start(cfg, None) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("netserverd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("ingest={} metrics={}", daemon.addr(), daemon.metrics_addr());
    // Line-buffered stdout may hold the announcement back from a
    // supervising pipe; force it out before parking.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
