//! `masterd` — run the Master channel-plan daemon until killed.
//!
//! ```text
//! masterd [--bind ADDR] [--metrics ADDR] [--band-low-hz N]
//!         [--spectrum-hz N] [--networks N] [--lease-ttl-ms N]
//! ```
//!
//! Prints `plan=<addr> metrics=<addr>` once both sockets are bound.

use std::net::SocketAddr;
use svc::{MasterConfig, MasterDaemon};

fn parse_flags(cfg: &mut MasterConfig) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--bind" => cfg.bind = parse(&value("--bind")?)?,
            "--metrics" => cfg.metrics_bind = parse(&value("--metrics")?)?,
            "--band-low-hz" => cfg.region.band_low_hz = parse(&value("--band-low-hz")?)?,
            "--spectrum-hz" => cfg.region.spectrum_hz = parse(&value("--spectrum-hz")?)?,
            "--networks" => cfg.region.expected_networks = parse(&value("--networks")?)?,
            "--lease-ttl-ms" => cfg.lease_ttl_ms = parse(&value("--lease-ttl-ms")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?}"))
}

fn main() {
    let mut cfg = MasterConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], 1701)),
        metrics_bind: SocketAddr::from(([127, 0, 0, 1], 9102)),
        ..MasterConfig::default()
    };
    if let Err(e) = parse_flags(&mut cfg) {
        eprintln!("masterd: {e}");
        std::process::exit(2);
    }
    let daemon = match MasterDaemon::start(cfg, None) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("masterd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("plan={} metrics={}", daemon.addr(), daemon.metrics_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
