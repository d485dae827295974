//! Loopback soak: drive `netserverd` unpaced from the load generator
//! and hold the service-plane contract under volume — every packet
//! ingested, the dedup decision stream byte-identical to an in-process
//! replay, daemon memory bounded.
//!
//! Debug builds run a small fleet and check the invariants only; the
//! throughput floor is asserted in release builds, where the soak sends
//! on the order of a million packets and requires a sustained daemon
//! ingest rate of [`SOAK_MIN_PPS`].

use svc::{
    render_decisions, replay_decisions, replay_divergence, LoadgenConfig, NetServerConfig,
    NetServerDaemon,
};

#[cfg(debug_assertions)]
const TARGET_PKTS: u64 = 20_000;
#[cfg(not(debug_assertions))]
const TARGET_PKTS: u64 = 1_500_000;

/// The release floor, pkts/sec: deliberately lenient for shared CI
/// runners (a 2-core 2.1 GHz Xeon sustains four times as much).
#[cfg(not(debug_assertions))]
const SOAK_MIN_PPS: f64 = 500_000.0;

#[test]
fn loopback_soak_holds_rate_and_equivalence() {
    let mut load = LoadgenConfig {
        devices: 64,
        gateways: 4,
        replicas: 8,
        batch: 64,
        ..LoadgenConfig::default()
    };
    let window_us = NetServerConfig::default().dedup_window_us;
    let fleet = svc::loadgen::build_fleet(&load, window_us).unwrap();
    let per_epoch = fleet.pkts_per_epoch();
    assert!(per_epoch > 0);
    load.epochs = (TARGET_PKTS.div_ceil(per_epoch) as usize).min(fleet.max_epochs());
    // Room in the one decision log for every packet sent.
    let cfg = NetServerConfig {
        decision_log_cap: (per_epoch * load.epochs as u64) as usize,
        ..NetServerConfig::default()
    };
    let daemon = NetServerDaemon::start(cfg, None).unwrap();
    load.server = daemon.addr();
    let report = svc::loadgen::run_stream(&load, fleet).unwrap();
    assert!(
        report.sent_pkts >= TARGET_PKTS.min(per_epoch * report.epochs_run as u64),
        "{report:?}"
    );

    // The generator sends inside a window of unacknowledged datagrams,
    // so on loopback nothing may be lost. The last drain can still be
    // on its way into the registry when the generator returns, so poll
    // the ingest counter.
    let mut ingested = daemon.counter("svc_pkts_total");
    for _ in 0..2_000 {
        if ingested == report.sent_pkts {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        ingested = daemon.counter("svc_pkts_total");
    }
    assert_eq!(ingested, report.sent_pkts, "daemon dropped packets");
    assert_eq!(
        daemon.decisions_dropped(),
        0,
        "decision log capacity undersized for the soak"
    );

    // Bounded memory: the dedup map tracks at most one window's worth
    // of live frames, far below the total offered.
    let tracked = daemon.tracked();
    assert!(
        tracked <= load.devices as u64 * load.replicas as u64 * 4,
        "dedup map grew unboundedly: {tracked} records"
    );

    // The decisions replay byte-identically in-process.
    let logs = daemon.decisions();
    assert_eq!(logs.len(), 1, "one decision log");
    assert_eq!(logs[0].len() as u64, report.sent_pkts);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    assert_eq!(
        render_decisions(&replay_decisions(&logs[0], daemon.window_us())),
        render_decisions(&logs[0]),
        "replayed decision stream must be byte-identical"
    );

    let elapsed = report.elapsed.as_secs_f64().max(1e-9);
    let pps = ingested as f64 / elapsed;
    let stats = daemon.dedup_stats();
    eprintln!(
        "soak: {ingested} pkts in {elapsed:.3}s = {pps:.0} pkts/sec \
         (new {}, dup {}, late {}, tracked {tracked})",
        stats.new, stats.duplicate, stats.late
    );

    // The throughput floor only means something with optimizations on.
    #[cfg(not(debug_assertions))]
    assert!(
        pps >= SOAK_MIN_PPS,
        "sustained ingest {pps:.0} pkts/sec below the {SOAK_MIN_PPS:.0} floor"
    );

    daemon.shutdown();
}
