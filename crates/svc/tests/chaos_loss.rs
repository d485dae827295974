//! Backhaul faults between the gateway fleet and `netserverd`: splice
//! a [`chaos::ChaosUdpProxy`] in front of the daemon. A clean proxy is
//! transparent both ways; loss and duplication reach the daemon as
//! missing and repeated datagrams, and the service plane degrades by
//! *losing* packets — never by corrupting the dedup decision stream.

use chaos::{ChaosUdpProxy, FaultPlan, FaultSchedule, FaultSpec};
use gateway::forwarder::client::PacketForwarder;
use gateway::forwarder::codec::{GatewayEui, RxPacket, TxPacket};
use lora_mac::device::{DevAddr, SessionKeys};
use lora_mac::frame::PhyPayload;
use lora_phy::channel::Channel;
use lora_phy::types::SpreadingFactor;
use netserver::dedup::DedupOutcome;
use obs::{DedupKind, ObsEvent, VecSink};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use svc::{
    render_decisions, replay_decisions, replay_divergence, Decision, LoadgenConfig,
    NetServerConfig, NetServerDaemon,
};

const DEV: DevAddr = DevAddr(0x0200_0007);

/// One keyed uplink (DevAddr [`DEV`], FCnt 3) received at `tmst`.
fn rxpk(tmst: u64) -> RxPacket {
    let keys = SessionKeys::derive(&[9; 16], DEV);
    let wire = PhyPayload::uplink(DEV, 3, 1, b"t").encode(&keys).unwrap();
    RxPacket::new(
        tmst,
        Channel::khz125(916_900_000),
        SpreadingFactor::SF8,
        -100.0,
        5.0,
        &wire,
    )
}

fn proxy_for(daemon: &NetServerDaemon, faults: Vec<FaultSpec>) -> ChaosUdpProxy {
    let schedule = FaultSchedule::compile(&FaultPlan { seed: 5, faults }).unwrap();
    ChaosUdpProxy::start(daemon.addr(), schedule).unwrap()
}

/// The daemon's decisions once it has counted `datagrams` datagrams;
/// it publishes its counters only after deciding their drain.
fn decisions_after(daemon: &NetServerDaemon, datagrams: u64) -> Vec<Decision> {
    for _ in 0..400 {
        if daemon.counter("svc_datagrams_total") >= datagrams {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.counter("svc_datagrams_total"), datagrams);
    daemon.decisions().concat()
}

#[test]
fn clean_proxy_is_transparent() {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let daemon = NetServerDaemon::start(NetServerConfig::default(), Some(sink.clone())).unwrap();
    let proxy = proxy_for(&daemon, vec![]);
    let mut fwd = PacketForwarder::new(proxy.addr(), GatewayEui(0x11)).unwrap();
    fwd.push(vec![rxpk(42).with_trace(0xFACE)]).unwrap();
    let decided = decisions_after(&daemon, 1);
    // The only gateway the daemon has heard is the forwarder (id 0).
    assert_eq!(
        decided,
        [Decision {
            dev: DEV.0,
            fcnt: 3,
            gw: 0,
            t_us: 42,
            outcome: DedupOutcome::New,
        }]
    );
    // The rxpk's trace id reaches the dedup event.
    let traced: Vec<_> = (sink.lock().events().iter())
        .filter_map(|ev| match ev {
            ObsEvent::Dedup { trace, outcome, .. } => Some((*trace, *outcome)),
            _ => None,
        })
        .collect();
    assert_eq!(traced, [(0xFACE, DedupKind::New)]);

    // Downlink passthrough: PULL_DATA, then a PULL_RESP through the proxy.
    fwd.pull().unwrap();
    let txpk = TxPacket {
        tmst: 9,
        freq: 916.9,
        datr: "SF9BW125".into(),
        powe: 14,
        size: 1,
        data: gateway::forwarder::b64::encode(&[0x60]),
    };
    assert!(daemon.send_downlink(0x11, 7, txpk.clone()).unwrap());
    assert_eq!(fwd.recv_downlink().unwrap(), txpk);
    assert!(proxy.uplink_seen() >= 2); // PUSH + PULL
    assert_eq!(proxy.uplink_dropped(), 0);
    assert_eq!(proxy.downlink_seen(), 3); // PUSH_ACK, PULL_ACK, PULL_RESP
    proxy.shutdown();
    daemon.shutdown();
}

#[test]
fn total_loss_blackholes_uplinks() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    let proxy = proxy_for(
        &daemon,
        vec![FaultSpec::BackhaulLoss {
            probability: 1.0,
            start_us: 0,
            end_us: u64::MAX,
        }],
    );
    let mut fwd = PacketForwarder::new(proxy.addr(), GatewayEui(0x22)).unwrap();
    fwd.set_ack_timeout(Duration::from_millis(200)).unwrap();
    // The PUSH_ACK can never come.
    assert!(fwd.push(vec![rxpk(1)]).is_err());
    assert!(decisions_after(&daemon, 0).is_empty());
    assert!(proxy.uplink_dropped() >= 1);
    proxy.shutdown();
    daemon.shutdown();
}

#[test]
fn duplication_reaches_the_daemon_twice() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    let proxy = proxy_for(
        &daemon,
        vec![FaultSpec::BackhaulDuplicate {
            probability: 1.0,
            lag_us: 1_000,
            start_us: 0,
            end_us: u64::MAX,
        }],
    );
    let mut fwd = PacketForwarder::new(proxy.addr(), GatewayEui(0x33)).unwrap();
    fwd.push(vec![rxpk(7)]).unwrap();
    let decided = decisions_after(&daemon, 2);
    let judged: Vec<_> = decided
        .iter()
        .map(|d| (d.dev, d.fcnt, d.gw, d.t_us, d.outcome))
        .collect();
    assert_eq!(
        judged,
        [
            (DEV.0, 3, 0, 7, DedupOutcome::New),
            (DEV.0, 3, 0, 7, DedupOutcome::Duplicate),
        ],
        "the second copy is the duplicate"
    );
    assert!(proxy.uplink_duplicated() >= 1);
    proxy.shutdown();
    daemon.shutdown();
}

#[test]
fn lossy_backhaul_degrades_without_divergence() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    let plan = FaultPlan {
        seed: 11,
        faults: vec![FaultSpec::BackhaulLoss {
            probability: 0.25,
            start_us: 0,
            end_us: u64::MAX,
        }],
    };
    let proxy =
        ChaosUdpProxy::start(daemon.addr(), FaultSchedule::compile(&plan).unwrap()).unwrap();

    let load = LoadgenConfig {
        server: proxy.addr(),
        devices: 32,
        gateways: 3,
        replicas: 2,
        batch: 16,
        epochs: 3,
        ..LoadgenConfig::default()
    };
    let report = svc::loadgen::run(&load, daemon.window_us()).unwrap();
    assert!(report.sent_datagrams > 50, "{report:?}");

    // The proxy really dropped traffic, and the daemon saw the rest.
    assert!(
        proxy.uplink_dropped() > 0,
        "0.25 loss over {} datagrams must drop some",
        proxy.uplink_seen()
    );
    assert_eq!(
        proxy.uplink_seen(),
        report.sent_datagrams,
        "every sent datagram passed through the proxy"
    );
    // Ingest settles once the last drain is counted.
    let mut ingested_dg = daemon.counter("svc_datagrams_total");
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = daemon.counter("svc_datagrams_total");
        if now == ingested_dg {
            break;
        }
        ingested_dg = now;
    }
    let delivered = proxy.uplink_seen() - proxy.uplink_dropped();
    assert_eq!(
        ingested_dg, delivered,
        "daemon must ingest exactly what survived the proxy"
    );
    assert!(ingested_dg < report.sent_datagrams);
    // Fewer acks than datagrams: dropped uplinks are never acked.
    assert!(report.acks <= delivered);

    // Whatever subset arrived, the decision stream still replays
    // byte-identically — loss thins the stream, never corrupts it.
    let logs = daemon.decisions();
    assert!(!logs[0].is_empty());
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    assert_eq!(
        render_decisions(&replay_decisions(&logs[0], daemon.window_us())),
        render_decisions(&logs[0])
    );

    proxy.shutdown();
    daemon.shutdown();
}
