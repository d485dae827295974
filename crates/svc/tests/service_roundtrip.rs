//! End-to-end service-plane round trip over real sockets: load
//! generator → `netserverd` UDP ingest, operator → `masterd` TCP plans,
//! downlink → a live `PacketForwarder`, metrics → HTTP scrape.

use gateway::forwarder::codec::{GatewayEui, TxPacket};
use gateway::forwarder::PacketForwarder;
use obs::{ObsEvent, ObsSink};
use parking_lot::Mutex;
use std::sync::Arc;
use svc::runtime::parse_decisions;
use svc::{
    http_get, render_decisions, replay_decisions, replay_divergence, LoadgenConfig, MasterConfig,
    MasterDaemon, NetServerConfig, NetServerDaemon,
};

/// An `ObsSink` whose event buffer stays readable from the test thread
/// while clones of it live inside both daemons.
#[derive(Clone, Default)]
struct CaptureSink {
    events: Arc<Mutex<Vec<ObsEvent>>>,
}

impl ObsSink for CaptureSink {
    fn record(&mut self, ev: &ObsEvent) {
        self.events.lock().push(*ev);
    }
}

fn small_load(server: std::net::SocketAddr, master: Option<std::net::SocketAddr>) -> LoadgenConfig {
    LoadgenConfig {
        server,
        master,
        devices: 16,
        gateways: 2,
        replicas: 2,
        batch: 16,
        epochs: 3,
        ..LoadgenConfig::default()
    }
}

#[test]
fn loadgen_to_netserverd_with_master_plans() {
    let capture = CaptureSink::default();
    let sink: svc::runtime::SharedObs = Arc::new(Mutex::new(capture.clone()));
    let daemon = NetServerDaemon::start(NetServerConfig::default(), Some(sink.clone())).unwrap();
    let master = MasterDaemon::start(MasterConfig::default(), Some(sink)).unwrap();

    let report = svc::loadgen::run(
        &small_load(daemon.addr(), Some(master.addr())),
        daemon.window_us(),
    )
    .unwrap();
    assert!(report.sent_pkts > 0, "{report:?}");
    assert!(report.sent_datagrams > 0);
    assert!(report.acks > 0, "PUSH_ACKs must flow back: {report:?}");
    assert!(report.plan_fetches > 0, "Master plans served under load");
    assert_eq!(report.plan_cached, 0, "healthy Master serves fresh plans");

    // The daemon ingested everything the generator sent (loopback,
    // no chaos, blocking backpressure — nothing may be lost).
    wait_for(|| daemon.counter("svc_pkts_total") == report.sent_pkts);
    assert_eq!(daemon.counter("svc_datagrams_total"), report.sent_datagrams);
    assert_eq!(daemon.counter("svc_malformed_total"), 0);

    // Dedup decisions: every packet decided, the stream byte-identical
    // to an in-process replay.
    let logs = daemon.decisions();
    assert_eq!(logs.concat().len() as u64, report.sent_pkts);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    let stats = daemon.dedup_stats();
    assert!(stats.new > 0);
    assert!(
        stats.duplicate > 0,
        "multi-gateway reception must produce duplicates: {stats:?}"
    );

    // Metrics endpoints speak Prometheus text over plain HTTP.
    let metrics = http_get(daemon.metrics_addr(), "/metrics").unwrap();
    for needle in [
        "# TYPE svc_datagrams_total counter",
        "svc_pkts_total",
        "ingest_latency_us_bucket",
        "dedup_new_total",
        "dedup_tracked_records",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    assert_eq!(http_get(daemon.metrics_addr(), "/healthz").unwrap(), "ok\n");
    let master_metrics = http_get(master.metrics_addr(), "/metrics").unwrap();
    for needle in [
        "master_conns_total",
        "master_req_request_channels_total",
        "plan_serve_latency_us_bucket",
    ] {
        assert!(
            master_metrics.contains(needle),
            "missing {needle} in:\n{master_metrics}"
        );
    }
    // Both daemons read the process's memory when they are scraped.
    if obs::proc_mem().is_some() {
        for scrape in [&metrics, &master_metrics] {
            assert!(
                scrape.lines().any(|l| l.starts_with("process_rss_bytes ")),
                "missing process_rss_bytes in:\n{scrape}"
            );
        }
    }

    // The /decisions scrape round-trips into the same byte stream.
    let scraped = http_get(daemon.metrics_addr(), "/decisions").unwrap();
    let parsed = parse_decisions(&scraped).expect("parseable decision stream");
    assert_eq!(render_decisions(&parsed), scraped.as_bytes());
    assert_eq!(
        render_decisions(&replay_decisions(&parsed, daemon.window_us())),
        scraped.as_bytes(),
        "scraped decisions byte-identical to in-process replay"
    );

    // Obs events flowed from both daemons (SvcIngest per datagram,
    // SvcAccept per Master connection).
    let (ingests, accepts) = {
        let evs = capture.events.lock();
        (
            evs.iter()
                .filter(|e| matches!(e, ObsEvent::SvcIngest { .. }))
                .count() as u64,
            evs.iter()
                .filter(|e| matches!(e, ObsEvent::SvcAccept { .. }))
                .count() as u64,
        )
    };
    assert_eq!(ingests, report.sent_datagrams);
    assert!(accepts > 0, "masterd accepts must surface as SvcAccept");

    master.shutdown();
    daemon.shutdown();
}

#[test]
fn forwarder_client_roundtrip_and_downlink() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    let mut fwd = PacketForwarder::new(daemon.addr(), GatewayEui(0xBEEF_0001)).unwrap();

    // Uplink with ACK through the real client.
    fwd.push(vec![]).unwrap();
    // Open the downlink route.
    fwd.pull().unwrap();
    wait_for(|| daemon.counter("svc_pull_data_total") >= 1);
    assert_eq!(daemon.counter("svc_gateways_seen"), 1);

    // Server-initiated downlink reaches the gateway.
    let txpk = TxPacket {
        tmst: 1_000_000,
        freq: 923.2,
        datr: "SF9BW125".into(),
        powe: 14,
        size: 3,
        data: "AQID".into(),
    };
    assert!(daemon.send_downlink(0xBEEF_0001, 7, txpk.clone()).unwrap());
    let got = fwd.recv_downlink().expect("downlink delivered");
    assert_eq!(got.data, txpk.data);
    // Unknown gateway has no route.
    assert!(!daemon.send_downlink(0xDEAD, 8, txpk).unwrap());

    daemon.shutdown();
}

#[test]
fn malformed_datagrams_are_counted_not_fatal() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    let sock = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    sock.send_to(b"garbage", daemon.addr()).unwrap();
    sock.send_to(&[2, 0, 0, 0x00, 1, 2, 3], daemon.addr())
        .unwrap(); // truncated PUSH_DATA
    wait_for(|| daemon.counter("svc_malformed_total") >= 2);
    // The daemon still serves after garbage.
    assert_eq!(http_get(daemon.metrics_addr(), "/healthz").unwrap(), "ok\n");
    daemon.shutdown();
}

/// A client that asks for a large `/decisions` and never reads is cut
/// off by the endpoint's response deadline: meanwhile `/healthz` still
/// answers, and a reader that keeps up still gets the whole log.
#[test]
fn a_client_that_never_reads_cannot_hold_the_endpoint() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    // Loopback takes about 3 MB into the socket buffers before a write
    // blocks on a client that does not read: log well past that.
    const MIN_BODY: usize = 8 << 20;
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
    load.epochs = (320_000u64.div_ceil(per_epoch) as usize).min(fleet.max_epochs());
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).unwrap();
    load.server = daemon.addr();
    let report = svc::loadgen::run_stream(&load, fleet).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.counter("svc_pkts_total") != report.sent_pkts {
        assert!(Instant::now() < deadline, "ingest never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    let body = render_decisions(&daemon.decisions().concat()).len();
    assert!(body > MIN_BODY, "only {body} bytes of decisions");

    let metrics = daemon.metrics_addr();
    let mut idle = std::net::TcpStream::connect(metrics).unwrap();
    idle.write_all(b"GET /decisions HTTP/1.0\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let asked = Instant::now();
    assert_eq!(http_get(metrics, "/healthz").unwrap(), "ok\n");
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "/healthz waited {waited:?}"
    );

    // The endpoint gave up on the idle client part way through.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut got = Vec::new();
    let _ = idle.read_to_end(&mut got);
    assert!(
        got.len() < body,
        "the idle client got all {} bytes",
        got.len()
    );

    assert_eq!(http_get(metrics, "/decisions").unwrap().len(), body);
    daemon.shutdown();
}

fn wait_for(mut cond: impl FnMut() -> bool) {
    for _ in 0..400 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("condition never held");
}
