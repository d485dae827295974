//! `netserverd`: the network-server ingest daemon.
//!
//! Speaks the Semtech UDP forwarder protocol on a real socket:
//! `PUSH_DATA` is acknowledged, fast-parsed
//! ([`gateway::forwarder::fast`]) and deduplicated; `PULL_DATA` is
//! acknowledged and records the gateway's downlink route so
//! [`NetServerDaemon::send_downlink`] can push a `PULL_RESP` back;
//! `TX_ACK` is counted. One thread does all of it: the thread that
//! received a packet is the thread that decides it.
//!
//! That thread works a **drain** at a time: it blocks for one datagram
//! and takes whatever else the socket already holds in the same call
//! (`crate::mmsg`, up to 16), parses and counts each as it would alone,
//! sends the drain's ACKs with one call, and only then offers the
//! drain's packets to the dedup shards it owns
//! (`crate::runtime::Decider`) and takes the registry lock *once*.
//! The per-datagram costs (two system calls, the lock) are shared by
//! the drain, so a drain of n datagrams costs less than n drains of
//! one; and since a drain is whatever queued up while the last one was
//! worked, an idle daemon drains one datagram at a time (nothing waits
//! to fill a batch) and a loaded one batches by itself.
//! `svc_drain_datagrams` is the histogram of n. While the thread
//! decides it does not read: the kernel's socket buffer is the one
//! queue, and it sheds when it is full.

use crate::endpoint::{HttpEndpoint, HttpHandler};
use crate::mmsg::{Ring, RING};
use crate::report::LatencyQuantiles;
use crate::runtime::{
    render_decisions, Decided, Decider, Decision, DecisionLogs, PacketIn, SharedObs,
};
use crate::telemetry::{self, FlightTee, Sampler, SharedFlight};
use gateway::forwarder::codec::{Datagram, TxPacket};
use gateway::forwarder::fast::{parse_push_data, FastRx};
use netserver::dedup::DedupStats;
use obs::{FlightRecorder, ObsEvent, ObsSink, Registry, SloRule, SvcConn};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything configurable about the daemon. `Default` binds ephemeral
/// loopback ports, sized for tests; the `netserverd` binary overrides
/// from flags.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// UDP ingest socket.
    pub bind: SocketAddr,
    /// TCP metrics endpoint.
    pub metrics_bind: SocketAddr,
    /// Dedup shards, each with its own window and decision log.
    pub shards: usize,
    /// Dedup window, µs.
    pub dedup_window_us: u64,
    /// Per-shard decision-log cap (the prefix stays replay-exact).
    pub decision_log_cap: usize,
    /// Sampler tick for the embedded time-series store backing
    /// `/series` (milliseconds; one frame per tick).
    pub series_interval_ms: u64,
    /// When set, a flight recorder rings the last `flight_capacity`
    /// events and SLO breaches snapshot it into this directory.
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
    /// SLO burn-rate rules evaluated each sampler tick; `None` uses
    /// [`telemetry::netserver_slo_rules`].
    pub slo_rules: Option<Vec<SloRule>>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            bind: (Ipv4Addr::LOCALHOST, 0).into(),
            metrics_bind: (Ipv4Addr::LOCALHOST, 0).into(),
            shards: 2,
            dedup_window_us: 2_000_000,
            decision_log_cap: 4_000_000,
            series_interval_ms: 1_000,
            flight_dir: None,
            flight_capacity: 4_096,
            slo_rules: None,
        }
    }
}

/// Distinct gateways served. The dense id is a `u16`, and both
/// per-gateway tables are keyed by an EUI any sender can make up: past
/// this many, a new EUI is refused instead of aliasing an old id or
/// growing the tables without bound.
const MAX_GATEWAYS: usize = u16::MAX as usize;

/// Bucket bounds of `svc_drain_datagrams`, the datagrams one receive
/// call returned: up to the ring's length.
const DRAIN_BOUNDS: [u64; 5] = [1, 2, 4, 8, RING as u64];

struct ReceiverShared {
    registry: Arc<Mutex<Registry>>,
    /// Gateway EUI → last PULL_DATA origin (the downlink route), read
    /// by [`NetServerDaemon::send_downlink`] from its caller's thread.
    pull_routes: Mutex<HashMap<u64, SocketAddr>>,
    sink: Option<SharedObs>,
    started: Instant,
}

impl ReceiverShared {
    /// The dense id of gateway `eui` in `ids`, the ingest thread's own
    /// table, handed out on first sight; `None` once [`MAX_GATEWAYS`]
    /// others hold one.
    fn gw_id(&self, ids: &mut HashMap<u64, u16>, eui: u64) -> Option<u16> {
        if let Some(&id) = ids.get(&eui) {
            return Some(id);
        }
        if ids.len() >= MAX_GATEWAYS {
            self.reject_gateway();
            return None;
        }
        let id = ids.len() as u16;
        ids.insert(eui, id);
        Some(id)
    }

    /// Point gateway `eui`'s downlink route at `peer`: `Some(true)` for
    /// a gateway's first route, `None` when [`MAX_GATEWAYS`] others
    /// hold one.
    fn set_pull_route(&self, eui: u64, peer: SocketAddr) -> Option<bool> {
        let mut routes = self.pull_routes.lock();
        if let Some(route) = routes.get_mut(&eui) {
            *route = peer;
            return Some(false);
        }
        if routes.len() >= MAX_GATEWAYS {
            drop(routes);
            self.reject_gateway();
            return None;
        }
        routes.insert(eui, peer);
        Some(true)
    }

    fn reject_gateway(&self) {
        self.registry.lock().inc("svc_gateways_rejected_total", 1);
    }

    /// Record `ev()` if a sink is attached and enabled; the event is
    /// not built (and the clock not read) otherwise.
    fn emit(&self, ev: impl FnOnce() -> ObsEvent) {
        if let Some(s) = &self.sink {
            let mut s = s.lock();
            if s.enabled() {
                s.record(&ev());
            }
        }
    }

    fn wall_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// A running ingest daemon.
pub struct NetServerDaemon {
    addr: SocketAddr,
    endpoint: HttpEndpoint,
    logs: Arc<DecisionLogs>,
    registry: Arc<Mutex<Registry>>,
    shared: Arc<ReceiverShared>,
    socket: UdpSocket,
    window_us: u64,
    shutdown: Arc<AtomicBool>,
    ingest: JoinHandle<()>,
    sampler: Sampler,
    flight: Option<SharedFlight>,
}

impl NetServerDaemon {
    /// Bind the sockets and start the ingest thread.
    pub fn start(cfg: NetServerConfig, sink: Option<SharedObs>) -> io::Result<NetServerDaemon> {
        let socket = UdpSocket::bind(cfg.bind)?;
        let addr = socket.local_addr()?;
        let registry = Arc::new(Mutex::new(Registry::new()));
        // With a flight dir configured, every daemon event is teed into
        // the recorder ring so an SLO breach can dump the last moments.
        let flight: Option<SharedFlight> = match &cfg.flight_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let mut fr = FlightRecorder::new(dir, cfg.flight_capacity).with_prefix("netserver");
                if let Some(s) = &sink {
                    // A snapshot marks an incident: force the caller's
                    // main event stream to disk alongside it.
                    let s = Arc::clone(s);
                    fr = fr.with_snapshot_hook(Box::new(move |_| s.lock().flush()));
                }
                Some(Arc::new(Mutex::new(fr)))
            }
            None => None,
        };
        let sink: Option<SharedObs> = match &flight {
            Some(fr) => Some(Arc::new(Mutex::new(FlightTee::new(sink, Arc::clone(fr))))),
            None => sink,
        };
        let sampler = Sampler::start(
            Arc::clone(&registry),
            cfg.series_interval_ms,
            cfg.slo_rules
                .clone()
                .unwrap_or_else(telemetry::netserver_slo_rules),
            flight.clone(),
        );
        let decider = Decider::new(
            cfg.shards,
            cfg.dedup_window_us,
            cfg.decision_log_cap,
            sink.clone(),
        );
        let logs = decider.logs();
        let shared = Arc::new(ReceiverShared {
            registry: Arc::clone(&registry),
            pull_routes: Mutex::new(HashMap::new()),
            sink,
            started: Instant::now(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let rx_socket = socket.try_clone()?;
        rx_socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let rx_shared = Arc::clone(&shared);
        let rx_shutdown = Arc::clone(&shutdown);
        let ingest = std::thread::Builder::new()
            .name("svc-ingest".into())
            .spawn(move || receiver_loop(rx_socket, decider, rx_shared, rx_shutdown))?;
        let endpoint = HttpEndpoint::start(
            cfg.metrics_bind,
            Self::http_handler(Arc::clone(&registry), Arc::clone(&logs), sampler.tsdb()),
        )?;
        Ok(NetServerDaemon {
            addr,
            endpoint,
            logs,
            registry,
            shared,
            socket,
            window_us: cfg.dedup_window_us,
            shutdown,
            ingest,
            sampler,
            flight,
        })
    }

    fn http_handler(
        registry: Arc<Mutex<Registry>>,
        logs: Arc<DecisionLogs>,
        tsdb: Arc<Mutex<obs::Tsdb>>,
    ) -> HttpHandler {
        Arc::new(move |path| match path {
            "/metrics" => {
                let mut text = registry.lock().render_prometheus();
                let resident = logs.tracked();
                text.push_str(&format!(
                    "# TYPE dedup_tracked_records gauge\ndedup_tracked_records {resident}\n"
                ));
                Some(("text/plain; version=0.0.4", text.into_bytes()))
            }
            "/healthz" => Some(("text/plain", b"ok\n".to_vec())),
            "/bench" => {
                let reg = registry.lock();
                let q = reg
                    .histogram("ingest_latency_us")
                    .map(LatencyQuantiles::of)
                    .unwrap_or_default();
                let body = format!(
                    "{{\"ingest_latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}, \"pkts\": {}}}\n",
                    q.p50,
                    q.p95,
                    q.p99,
                    reg.counter("svc_pkts_total")
                );
                Some(("application/json", body.into_bytes()))
            }
            "/decisions" => Some(("text/plain", render_decisions(&logs.decisions()))),
            "/series" => Some(("application/json", telemetry::series_body_of(&tsdb))),
            "/spans" => Some(("application/json", telemetry::spans_body())),
            _ => None,
        })
    }

    /// The UDP ingest address gateways should send to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics endpoint address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// Snapshot of every shard's decision log.
    pub fn decisions(&self) -> Vec<Vec<Decision>> {
        self.logs.decisions()
    }

    /// Dedup counters summed across shards, as of the last drain the
    /// registry was told of.
    pub fn dedup_stats(&self) -> DedupStats {
        let r = self.registry.lock();
        let new = r.counter("dedup_new_total");
        let duplicate = r.counter("dedup_duplicate_total");
        let late = r.counter("dedup_late_total");
        DedupStats {
            offered: new + duplicate + late,
            new,
            duplicate,
            late,
        }
    }

    /// (DevAddr, FCnt) records currently resident across shards.
    pub fn tracked(&self) -> u64 {
        self.logs.tracked()
    }

    /// Decisions lost to the log cap.
    pub fn decisions_dropped(&self) -> u64 {
        self.logs.dropped()
    }

    /// The dedup window the shards run.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Read one counter from the daemon registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.lock().counter(name)
    }

    /// Snapshot of the embedded time-series store (what `/series`
    /// serves).
    pub fn series(&self) -> obs::SeriesDoc {
        self.sampler.series_doc()
    }

    /// SLO breaches fired since start (post-suppression).
    pub fn slo_breaches(&self) -> u64 {
        self.sampler.breaches()
    }

    /// Flight snapshots written so far (empty without a `flight_dir`).
    pub fn flight_snapshots(&self) -> Vec<PathBuf> {
        self.flight
            .as_ref()
            .map(|fr| fr.lock().snapshots().to_vec())
            .unwrap_or_default()
    }

    /// Clone of the ingest-latency histogram (empty if nothing was
    /// ingested yet).
    pub fn ingest_latency(&self) -> obs::Histogram {
        self.registry
            .lock()
            .histogram("ingest_latency_us")
            .cloned()
            .unwrap_or_else(|| obs::Histogram::new(&crate::runtime::INGEST_LATENCY_BOUNDS_US))
    }

    /// Push a `PULL_RESP` downlink to a gateway that has sent
    /// `PULL_DATA`. Returns `false` when the gateway never opened a
    /// downlink route.
    pub fn send_downlink(&self, eui: u64, token: u16, txpk: TxPacket) -> io::Result<bool> {
        let route = self.shared.pull_routes.lock().get(&eui).copied();
        match route {
            Some(peer) => {
                let wire = Datagram::PullResp { token, txpk }.encode();
                self.socket.send_to(&wire, peer)?;
                self.registry.lock().inc("svc_pull_resp_total", 1);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Stop the ingest thread, which finishes the drain it is working,
    /// and join everything.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.ingest.join();
        self.sampler.shutdown();
        if let Some(fr) = &self.flight {
            fr.lock().flush();
        }
    }
}

/// Datagrams of one drain by kind, and the packets they carried: what
/// the registry is told under one lock when the drain is done.
#[derive(Default)]
struct DrainCounts {
    /// PUSH_DATA (parsed or not) and datagrams of no known kind.
    datagrams: u64,
    malformed: u64,
    push_acks: u64,
    pkts: u64,
    unkeyed: u64,
    pull_data: u64,
    gateways_seen: u64,
    tx_acks: u64,
}

impl DrainCounts {
    /// A PUSH_DATA that does not parse, or a datagram of no known kind.
    /// It counts as a datagram too: `svc_datagrams_total` is the
    /// denominator of the `malformed-burn` SLO, which has to see a flood
    /// of nothing but these.
    fn malformed(&mut self) {
        self.datagrams += 1;
        self.malformed += 1;
    }

    /// Add a drain of `drained` datagrams, and what was decided of its
    /// packets, to the registry: the one time a drain takes its lock.
    fn publish(&self, drained: usize, decided: Option<Decided>, registry: &Mutex<Registry>) {
        let mut reg = registry.lock();
        for (name, by) in [
            ("svc_datagrams_total", self.datagrams),
            ("svc_malformed_total", self.malformed),
            ("svc_push_ack_total", self.push_acks),
            ("svc_pkts_total", self.pkts),
            ("svc_pkts_unkeyed_total", self.unkeyed),
            ("svc_pull_data_total", self.pull_data),
            ("svc_gateways_seen", self.gateways_seen),
            ("svc_tx_ack_total", self.tx_acks),
        ] {
            if by > 0 {
                reg.inc(name, by);
            }
        }
        reg.observe("svc_drain_datagrams", &DRAIN_BOUNDS, drained as u64);
        if let Some(decided) = decided {
            decided.publish(&mut reg);
        }
    }
}

/// What a failed receive means. The read timeout is the shutdown poll;
/// any other error (`EINTR`, `ENOBUFS`, ...) is counted in
/// `svc_recv_errors_total` and waited out, so that one that persists
/// does not spin. None ends the loop: a daemon that went deaf would
/// give no other sign.
fn pause_after_recv_error(e: &io::Error, registry: &Mutex<Registry>) -> Option<Duration> {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        return None;
    }
    registry.lock().inc("svc_recv_errors_total", 1);
    Some(Duration::from_millis(1))
}

fn receiver_loop(
    socket: UdpSocket,
    mut decider: Decider,
    shared: Arc<ReceiverShared>,
    shutdown: Arc<AtomicBool>,
) {
    let mut ring = Ring::new();
    let mut rxs: Vec<FastRx> = Vec::with_capacity(128);
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    // One drain's packets in arrival order, reused across drains.
    let mut staged: Vec<PacketIn> = Vec::new();
    // Gateway EUI → dense id handed to the dedup layer.
    let mut gw_ids: HashMap<u64, u16> = HashMap::new();
    while !shutdown.load(Ordering::SeqCst) {
        let drained = match ring.recv(&socket) {
            Ok(n) => n,
            Err(e) => {
                if let Some(pause) = pause_after_recv_error(&e, &shared.registry) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        let recv = Instant::now();
        let mut counts = DrainCounts::default();
        for slot in 0..drained {
            let datagram = ring.datagram(slot);
            match datagram.get(3) {
                // PUSH_DATA: parse, ack, stage.
                Some(0x00) => {
                    rxs.clear();
                    let Ok(head) = parse_push_data(datagram, &mut rxs, &mut scratch) else {
                        counts.malformed();
                        continue;
                    };
                    counts.datagrams += 1;
                    let Some(gw) = shared.gw_id(&mut gw_ids, head.eui) else {
                        // Not served: no ACK, nothing decided.
                        continue;
                    };
                    let ack = [datagram[0], datagram[1], datagram[2], 0x01];
                    ring.ack(slot, ack);
                    counts.push_acks += 1;
                    let mut trace0 = 0u64;
                    for rx in &rxs {
                        let (Some(dev), Some(fcnt)) = (rx.dev_addr, rx.fcnt) else {
                            counts.unkeyed += 1;
                            continue;
                        };
                        counts.pkts += 1;
                        if trace0 == 0 {
                            trace0 = rx.trce;
                        }
                        staged.push(PacketIn {
                            dev,
                            fcnt,
                            gw,
                            t_us: rx.tmst,
                            snr_db: rx.lsnr as f32,
                            trace: rx.trce,
                        });
                    }
                    shared.emit(|| ObsEvent::SvcIngest {
                        wall_us: shared.wall_us(),
                        trace: trace0,
                        gw: head.eui,
                        pkts: rxs.len() as u32,
                    });
                }
                // PULL_DATA: ack and record the downlink route.
                Some(0x02) if datagram.len() >= 12 => {
                    let eui = u64::from_be_bytes(datagram[4..12].try_into().expect("len checked"));
                    let first = ring
                        .peer(slot)
                        .and_then(|peer| shared.set_pull_route(eui, peer));
                    let Some(first) = first else {
                        continue;
                    };
                    let ack = [datagram[0], datagram[1], datagram[2], 0x04];
                    ring.ack(slot, ack);
                    counts.pull_data += 1;
                    if first {
                        counts.gateways_seen += 1;
                        shared.emit(|| ObsEvent::SvcAccept {
                            wall_us: shared.wall_us(),
                            conn: SvcConn::Udp,
                            peer: eui,
                        });
                    }
                }
                // TX_ACK: downlink confirmed by the gateway.
                Some(0x05) => counts.tx_acks += 1,
                _ => counts.malformed(),
            }
        }
        // No packet is decided before its datagram's ACK has left.
        ring.flush_acks(&socket);
        let decided = (!staged.is_empty()).then(|| decider.decide(&staged, recv));
        staged.clear();
        counts.publish(drained, decided, &shared.registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gateway::forwarder::codec::{GatewayEui, RxPacket};
    use lora_mac::device::{DevAddr, SessionKeys};
    use lora_mac::frame::PhyPayload;
    use lora_phy::channel::Channel;
    use lora_phy::types::SpreadingFactor;

    #[test]
    fn gateway_tables_stop_at_the_cap() {
        let shared = ReceiverShared {
            registry: Arc::new(Mutex::new(Registry::new())),
            pull_routes: Mutex::new(HashMap::new()),
            sink: None,
            started: Instant::now(),
        };
        let mut gw_ids = HashMap::new();
        let eui = |i: usize| 0xA000_0000_0000_0000 | i as u64;
        let peer: SocketAddr = (Ipv4Addr::LOCALHOST, 1700).into();
        const SPOOFED: usize = 70_000;
        for i in 0..SPOOFED {
            // Ids are dense in order of first sight, so distinct.
            let served = (i < MAX_GATEWAYS).then_some(i as u16);
            assert_eq!(shared.gw_id(&mut gw_ids, eui(i)), served, "gateway {i}");
            assert_eq!(shared.set_pull_route(eui(i), peer), served.map(|_| true));
        }
        assert_eq!(gw_ids.len(), MAX_GATEWAYS);
        assert_eq!(shared.pull_routes.lock().len(), MAX_GATEWAYS);
        let rejected = 2 * (SPOOFED - MAX_GATEWAYS) as u64;
        assert_eq!(
            shared
                .registry
                .lock()
                .counter("svc_gateways_rejected_total"),
            rejected
        );
        // A full table still serves the gateways in it, unchanged.
        for i in (0..MAX_GATEWAYS).step_by(97) {
            assert_eq!(shared.gw_id(&mut gw_ids, eui(i)), Some(i as u16));
            assert_eq!(shared.set_pull_route(eui(i), peer), Some(false));
        }
        assert_eq!(
            shared
                .registry
                .lock()
                .counter("svc_gateways_rejected_total"),
            rejected
        );
    }

    #[test]
    fn no_receive_error_ends_the_loop_and_only_timeouts_go_uncounted() {
        let registry = Mutex::new(Registry::new());
        let errors = || registry.lock().counter("svc_recv_errors_total");
        // The 50 ms shutdown poll, in either spelling.
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert_eq!(pause_after_recv_error(&kind.into(), &registry), None);
        }
        assert_eq!(errors(), 0);
        // EINTR, and one nobody thought of: counted, paused, survived.
        let eintr = io::Error::from(io::ErrorKind::Interrupted);
        let other = io::Error::other("ENOBUFS or worse");
        for (seen, e) in [eintr, other].iter().enumerate() {
            let pause = pause_after_recv_error(e, &registry).expect("counted");
            assert!(!pause.is_zero(), "a persistent error must not spin");
            assert_eq!(errors(), seen as u64 + 1);
        }
    }

    /// Send `wires` to a daemon with the default SLO rules on a 20 ms
    /// sampler, a hundred at a time so the socket buffer never sheds,
    /// and return the breaches fired by the time every one of them is
    /// in a closed frame.
    fn breaches_after(wires: &[Vec<u8>]) -> u64 {
        let cfg = NetServerConfig {
            series_interval_ms: 20,
            ..NetServerConfig::default()
        };
        let daemon = NetServerDaemon::start(cfg, None).expect("daemon starts");
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let wait = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let mut sent = 0u64;
        for burst in wires.chunks(100) {
            for wire in burst {
                socket.send_to(wire, daemon.addr()).expect("send");
            }
            sent += burst.len() as u64;
            wait("daemon lost datagrams", &|| {
                daemon.counter("svc_datagrams_total") == sent
            });
        }
        wait("sampler never closed the frames", &|| {
            let frames = daemon.series().frames;
            let framed = frames.iter().map(|f| f.counter("svc_datagrams_total"));
            framed.sum::<u64>() == sent
        });
        // The tick that closed the last frame evaluated the rules under
        // the same lock; its breaches are counted a moment later.
        let grace = Instant::now() + Duration::from_millis(200);
        while daemon.slo_breaches() == 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(1));
        }
        let breaches = daemon.slo_breaches();
        daemon.shutdown();
        breaches
    }

    #[test]
    fn malformed_burn_sees_a_flood_of_nothing_but_malformed() {
        let keys = SessionKeys {
            nwk_s_key: [0x13; 16],
            app_s_key: [0x57; 16],
        };
        let good: Vec<Vec<u8>> = (0..1_000u32)
            .map(|i| {
                let phy = PhyPayload::uplink(DevAddr(0x2601_0000 + i), 1, 1, &[0u8; 4])
                    .encode(&keys)
                    .expect("encodes");
                let rx = RxPacket::new(
                    1_000 * i as u64,
                    Channel::khz125(916_800_000),
                    SpreadingFactor::SF7,
                    -95.0,
                    6.5,
                    &phy,
                );
                Datagram::PushData {
                    token: i as u16,
                    eui: GatewayEui(7),
                    rxpk: vec![rx],
                }
                .encode()
            })
            .collect();
        // Half unparseable PUSH_DATA, half datagrams of no known kind.
        let malformed: Vec<Vec<u8>> = (0..1_000u32)
            .map(|i| {
                let mut wire = vec![2, 0, 0, if i % 2 == 0 { 0x00 } else { 0x7f }];
                wire.extend_from_slice(&7u64.to_be_bytes());
                wire.extend_from_slice(br#"{"rxpk":[{"tmst":}]}"#);
                wire
            })
            .collect();
        assert!(breaches_after(&malformed) >= 1, "all-malformed flood");
        assert_eq!(breaches_after(&good), 0, "all-good traffic");
    }
}
