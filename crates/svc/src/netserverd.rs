//! `netserverd`: the network-server ingest daemon.
//!
//! Speaks the Semtech UDP forwarder protocol on a real socket:
//! `PUSH_DATA` is acknowledged, fast-parsed
//! ([`gateway::forwarder::fast`]) and fanned out to the dedup shard
//! pool; `PULL_DATA` is acknowledged and records the gateway's
//! downlink route so [`NetServerDaemon::send_downlink`] can push a
//! `PULL_RESP` back; `TX_ACK` is counted. Receiver threads share one
//! bound socket via `try_clone` (std has no `SO_REUSEPORT`), so the
//! kernel's socket buffer is the single shared ingress queue.

use crate::endpoint::{HttpEndpoint, HttpHandler};
use crate::report::LatencyQuantiles;
use crate::runtime::{render_decisions, Batch, PacketIn, ShardPool, ShardRouter, SharedObs};
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
    /// Dedup worker shards.
    pub shards: usize,
    /// Receiver threads sharing the ingest socket.
    pub receivers: usize,
    /// Bounded batches queued per shard before the router blocks.
    pub channel_capacity: usize,
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
            receivers: 1,
            channel_capacity: 256,
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

struct ReceiverShared {
    registry: Arc<Mutex<Registry>>,
    /// Gateway EUI → dense id handed to the dedup layer.
    gw_ids: Mutex<HashMap<u64, u16>>,
    /// Gateway EUI → last PULL_DATA origin (the downlink route).
    pull_routes: Mutex<HashMap<u64, SocketAddr>>,
    sink: Option<SharedObs>,
    started: Instant,
}

impl ReceiverShared {
    /// The dense id of gateway `eui`, handed out on first sight;
    /// `None` once [`MAX_GATEWAYS`] others hold one.
    fn gw_id(&self, eui: u64) -> Option<u16> {
        let mut ids = self.gw_ids.lock();
        if let Some(&id) = ids.get(&eui) {
            return Some(id);
        }
        if ids.len() >= MAX_GATEWAYS {
            drop(ids);
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

    fn emit(&self, ev: ObsEvent) {
        if let Some(s) = &self.sink {
            let mut s = s.lock();
            if s.enabled() {
                s.record(&ev);
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
    pool: Option<ShardPool>,
    registry: Arc<Mutex<Registry>>,
    shared: Arc<ReceiverShared>,
    socket: UdpSocket,
    window_us: u64,
    shutdown: Arc<AtomicBool>,
    receivers: Vec<JoinHandle<()>>,
    sampler: Sampler,
    flight: Option<SharedFlight>,
}

impl NetServerDaemon {
    /// Bind the sockets and start the receiver + shard threads.
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
        let pool = ShardPool::new(
            cfg.shards,
            cfg.channel_capacity,
            cfg.dedup_window_us,
            cfg.decision_log_cap,
            Arc::clone(&registry),
            sink.clone(),
        );
        let shared = Arc::new(ReceiverShared {
            registry: Arc::clone(&registry),
            gw_ids: Mutex::new(HashMap::new()),
            pull_routes: Mutex::new(HashMap::new()),
            sink,
            started: Instant::now(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut receivers = Vec::new();
        for idx in 0..cfg.receivers.max(1) {
            let rx_socket = socket.try_clone()?;
            rx_socket.set_read_timeout(Some(Duration::from_millis(50)))?;
            let rx_shared = Arc::clone(&shared);
            let rx_shutdown = Arc::clone(&shutdown);
            let router = pool.router();
            receivers.push(
                std::thread::Builder::new()
                    .name(format!("svc-ingest-{idx}"))
                    .spawn(move || receiver_loop(rx_socket, router, rx_shared, rx_shutdown))?,
            );
        }
        let endpoint = HttpEndpoint::start(
            cfg.metrics_bind,
            Self::http_handler(Arc::clone(&registry), &pool, sampler.tsdb()),
        )?;
        Ok(NetServerDaemon {
            addr,
            endpoint,
            pool: Some(pool),
            registry,
            shared,
            socket,
            window_us: cfg.dedup_window_us,
            shutdown,
            receivers,
            sampler,
            flight,
        })
    }

    fn http_handler(
        registry: Arc<Mutex<Registry>>,
        pool: &ShardPool,
        tsdb: Arc<Mutex<obs::Tsdb>>,
    ) -> HttpHandler {
        let decisions = pool.decision_handles();
        let tracked = pool.tracked_handles();
        Arc::new(move |path| match path {
            "/metrics" => {
                let mut text = registry.lock().render_prometheus();
                let resident: u64 = tracked.iter().map(|t| t.load(Ordering::Relaxed)).sum();
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
            "/decisions" => {
                let logs: Vec<Vec<crate::runtime::Decision>> =
                    decisions.iter().map(|l| l.lock().clone()).collect();
                Some(("text/plain", render_decisions(&logs)))
            }
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
    pub fn decisions(&self) -> Vec<Vec<crate::runtime::Decision>> {
        self.pool.as_ref().expect("running").decisions()
    }

    /// Dedup counters summed across shards.
    pub fn dedup_stats(&self) -> DedupStats {
        self.pool.as_ref().expect("running").dedup_stats()
    }

    /// (DevAddr, FCnt) records currently resident across shards.
    pub fn tracked(&self) -> u64 {
        self.pool.as_ref().expect("running").tracked()
    }

    /// Decisions lost to the log cap.
    pub fn decisions_dropped(&self) -> u64 {
        self.pool.as_ref().expect("running").decisions_dropped()
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

    /// Stop the receivers, drain the shards and join everything.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.receivers.drain(..) {
            let _ = t.join();
        }
        // Receivers (and their routers) are gone; close the shard
        // queues and join the workers.
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        self.sampler.shutdown();
        if let Some(fr) = &self.flight {
            fr.lock().flush();
        }
    }
}

fn receiver_loop(
    socket: UdpSocket,
    router: ShardRouter,
    shared: Arc<ReceiverShared>,
    shutdown: Arc<AtomicBool>,
) {
    let mut buf = [0u8; 65_536];
    let mut rxs: Vec<FastRx> = Vec::with_capacity(128);
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    // Per-shard staging buffers, reused across datagrams.
    let mut staged: Vec<Vec<PacketIn>> = (0..router.shard_count()).map(|_| Vec::new()).collect();
    // The ids this receiver has resolved, see `local_gw_id`.
    let mut gw_ids: Vec<(u64, u16)> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        };
        let recv = Instant::now();
        let datagram = &buf[..len];
        match datagram.get(3) {
            // PUSH_DATA: ack, parse, route.
            Some(0x00) => {
                rxs.clear();
                match parse_push_data(datagram, &mut rxs, &mut scratch) {
                    Ok(head) => {
                        let Some(gw) = local_gw_id(&mut gw_ids, &shared, head.eui) else {
                            // Not served: no ACK, nothing routed.
                            shared.registry.lock().inc("svc_datagrams_total", 1);
                            continue;
                        };
                        let ack = [datagram[0], datagram[1], datagram[2], 0x01];
                        let _ = socket.send_to(&ack, peer);
                        let mut keyed = 0u64;
                        let mut unkeyed = 0u64;
                        let mut trace0 = 0u64;
                        for rx in &rxs {
                            match (rx.dev_addr, rx.fcnt) {
                                (Some(dev), Some(fcnt)) => {
                                    keyed += 1;
                                    if trace0 == 0 {
                                        trace0 = rx.trce;
                                    }
                                    staged[router.shard_of(dev)].push(PacketIn {
                                        dev,
                                        fcnt,
                                        gw,
                                        t_us: rx.tmst,
                                        snr_db: rx.lsnr as f32,
                                        trace: rx.trce,
                                    });
                                }
                                _ => unkeyed += 1,
                            }
                        }
                        for (shard, pkts) in staged.iter_mut().enumerate() {
                            if !pkts.is_empty() {
                                // The next datagram stages about as many.
                                let next = Vec::with_capacity(pkts.len());
                                router.send(
                                    shard,
                                    Batch {
                                        pkts: std::mem::replace(pkts, next),
                                        recv,
                                    },
                                );
                            }
                        }
                        {
                            let mut reg = shared.registry.lock();
                            reg.inc("svc_datagrams_total", 1);
                            reg.inc("svc_pkts_total", keyed);
                            if unkeyed > 0 {
                                reg.inc("svc_pkts_unkeyed_total", unkeyed);
                            }
                            reg.inc("svc_push_ack_total", 1);
                        }
                        shared.emit(ObsEvent::SvcIngest {
                            wall_us: shared.wall_us(),
                            trace: trace0,
                            gw: head.eui,
                            pkts: rxs.len() as u32,
                        });
                    }
                    Err(_) => count_malformed(&shared),
                }
            }
            // PULL_DATA: ack and record the downlink route.
            Some(0x02) if len >= 12 => {
                let eui = u64::from_be_bytes(buf[4..12].try_into().expect("len checked"));
                let Some(first) = shared.set_pull_route(eui, peer) else {
                    continue;
                };
                let ack = [datagram[0], datagram[1], datagram[2], 0x04];
                let _ = socket.send_to(&ack, peer);
                let mut reg = shared.registry.lock();
                reg.inc("svc_pull_data_total", 1);
                drop(reg);
                if first {
                    shared.registry.lock().inc("svc_gateways_seen", 1);
                    shared.emit(ObsEvent::SvcAccept {
                        wall_us: shared.wall_us(),
                        conn: SvcConn::Udp,
                        peer: eui,
                    });
                }
            }
            // TX_ACK: downlink confirmed by the gateway.
            Some(0x05) => {
                shared.registry.lock().inc("svc_tx_ack_total", 1);
            }
            _ => count_malformed(&shared),
        }
    }
}

/// Gateway `eui`'s dense id from a receiver's own list (sorted by EUI),
/// which asks the shared table, and takes its lock, only for an EUI it
/// has not resolved before.
fn local_gw_id(known: &mut Vec<(u64, u16)>, shared: &ReceiverShared, eui: u64) -> Option<u16> {
    match known.binary_search_by_key(&eui, |&(eui, _)| eui) {
        Ok(at) => Some(known[at].1),
        Err(at) => {
            let id = shared.gw_id(eui)?;
            known.insert(at, (eui, id));
            Some(id)
        }
    }
}

/// A PUSH_DATA that does not parse, or a datagram of no known kind. It
/// counts as a datagram too: `svc_datagrams_total` is the denominator
/// of the `malformed-burn` SLO, which has to see a flood of nothing
/// but these.
fn count_malformed(shared: &ReceiverShared) {
    let mut reg = shared.registry.lock();
    reg.inc("svc_datagrams_total", 1);
    reg.inc("svc_malformed_total", 1);
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
            gw_ids: Mutex::new(HashMap::new()),
            pull_routes: Mutex::new(HashMap::new()),
            sink: None,
            started: Instant::now(),
        };
        let eui = |i: usize| 0xA000_0000_0000_0000 | i as u64;
        let peer: SocketAddr = (Ipv4Addr::LOCALHOST, 1700).into();
        const SPOOFED: usize = 70_000;
        for i in 0..SPOOFED {
            // Ids are dense in order of first sight, so distinct.
            let served = (i < MAX_GATEWAYS).then_some(i as u16);
            assert_eq!(shared.gw_id(eui(i)), served, "gateway {i}");
            assert_eq!(shared.set_pull_route(eui(i), peer), served.map(|_| true));
        }
        assert_eq!(shared.gw_ids.lock().len(), MAX_GATEWAYS);
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
            assert_eq!(shared.gw_id(eui(i)), Some(i as u16));
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
