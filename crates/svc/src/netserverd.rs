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
//! drain's packets to the deduplicator it owns
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
use crate::runtime::{Decided, Decider, Decision, DecisionLogs, PacketIn, SharedObs};
use gateway::forwarder::codec::{Datagram, TxPacket};
use gateway::forwarder::fast::{parse_push_data, FastRx};
use netserver::dedup::DedupStats;
use obs::{ObsEvent, Registry, SvcConn};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
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
    /// Dedup window, µs.
    pub dedup_window_us: u64,
    /// Decision-log cap (the prefix stays replay-exact).
    pub decision_log_cap: usize,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            bind: (Ipv4Addr::LOCALHOST, 0).into(),
            metrics_bind: (Ipv4Addr::LOCALHOST, 0).into(),
            dedup_window_us: 2_000_000,
            decision_log_cap: 8_000_000,
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
}

impl NetServerDaemon {
    /// Bind the sockets and start the ingest thread.
    pub fn start(cfg: NetServerConfig, sink: Option<SharedObs>) -> io::Result<NetServerDaemon> {
        let socket = UdpSocket::bind(cfg.bind)?;
        let addr = socket.local_addr()?;
        let registry = Arc::new(Mutex::new(Registry::new()));
        let decider = Decider::new(cfg.dedup_window_us, cfg.decision_log_cap, sink.clone());
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
            Self::http_handler(addr, Arc::clone(&registry), Arc::clone(&logs)),
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
        })
    }

    /// `ingest` is the UDP socket's address, whose kernel-side drops
    /// `/metrics` reports.
    fn http_handler(
        ingest: SocketAddr,
        registry: Arc<Mutex<Registry>>,
        logs: Arc<DecisionLogs>,
    ) -> HttpHandler {
        Arc::new(move |path| match path {
            "/metrics" => {
                let mut text = {
                    let mut reg = registry.lock();
                    reg.sample_process_memory();
                    reg.render_prometheus()
                };
                let resident = logs.tracked();
                text.push_str(&format!(
                    "# TYPE dedup_tracked_records gauge\ndedup_tracked_records {resident}\n"
                ));
                if let Some(drops) = socket_drops(ingest) {
                    text.push_str(&format!(
                        "# TYPE svc_socket_drops gauge\nsvc_socket_drops {drops}\n"
                    ));
                }
                Some(("text/plain; version=0.0.4", text.into_bytes()))
            }
            "/healthz" => Some(("text/plain", b"ok\n".to_vec())),
            "/decisions" => Some(("text/plain", logs.render())),
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

    /// Snapshot of the decision log, as the one log of a list.
    pub fn decisions(&self) -> Vec<Vec<Decision>> {
        vec![self.logs.decisions()]
    }

    /// Dedup counters as of the last drain the registry was told of.
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

    /// (DevAddr, FCnt) records currently resident.
    pub fn tracked(&self) -> u64 {
        self.logs.tracked()
    }

    /// Decisions lost to the log cap.
    pub fn decisions_dropped(&self) -> u64 {
        self.logs.dropped()
    }

    /// The dedup window the daemon runs.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Read one counter from the daemon registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.lock().counter(name)
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
    /// and join it.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.ingest.join();
    }
}

/// Datagrams the kernel dropped for the UDP socket bound at `addr`
/// because its receive buffer was full: the `drops` column of the
/// socket's row in `/proc/net/udp` (`udp6` for an IPv6 address). The
/// daemon has no queue of its own, so this is where overload shows.
/// `None` where the file or the row is not there.
fn socket_drops(addr: SocketAddr) -> Option<u64> {
    // The kernel prints each 32-bit word of the address as a number in
    // host byte order, and the port as one.
    let words = |octets: &[u8]| -> String {
        octets
            .chunks_exact(4)
            .map(|w| format!("{:08X}", u32::from_ne_bytes([w[0], w[1], w[2], w[3]])))
            .collect()
    };
    let (table, ip) = match addr {
        SocketAddr::V4(a) => ("/proc/net/udp", words(&a.ip().octets())),
        SocketAddr::V6(a) => ("/proc/net/udp6", words(&a.ip().octets())),
    };
    let local = format!("{ip}:{:04X}", addr.port());
    let table = std::fs::read_to_string(table).ok()?;
    table.lines().skip(1).find_map(|row| {
        let mut cols = row.split_whitespace();
        if cols.nth(1)? != local {
            return None;
        }
        cols.last()?.parse().ok()
    })
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
    /// It counts as a datagram too, so `svc_malformed_total /
    /// svc_datagrams_total` between two scrapes is the malformed share,
    /// and a flood of nothing but these reads as 1.
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
            match *datagram {
                // PUSH_DATA: parse, ack, stage.
                [version, t0, t1, 0x00, ..] => {
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
                    ring.ack(slot, [version, t0, t1, 0x01]);
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
                [version, t0, t1, 0x02, e0, e1, e2, e3, e4, e5, e6, e7, ..] => {
                    let eui = u64::from_be_bytes([e0, e1, e2, e3, e4, e5, e6, e7]);
                    let first = ring
                        .peer(slot)
                        .and_then(|peer| shared.set_pull_route(eui, peer));
                    let Some(first) = first else {
                        continue;
                    };
                    ring.ack(slot, [version, t0, t1, 0x04]);
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
                [_, _, _, 0x05, ..] => counts.tx_acks += 1,
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

    /// Counter `name` as the daemon's `/metrics` endpoint renders it.
    fn scrape(daemon: &NetServerDaemon, name: &str) -> u64 {
        let text = crate::http_get(daemon.metrics_addr(), "/metrics").expect("scrape");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map_or(0, |v| v.parse().expect("counter value"))
    }

    /// Send `wires` a hundred at a time, so the socket buffer never
    /// sheds, waiting after each burst until `/metrics` counts it.
    fn send_counted(daemon: &NetServerDaemon, socket: &UdpSocket, wires: &[Vec<u8>]) {
        let mut sent = scrape(daemon, "svc_datagrams_total");
        for burst in wires.chunks(100) {
            for wire in burst {
                socket.send_to(wire, daemon.addr()).expect("send");
            }
            sent += burst.len() as u64;
            let deadline = Instant::now() + Duration::from_secs(10);
            while scrape(daemon, "svc_datagrams_total") != sent {
                assert!(Instant::now() < deadline, "daemon lost datagrams");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// A PUSH_DATA from gateway 7 carrying one keyed uplink of device
    /// `0x2601_0000 + i`, under token `i`.
    fn push_data(i: u32) -> Vec<u8> {
        let keys = SessionKeys {
            nwk_s_key: [0x13; 16],
            app_s_key: [0x57; 16],
        };
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
    }

    /// Poll `/metrics` until counter `name` reads `want`.
    fn await_scrape(daemon: &NetServerDaemon, name: &str, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while scrape(daemon, name) != want {
            assert!(Instant::now() < deadline, "{name} never reached {want}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A loopback client socket that gives up on a reply after 5 s.
    fn client() -> UdpSocket {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        socket
    }

    fn recv_ack(socket: &UdpSocket) -> Vec<u8> {
        let mut buf = [0u8; 64];
        let n = socket.recv(&mut buf).expect("ack arrives");
        buf[..n].to_vec()
    }

    #[test]
    fn push_data_is_acked_under_its_token_and_garbage_is_not() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let socket = client();
        // An unparseable PUSH_DATA first: it must draw no ACK, so the
        // first reply is the good datagram's.
        let mut bad = vec![2, 0xAA, 0xBB, 0x00];
        bad.extend_from_slice(&7u64.to_be_bytes());
        bad.extend_from_slice(b"{not json");
        socket.send_to(&bad, daemon.addr()).expect("send");
        let good = push_data(0x0102);
        socket.send_to(&good, daemon.addr()).expect("send");
        assert_eq!(recv_ack(&socket), vec![good[0], good[1], good[2], 0x01]);
        await_scrape(&daemon, "svc_pkts_total", 1);
        assert_eq!(scrape(&daemon, "svc_push_ack_total"), 1);
        assert_eq!(scrape(&daemon, "svc_malformed_total"), 1);
        assert_eq!(scrape(&daemon, "svc_datagrams_total"), 2);
        daemon.shutdown();
    }

    #[test]
    fn pull_data_is_acked_and_opens_one_route_per_gateway() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let socket = client();
        for token in [0x0001u16, 0x0002] {
            let mut pull = vec![2];
            pull.extend_from_slice(&token.to_be_bytes());
            pull.push(0x02);
            pull.extend_from_slice(&0xBEEFu64.to_be_bytes());
            socket.send_to(&pull, daemon.addr()).expect("send");
            let [hi, lo] = token.to_be_bytes();
            assert_eq!(recv_ack(&socket), vec![2, hi, lo, 0x04]);
        }
        // A PULL_DATA too short to name its gateway is malformed.
        socket
            .send_to(&[2, 0, 3, 0x02, 0xBE], daemon.addr())
            .expect("send");
        await_scrape(&daemon, "svc_malformed_total", 1);
        assert_eq!(scrape(&daemon, "svc_pull_data_total"), 2);
        assert_eq!(scrape(&daemon, "svc_gateways_seen"), 1, "same EUI twice");
        daemon.shutdown();
    }

    #[test]
    fn ingest_latency_holds_one_sample_per_drain() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let before = daemon.ingest_latency();
        assert_eq!(before.total(), 0, "an idle daemon reads an empty histogram");
        assert_eq!(before.bounds(), crate::runtime::INGEST_LATENCY_BOUNDS_US);
        // Waiting for each ACK before the next send makes every
        // datagram a drain of its own.
        let socket = client();
        for i in 0..3u32 {
            socket.send_to(&push_data(i), daemon.addr()).expect("send");
            recv_ack(&socket);
        }
        await_scrape(&daemon, "svc_pkts_total", 3);
        let after = daemon.ingest_latency();
        assert_eq!(after.total(), 3);
        assert_eq!(after.bounds(), before.bounds());
        daemon.shutdown();
    }

    #[test]
    fn tx_acks_are_counted_apart_from_datagrams() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let socket = client();
        for token in 0..3u8 {
            let mut tx_ack = vec![2, 0, token, 0x05];
            tx_ack.extend_from_slice(&7u64.to_be_bytes());
            socket.send_to(&tx_ack, daemon.addr()).expect("send");
        }
        await_scrape(&daemon, "svc_tx_ack_total", 3);
        assert_eq!(scrape(&daemon, "svc_datagrams_total"), 0);
        assert_eq!(scrape(&daemon, "svc_malformed_total"), 0);
        daemon.shutdown();
    }

    #[test]
    fn drain_histogram_counts_every_datagram_received() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let socket = client();
        let mut sent = 0u64;
        for i in 0..4u32 {
            socket.send_to(&push_data(i), daemon.addr()).expect("send");
            socket
                .send_to(&[2, 0, 0, 0x05], daemon.addr())
                .expect("send");
            socket.send_to(b"junk", daemon.addr()).expect("send");
            sent += 3;
        }
        await_scrape(&daemon, "svc_drain_datagrams_sum", sent);
        let drains = scrape(&daemon, "svc_drain_datagrams_count");
        assert!((1..=sent).contains(&drains), "{drains} drains");
        assert_eq!(scrape(&daemon, "svc_datagrams_total"), 8);
        assert_eq!(scrape(&daemon, "svc_tx_ack_total"), 4);
        assert_eq!(scrape(&daemon, "svc_malformed_total"), 4);
        daemon.shutdown();
    }

    #[test]
    fn decisions_endpoint_follows_ingest() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let get = |path| crate::http_get(daemon.metrics_addr(), path).expect("scrape");
        assert_eq!(get("/decisions"), "");
        // Waiting for each ACK before the next send makes every
        // datagram a drain of its own.
        let socket = client();
        for i in 0..3u32 {
            socket.send_to(&push_data(i), daemon.addr()).expect("send");
            recv_ack(&socket);
        }
        await_scrape(&daemon, "svc_pkts_total", 3);
        let decided = crate::runtime::parse_decisions(&get("/decisions")).expect("parses");
        let devs: Vec<u32> = decided.iter().map(|d| d.dev).collect();
        assert_eq!(
            devs,
            [0x2601_0000, 0x2601_0001, 0x2601_0002],
            "in arrival order"
        );
        assert_eq!(daemon.decisions(), [decided]);
        assert_eq!(daemon.dedup_stats().new, 3);
        daemon.shutdown();
    }

    #[test]
    fn metrics_samples_process_memory_and_unknown_paths_are_404() {
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let text = crate::http_get(daemon.metrics_addr(), "/metrics").expect("scrape");
        assert!(text.contains("dedup_tracked_records 0\n"), "{text}");
        if obs::proc_mem().is_some() {
            assert!(scrape(&daemon, "process_rss_bytes") > 0, "{text}");
        }
        for path in ["/", "/debug", "/metrics/extra", "/bench"] {
            let err = crate::http_get(daemon.metrics_addr(), path).unwrap_err();
            assert!(err.to_string().contains("404"), "{path}: {err}");
        }
        daemon.shutdown();
    }

    /// The `drops` column of the socket at `addr`, read from the kernel's
    /// table here rather than by [`socket_drops`]: each row's address
    /// parsed back and compared. `None` without the table or the row.
    fn kernel_drops(addr: SocketAddr) -> Option<u64> {
        let table = if addr.is_ipv4() {
            "/proc/net/udp"
        } else {
            "/proc/net/udp6"
        };
        let table = std::fs::read_to_string(table).ok()?;
        table.lines().skip(1).find_map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let (ip, port) = cols.get(1)?.split_once(':')?;
            let octets: Vec<u8> = (0..ip.len())
                .step_by(8)
                .filter_map(|k| u32::from_str_radix(ip.get(k..k + 8)?, 16).ok())
                .flat_map(u32::to_ne_bytes)
                .collect();
            let ip: std::net::IpAddr = match octets.len() {
                4 => <[u8; 4]>::try_from(octets).ok()?.into(),
                16 => <[u8; 16]>::try_from(octets).ok()?.into(),
                _ => return None,
            };
            let at = SocketAddr::new(ip, u16::from_str_radix(port, 16).ok()?);
            (at == addr).then(|| cols.last()?.parse().ok())?
        })
    }

    #[test]
    fn socket_drops_read_the_sockets_kernel_row() {
        // A socket nobody reads: the kernel drops what its buffer cannot
        // hold.
        let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = sink.local_addr().expect("addr");
        let Some(before) = kernel_drops(addr) else {
            return; // no /proc/net/udp on this system
        };
        assert_eq!(socket_drops(addr), Some(before));
        let sender = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        for _ in 0..40 {
            for _ in 0..500 {
                sender.send_to(&[0u8; 4_000], addr).expect("send");
            }
            if kernel_drops(addr) > Some(0) {
                break;
            }
        }
        let after = kernel_drops(addr).expect("the row stays");
        assert!(after > 0, "80 MB into an unread socket and no drops");
        assert_eq!(socket_drops(addr), Some(after));
    }

    #[test]
    fn metrics_report_the_ingest_sockets_drops() {
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let cfg = NetServerConfig {
                bind: bind.parse().expect("address"),
                ..NetServerConfig::default()
            };
            let Ok(daemon) = NetServerDaemon::start(cfg, None) else {
                continue; // no IPv6 loopback here
            };
            let text = crate::http_get(daemon.metrics_addr(), "/metrics").expect("scrape");
            match kernel_drops(daemon.addr()) {
                Some(drops) => {
                    assert!(text.contains("\nsvc_socket_drops "), "{bind}: {text}");
                    assert_eq!(scrape(&daemon, "svc_socket_drops"), drops, "{bind}");
                }
                None => assert!(!text.contains("svc_socket_drops"), "{bind}: {text}"),
            }
            daemon.shutdown();
        }
    }

    #[test]
    fn metrics_count_a_flood_of_nothing_but_malformed() {
        let good: Vec<Vec<u8>> = (0..1_000u32).map(push_data).collect();
        // Half unparseable PUSH_DATA, half datagrams of no known kind.
        let malformed: Vec<Vec<u8>> = (0..1_000u32)
            .map(|i| {
                let mut wire = vec![2, 0, 0, if i % 2 == 0 { 0x00 } else { 0x7f }];
                wire.extend_from_slice(&7u64.to_be_bytes());
                wire.extend_from_slice(br#"{"rxpk":[{"tmst":}]}"#);
                wire
            })
            .collect();
        let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("starts");
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        send_counted(&daemon, &socket, &malformed);
        assert_eq!(scrape(&daemon, "svc_malformed_total"), 1_000);
        assert_eq!(scrape(&daemon, "svc_datagrams_total"), 1_000);
        send_counted(&daemon, &socket, &good);
        assert_eq!(scrape(&daemon, "svc_malformed_total"), 1_000);
        assert_eq!(scrape(&daemon, "svc_datagrams_total"), 2_000);
        daemon.shutdown();
    }
}
