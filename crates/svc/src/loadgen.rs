//! The gateway load generator.
//!
//! Replays a simulated gateway fleet against a live `netserverd`
//! socket. The fleet comes from [`bench::scenario`]: a testbed world
//! runs a coordinated schedule and every [`sim::world::PacketRecord`]'s
//! `receiving_gateways` become real `PUSH_DATA` rxpks — one copy per
//! receiving gateway, which is exactly the duplicate pattern the dedup
//! window exists for.
//!
//! The send loop does not touch JSON: every datagram is encoded
//! **once** at setup, and each epoch (one replay of the fleet's
//! schedule) re-sends the same bytes after patching, in place, the
//! binary token (bytes 1..3) and every rxpk's `tmst` — kept at a fixed
//! 10-ASCII-digit width by anchoring virtual time at [`TMST_BASE_US`],
//! so the patch never resizes the buffer. FCnt values repeat across
//! epochs; the epoch span exceeds the dedup window, so each repeat is
//! correctly classified `New` (the same thing that happens when a real
//! device's 16-bit FCnt wraps).
//!
//! One thread sends and reads the PUSH_ACKs, inside a window of eight
//! unacknowledged datagrams (`WINDOW`); the Master plan path is
//! exercised concurrently through [`ResilientMasterClient`]. Nothing
//! here is timed beyond the send loop's wall clock: the repo benchmark
//! is what measures speed.

use alphawan::master::{BackoffPolicy, PlanSource, ResilientMasterClient};
use bench::scenario::{
    coordinated_schedule, orthogonal_assignments, NetworkSpec, WorldBuilder, PAYLOAD_LEN,
};
use gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use lora_mac::device::{DevAddr, SessionKeys};
use lora_mac::frame::PhyPayload;
use lora_phy::channel::ChannelGrid;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual-time anchor for rxpk `tmst` values. Keeping every patched
/// value in `[10^9, 10^10)` pins the ASCII encoding at exactly ten
/// digits, so epoch patching is an in-place byte write.
pub const TMST_BASE_US: u64 = 1_000_000_000;
const TMST_MAX_US: u64 = 9_999_999_999;

/// Gateway EUIs are this base plus the fleet gateway index.
pub const GATEWAY_EUI_BASE: u64 = 0x00AA_0000_0000_0000;

/// Flow-control window: the most PUSH_DATA datagrams in flight without
/// a PUSH_ACK. UDP has no backpressure of its own — an unpaced sender
/// overruns the receiver's kernel socket buffer and the kernel drops
/// silently; bounding in-flight bytes below that buffer is what makes a
/// lossless loopback soak possible. A window slot whose ACK never
/// arrives (chaos loss) is given up after `STALL` (5 ms) rather than
/// wedging the sender; should that ACK come after all, it frees
/// nothing.
const WINDOW: usize = 8;

/// How long the sender waits on a full window before it gives up the
/// oldest slot.
const STALL: Duration = Duration::from_millis(5);

/// Load-generator configuration. `Default` is sized for tests; the
/// soak harness and the `loadgen` binary scale it up.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The `netserverd` ingest socket (or a chaos proxy in front).
    pub server: SocketAddr,
    /// Optional Master plan server to exercise concurrently.
    pub master: Option<SocketAddr>,
    /// Simulated gateways in the fleet.
    pub gateways: usize,
    /// Simulated end devices per replica.
    pub devices: usize,
    /// Device-population replicas: each re-sends the schedule under a
    /// shifted DevAddr range, multiplying packets per epoch without
    /// lengthening the virtual-time span.
    pub replicas: usize,
    /// Topology/schedule seed.
    pub seed: u64,
    /// Max rxpks per PUSH_DATA datagram.
    pub batch: usize,
    /// Times to replay the fleet schedule.
    pub epochs: usize,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            server: (std::net::Ipv4Addr::LOCALHOST, 0).into(),
            master: None,
            gateways: 4,
            devices: 48,
            replicas: 2,
            seed: 7,
            batch: 64,
            epochs: 4,
        }
    }
}

/// What one run sent and got back (client side; daemon-side ingest
/// counts come from the daemon's own metrics).
#[derive(Debug)]
pub struct LoadgenReport {
    /// PUSH_DATA datagrams sent.
    pub sent_datagrams: u64,
    /// Individual rxpk packets carried by those datagrams.
    pub sent_pkts: u64,
    /// Epochs actually replayed (clamped when the virtual-time budget
    /// runs out before the requested count).
    pub epochs_run: usize,
    /// Wall-clock duration of the send loop.
    pub elapsed: Duration,
    /// PUSH_ACKs received back, except those that came after their
    /// window slot was given up.
    pub acks: u64,
    /// Plan requests that went to the Master daemon.
    pub plan_fetches: u64,
    /// Plan requests answered from the client-side cache.
    pub plan_cached: u64,
}

/// One pre-encoded PUSH_DATA with its patch table.
struct EncodedDatagram {
    wire: Vec<u8>,
    /// `(byte offset, epoch-0 value)` of each 10-digit tmst field.
    tmst: Vec<(usize, u64)>,
    pkts: u32,
    first_tmst: u64,
}

/// The pre-encoded fleet stream.
pub struct FleetStream {
    datagrams: Vec<EncodedDatagram>,
    pkts_per_epoch: u64,
    /// Virtual time consumed per epoch; exceeds the dedup window so
    /// FCnt reuse across epochs classifies `New`.
    epoch_span_us: u64,
}

impl FleetStream {
    /// Packets sent by one full epoch.
    pub fn pkts_per_epoch(&self) -> u64 {
        self.pkts_per_epoch
    }

    /// Epochs that fit the fixed-width tmst budget.
    pub fn max_epochs(&self) -> usize {
        ((TMST_MAX_US - TMST_BASE_US) / self.epoch_span_us.max(1)) as usize
    }
}

/// Simulate the fleet and pre-encode its datagram stream.
///
/// `min_window_us` is the serving daemon's dedup window: the epoch
/// span is stretched past it so cross-epoch FCnt reuse stays `New`.
pub fn build_fleet(cfg: &LoadgenConfig, min_window_us: u64) -> io::Result<FleetStream> {
    let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let spec = NetworkSpec {
        network_id: 1,
        n_nodes: cfg.devices,
        gw_channels: vec![channels.clone(); cfg.gateways.max(1)],
    };
    let builder = WorldBuilder::testbed(cfg.seed).network(spec);
    let node_ids: Vec<usize> = builder.node_range(0).collect();
    let mut world = builder.build();
    let assignments = orthogonal_assignments(&node_ids, &channels);
    let horizon_us = 4_000_000;
    let plans = coordinated_schedule(&assignments, 0.25, horizon_us, PAYLOAD_LEN);
    let records = world.run(&plans);

    // Flatten records into per-gateway reception streams, replicated
    // across shifted DevAddr ranges.
    let network_key = [0x42u8; 16];
    let mut fcnt: HashMap<usize, u16> = HashMap::new();
    let mut max_end = 0u64;
    // Per gateway: (tmst, dev, phy payload index) — payloads are
    // encoded once per (record, replica) and shared by every gateway
    // that heard the copy.
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    struct Rx {
        tmst: u64,
        payload: usize,
        snr_db: f64,
        rssi_dbm: f64,
        channel: lora_phy::channel::Channel,
        sf: lora_phy::types::SpreadingFactor,
        trace: u64,
    }
    let mut per_gw: Vec<Vec<Rx>> = (0..cfg.gateways.max(1)).map(|_| Vec::new()).collect();
    for rec in &records {
        if rec.receiving_gateways.is_empty() {
            continue;
        }
        let node_fcnt = {
            let c = fcnt.entry(rec.node).or_insert(0);
            let v = *c;
            *c = c.wrapping_add(1);
            v
        };
        max_end = max_end.max(rec.end_us);
        for replica in 0..cfg.replicas.max(1) {
            let dev = DevAddr::new(1, (rec.node + replica * cfg.devices) as u32);
            let keys = SessionKeys::derive(&network_key, dev);
            let frm = [0xA5u8; PAYLOAD_LEN - 13];
            let phy = PhyPayload::uplink(dev, node_fcnt, 1, &frm)
                .encode(&keys)
                .map_err(|e| io::Error::other(format!("frame encode: {e:?}")))?;
            debug_assert_eq!(phy.len(), PAYLOAD_LEN);
            let payload = payloads.len();
            payloads.push(phy);
            let n_gw = per_gw.len();
            for &gw in &rec.receiving_gateways {
                per_gw[gw % n_gw].push(Rx {
                    tmst: TMST_BASE_US + rec.end_us,
                    payload,
                    snr_db: -2.0 - ((rec.node * 7 + gw * 13) % 16) as f64,
                    rssi_dbm: -90.0 - ((rec.node * 5 + gw * 3) % 30) as f64,
                    channel: rec.channel,
                    sf: rec.dr.spreading_factor(),
                    trace: (replica as u64) << 32 | (rec.tx_id + 1),
                });
            }
        }
    }
    let total: usize = per_gw.iter().map(|v| v.len()).sum();
    if total == 0 {
        return Err(io::Error::other(
            "fleet produced no receptions — schedule or topology degenerate",
        ));
    }

    // Chunk each gateway's time-sorted stream into PUSH_DATA datagrams.
    let mut datagrams = Vec::new();
    for (gw, mut rxs) in per_gw.into_iter().enumerate() {
        rxs.sort_by_key(|r| r.tmst);
        for chunk in rxs.chunks(cfg.batch.max(1)) {
            let rxpk: Vec<RxPacket> = chunk
                .iter()
                .map(|r| {
                    RxPacket::new(
                        r.tmst,
                        r.channel,
                        r.sf,
                        r.rssi_dbm,
                        r.snr_db,
                        &payloads[r.payload],
                    )
                    .with_trace(r.trace)
                })
                .collect();
            let wire = Datagram::PushData {
                token: 0,
                eui: GatewayEui(GATEWAY_EUI_BASE + gw as u64),
                rxpk,
            }
            .encode();
            let tmst = find_tmst_patches(&wire)?;
            assert_eq!(tmst.len(), chunk.len(), "one tmst field per rxpk");
            datagrams.push(EncodedDatagram {
                wire,
                tmst,
                pkts: chunk.len() as u32,
                first_tmst: chunk[0].tmst,
            });
        }
    }
    // Interleave gateways chronologically so the served timestamp
    // stream is (nearly) monotone within an epoch.
    datagrams.sort_by_key(|d| d.first_tmst);
    Ok(FleetStream {
        pkts_per_epoch: datagrams.iter().map(|d| d.pkts as u64).sum(),
        datagrams,
        epoch_span_us: (max_end + 1_000_000).max(min_window_us + 1_000_000),
    })
}

/// Locate every `"tmst":<10 digits>` value in an encoded PUSH_DATA.
fn find_tmst_patches(wire: &[u8]) -> io::Result<Vec<(usize, u64)>> {
    const KEY: &[u8] = b"\"tmst\":";
    let mut out = Vec::new();
    let mut i = 0;
    while i + KEY.len() < wire.len() {
        if &wire[i..i + KEY.len()] == KEY {
            let start = i + KEY.len();
            let mut end = start;
            while end < wire.len() && wire[end].is_ascii_digit() {
                end += 1;
            }
            let v = std::str::from_utf8(&wire[start..end])
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|_| end - start == 10)
                .ok_or_else(|| io::Error::other("tmst must be 10 digits for patching"))?;
            out.push((start, v));
            i = end;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// The ACK window: the tokens of datagrams waiting for their PUSH_ACK,
/// oldest first, and those whose slot the sender gave up.
#[derive(Default)]
struct AckWindow {
    waiting: VecDeque<u16>,
    given_up: HashSet<u16>,
}

impl AckWindow {
    /// Take a slot for `token`, which is about to be sent. A token seen
    /// again has come round the 16-bit space: whatever it meant is gone.
    fn hold(&mut self, token: u16) {
        self.given_up.remove(&token);
        self.waiting.push_back(token);
    }

    /// Stop waiting for the oldest datagram (its ACK presumed lost).
    fn give_up_oldest(&mut self) {
        if let Some(token) = self.waiting.pop_front() {
            self.given_up.insert(token);
        }
    }

    /// A PUSH_ACK for `token` arrived: free its slot, or, if the sender
    /// already gave that slot up, retire the token. Whether it counts.
    fn ack(&mut self, token: u16) -> bool {
        if self.given_up.remove(&token) {
            return false;
        }
        if let Some(at) = self.waiting.iter().position(|&t| t == token) {
            self.waiting.remove(at);
        }
        true
    }

    /// Read PUSH_ACKs from `socket`, whose read timeout is `STALL`,
    /// until fewer than `limit` datagrams wait for one, giving up the
    /// oldest slot whenever `STALL` passes with none freed. Returns the
    /// ACKs that counted.
    fn wait_below(&mut self, socket: &UdpSocket, limit: usize) -> u64 {
        let mut counted = 0;
        let mut buf = [0u8; 64];
        let mut stall = Instant::now();
        while self.waiting.len() >= limit {
            // A timeout, a stray datagram or a reported ICMP error frees
            // nothing; only the stall clock moves on.
            if let Ok(4..) = socket.recv(&mut buf) {
                if buf[3] == 0x01 && self.ack(u16::from_be_bytes([buf[1], buf[2]])) {
                    counted += 1;
                    stall = Instant::now();
                    continue;
                }
            }
            if stall.elapsed() >= STALL {
                self.give_up_oldest();
                stall = Instant::now();
            }
        }
        counted
    }
}

fn patch_tmst(wire: &mut [u8], at: usize, value: u64) {
    debug_assert!((TMST_BASE_US..=TMST_MAX_US).contains(&value));
    let mut v = value;
    for k in (0..10).rev() {
        wire[at + k] = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Run the generator against `cfg.server`.
pub fn run(cfg: &LoadgenConfig, server_window_us: u64) -> io::Result<LoadgenReport> {
    let fleet = build_fleet(cfg, server_window_us)?;
    run_stream(cfg, fleet)
}

/// Fetch channel plans from the Master at `addr` every 20 ms, once at
/// least, until `stop`: the control plane heartbeats while the data
/// plane is under load. Returns (fetches, answered from cache).
fn fetch_plans(addr: SocketAddr, stop: &AtomicBool) -> (u64, u64) {
    let mut client = ResilientMasterClient::new(addr, "loadgen-op", BackoffPolicy::default());
    let (mut fetches, mut cached) = (0, 0);
    loop {
        if let Ok((_, source)) = client.channel_plan() {
            fetches += 1;
            cached += u64::from(source == PlanSource::Cached);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    client.shutdown();
    (fetches, cached)
}

/// Run with a pre-built fleet stream (lets a harness reuse the
/// expensive simulation across runs).
pub fn run_stream(cfg: &LoadgenConfig, mut fleet: FleetStream) -> io::Result<LoadgenReport> {
    let epochs = cfg.epochs.min(fleet.max_epochs());
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.connect(cfg.server)?;
    socket.set_read_timeout(Some(STALL))?;

    let stop = Arc::new(AtomicBool::new(false));
    let plans = cfg
        .master
        .map(|addr| {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("loadgen-plans".into())
                .spawn(move || fetch_plans(addr, &stop))
        })
        .transpose()?;

    // The send loop: patch and send, inside the ACK window.
    let started = Instant::now();
    let mut window = AckWindow::default();
    let (mut sent_pkts, mut sent_datagrams, mut acks) = (0u64, 0u64, 0u64);
    for epoch in 0..epochs {
        let shift = epoch as u64 * fleet.epoch_span_us;
        for d in fleet.datagrams.iter_mut() {
            acks += window.wait_below(&socket, WINDOW);
            let token = (sent_datagrams & 0xFFFF) as u16;
            window.hold(token);
            d.wire[1..3].copy_from_slice(&token.to_be_bytes());
            for &(at, base) in &d.tmst {
                patch_tmst(&mut d.wire, at, base + shift);
            }
            socket.send(&d.wire)?;
            sent_datagrams += 1;
            sent_pkts += d.pkts as u64;
        }
    }
    let elapsed = started.elapsed();
    // The ACKs of the last window.
    acks += window.wait_below(&socket, 1);

    stop.store(true, Ordering::SeqCst);
    let (plan_fetches, plan_cached) = match plans {
        Some(thread) => thread
            .join()
            .map_err(|_| io::Error::other("plan fetcher panicked"))?,
        None => (0, 0),
    };
    Ok(LoadgenReport {
        sent_datagrams,
        sent_pkts,
        epochs_run: epochs,
        elapsed,
        acks,
        plan_fetches,
        plan_cached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LoadgenConfig {
        LoadgenConfig {
            devices: 16,
            gateways: 2,
            replicas: 1,
            batch: 8,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn fleet_stream_is_patchable_and_decodable() {
        let fleet = build_fleet(&cfg(), 1_000_000).unwrap();
        assert!(fleet.pkts_per_epoch() > 0);
        assert!(fleet.max_epochs() > 100);
        for d in &fleet.datagrams {
            // Every pre-encoded datagram decodes with the reference
            // codec and owns one patch slot per rxpk.
            match Datagram::decode(&d.wire) {
                Some(Datagram::PushData { rxpk, .. }) => {
                    assert_eq!(rxpk.len() as u32, d.pkts);
                    for rx in &rxpk {
                        assert!(rx.tmst >= TMST_BASE_US);
                        assert!(rx.phy_payload().is_some(), "payload b64 round-trips");
                    }
                }
                other => panic!("not PUSH_DATA: {other:?}"),
            }
        }
    }

    #[test]
    fn tmst_patching_shifts_every_timestamp() {
        let fleet = build_fleet(&cfg(), 1_000_000).unwrap();
        let mut d = fleet
            .datagrams
            .into_iter()
            .next()
            .expect("at least one datagram");
        let shift = 123_456_789;
        for &(at, base) in &d.tmst {
            patch_tmst(&mut d.wire, at, base + shift);
        }
        match Datagram::decode(&d.wire) {
            Some(Datagram::PushData { rxpk, .. }) => {
                for rx in &rxpk {
                    assert!(rx.tmst >= TMST_BASE_US + shift);
                }
            }
            other => panic!("patched datagram no longer decodes: {other:?}"),
        }
    }

    #[test]
    fn replicas_multiply_packets_not_time() {
        let one = build_fleet(&cfg(), 1_000_000).unwrap();
        let two = build_fleet(
            &LoadgenConfig {
                replicas: 2,
                ..cfg()
            },
            1_000_000,
        )
        .unwrap();
        assert_eq!(two.pkts_per_epoch(), 2 * one.pkts_per_epoch());
        assert_eq!(two.epoch_span_us, one.epoch_span_us);
    }

    /// A PUSH_DATA sink that acknowledges every fourth datagram `delay`
    /// late and the others at once, until `stop`. Returns the most
    /// datagrams it ever held unacknowledged.
    fn late_acking_daemon(socket: UdpSocket, stop: &AtomicBool, delay: Duration) -> usize {
        socket
            .set_read_timeout(Some(Duration::from_millis(1)))
            .expect("timeout");
        let mut late: VecDeque<(Instant, SocketAddr, [u8; 4])> = VecDeque::new();
        let (mut received, mut most) = (0u64, 0usize);
        let mut buf = [0u8; 2_048];
        while !stop.load(Ordering::SeqCst) {
            while late
                .front()
                .is_some_and(|&(due, _, _)| due <= Instant::now())
            {
                let (_, peer, ack) = late.pop_front().expect("front");
                socket.send_to(&ack, peer).expect("late ack");
            }
            let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                continue;
            };
            if len < 12 || buf[3] != 0x00 {
                continue;
            }
            received += 1;
            let ack = [buf[0], buf[1], buf[2], 0x01];
            if received.is_multiple_of(4) {
                late.push_back((Instant::now() + delay, peer, ack));
                most = most.max(late.len());
            } else {
                socket.send_to(&ack, peer).expect("ack");
            }
        }
        most
    }

    #[test]
    fn a_late_ack_frees_no_second_window_slot() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let server = socket.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || late_acking_daemon(socket, &stop, Duration::from_millis(10)))
        };
        // Every fourth ACK comes after the 5 ms stall that gives its slot
        // up. Were the late ACK to free the slot a second time, the
        // window would widen by one each time.
        let load = LoadgenConfig {
            server,
            batch: 1,
            epochs: 25,
            ..cfg()
        };
        let report = run(&load, 1_000_000).expect("runs");
        stop.store(true, Ordering::SeqCst);
        let most = daemon.join().expect("daemon thread");
        assert!(report.sent_datagrams >= 1_000, "{report:?}");
        // The window, and the slots given up whose ACK is still to come.
        assert!(
            most <= 2 * WINDOW,
            "{most} datagrams unacknowledged at once with a window of {WINDOW}"
        );
    }

    #[test]
    fn a_slot_is_freed_once_and_a_given_up_token_retires_on_its_ack() {
        let mut w = AckWindow::default();
        for token in [1, 2, 3] {
            w.hold(token);
        }
        w.give_up_oldest();
        assert_eq!(w.waiting, [2, 3]);
        assert!(
            !w.ack(1),
            "an ACK after its slot was given up does not count"
        );
        assert!(w.given_up.is_empty(), "it retires the token");
        assert!(w.ack(3));
        assert_eq!(w.waiting, [2]);
        // Token 2 is given up, then comes round the 16-bit space again:
        // its next ACK answers the new datagram and counts.
        w.give_up_oldest();
        w.hold(2);
        assert!(w.given_up.is_empty());
        assert!(w.ack(2));
        assert!(w.waiting.is_empty());
    }

    #[test]
    fn a_silent_server_costs_one_stall_a_datagram_past_the_window() {
        // Bound and never read: no ACK, and no ICMP error either.
        let silent = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let load = LoadgenConfig {
            server: silent.local_addr().expect("addr"),
            batch: 4,
            epochs: 1,
            ..cfg()
        };
        let started = Instant::now();
        let report = run(&load, 1_000_000).expect("runs");
        let took = started.elapsed();
        let sent = report.sent_datagrams as u32;
        assert!(sent as usize > WINDOW, "{report:?}");
        assert_eq!(report.acks, 0);
        // Every datagram's slot is given up after one stall: those past
        // the window while sending, the last window's at the end.
        assert!(took >= STALL * sent, "{took:?} for {sent} datagrams");
        assert!(
            took < STALL * sent * 20 + Duration::from_secs(5),
            "{took:?}"
        );
    }

    #[test]
    fn epoch_span_clears_the_dedup_window() {
        let window = 60_000_000;
        let fleet = build_fleet(&cfg(), window).unwrap();
        assert!(fleet.epoch_span_us > window);
    }
}
