//! The ingest fast path, pinned where tier-1 runs.
//!
//! `gateway::forwarder::fast::parse_push_data` is the first thing every
//! rxpk of every gateway crosses in `netserverd`. Its own crate holds
//! it to the byte-at-a-time scanner it replaced on hundreds of
//! thousands of mutated wires; here it is held to the *reference
//! decoder* (`Datagram::decode`, a full JSON tree) — on codec-generated
//! datagrams of every size, on a wire damaged at every byte, and
//! through a live daemon whose decisions must be those of an
//! in-process deduplicator fed by the reference decoder.
//!
//! The daemon takes its socket a *drain* at a time (every datagram the
//! socket holds in one `recvmmsg`, ACKs by one `sendmmsg`, then the
//! drain's packets decided in the same thread), so the same holds for
//! bursts: what a burst of every kind of datagram is ACKed, decided and
//! counted as must be what the datagrams give one by one, over IPv4 and
//! IPv6; delivery reordered by more than the dedup window must be
//! decided as one deduplicator decides it; and under a flood the daemon
//! cannot keep up with no ACKed packet may go undecided.

use alphawan_system::gateway::forwarder::b64;
use alphawan_system::gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket, TxPacket};
use alphawan_system::gateway::forwarder::fast::{parse_push_data, FastRx};
use alphawan_system::lora_mac::device::DevAddr;
use alphawan_system::lora_mac::frame::PhyPayload;
use alphawan_system::netserver::dedup::{DedupOutcome, Deduplicator, UplinkCopy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use svc::runtime::{parse_decisions, Decision};
use svc::{http_get, replay_divergence, NetServerConfig, NetServerDaemon};

/// One rxpk in the codec's spelling. Payloads cover data frames,
/// join-request-shaped frames (23 bytes, no DevAddr to key on) and
/// frames shorter than the 12 bytes a DevAddr + FCnt need.
fn rxpk(rng: &mut StdRng, lsnr_tenths: i32) -> RxPacket {
    let payload: Vec<u8> = match rng.gen_range(0..4u8) {
        0 => vec![0u8; 23],
        1 => (0..rng.gen_range(0..12usize))
            .map(|_| rng.gen_range(0..=255u8))
            .collect(),
        _ => {
            // A few hundred devices and counters, so copies collide
            // and the deduplicator has duplicates and late frames.
            let mut p = vec![0x40];
            p.extend_from_slice(&(0x2601_0000u32 + rng.gen_range(0..300u32)).to_le_bytes());
            p.push(0);
            p.extend_from_slice(&rng.gen_range(0..4u16).to_le_bytes());
            p.extend((0..rng.gen_range(4..36usize)).map(|_| rng.gen_range(0..=255u8)));
            p
        }
    };
    RxPacket {
        tmst: rng.gen_range(0..5_000_000u64),
        freq: rng.gen_range(902.0..928.0),
        chan: rng.gen_range(0..8),
        rfch: rng.gen_range(0..2),
        stat: 1,
        modu: "LORA".to_string(),
        datr: "SF7BW125".to_string(),
        codr: "4/5".to_string(),
        rssi: rng.gen_range(-140..-20),
        lsnr: lsnr_tenths as f64 / 10.0,
        size: payload.len(),
        data: b64::encode(&payload),
        trce: rng.gen_range(0..1_000u64),
    }
}

/// Codec-generated PUSH_DATA with 0, 1, …, 64 rxpk from four gateways,
/// walking the SNR range `-30.0..=15.0` in tenths.
fn codec_wires(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut tenths = (-300..=150).cycle();
    (0..=64usize)
        .map(|n| {
            Datagram::PushData {
                token: rng.gen_range(0..=u16::MAX),
                eui: GatewayEui(0xAA00 + rng.gen_range(0..4u64)),
                rxpk: (0..n)
                    .map(|_| rxpk(rng, tenths.next().expect("cycles")))
                    .collect(),
            }
            .encode()
        })
        .collect()
}

/// What the reference decoder makes of a wire, in the fast parser's
/// terms: `None` where it rejects the datagram.
fn reference(wire: &[u8]) -> Option<(u16, u64, Vec<FastRx>)> {
    let Some(Datagram::PushData { token, eui, rxpk }) = Datagram::decode(wire) else {
        return None;
    };
    let rxs = rxpk
        .iter()
        .map(|r| {
            let payload = r.phy_payload()?;
            Some(FastRx {
                tmst: r.tmst,
                lsnr: r.lsnr,
                trce: r.trce,
                dev_addr: PhyPayload::peek_dev_addr(&payload).map(|a| a.0),
                fcnt: PhyPayload::peek_fcnt(&payload),
            })
        })
        .collect::<Option<Vec<FastRx>>>()?;
    Some((token, eui.0, rxs))
}

/// A [`FastRx`] with its SNR as bits, so equality is identity.
type RxBits = (u64, u64, u64, Option<u32>, Option<u16>);

fn bits(rxs: &[FastRx]) -> Vec<RxBits> {
    rxs.iter()
        .map(|r| (r.tmst, r.lsnr.to_bits(), r.trce, r.dev_addr, r.fcnt))
        .collect()
}

#[test]
fn fast_parse_equals_the_reference_decoder_on_codec_datagrams() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let (mut keyed, mut unkeyed) = (0usize, 0usize);
    for wire in codec_wires(&mut rng) {
        out.clear();
        let head = parse_push_data(&wire, &mut out, &mut scratch).expect("codec wire parses");
        let (token, eui, rxs) = reference(&wire).expect("codec wire decodes");
        assert_eq!((head.token, head.eui, head.count), (token, eui, rxs.len()));
        assert_eq!(bits(&out), bits(&rxs));
        keyed += out.iter().filter(|r| r.dev_addr.is_some()).count();
        unkeyed += out.iter().filter(|r| r.dev_addr.is_none()).count();
    }
    assert!(
        keyed > 500 && unkeyed > 500,
        "{keyed} keyed, {unkeyed} unkeyed"
    );
}

/// A valid 3-rxpk wire cut at every byte offset.
fn truncations(wire: &[u8]) -> Vec<Vec<u8>> {
    (0..wire.len()).map(|n| wire[..n].to_vec()).collect()
}

fn three_rxpk_wire() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(3);
    let wire = Datagram::PushData {
        token: 0x0102,
        eui: GatewayEui(0xAA00),
        rxpk: vec![rxpk(&mut rng, -123), rxpk(&mut rng, 0), rxpk(&mut rng, 97)],
    }
    .encode();
    assert_eq!(reference(&wire).expect("decodes").2.len(), 3);
    wire
}

#[test]
fn a_damaged_wire_never_panics_and_never_grows_packets() {
    let wire = three_rxpk_wire();
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    for cut in truncations(&wire) {
        out.clear();
        let parsed = parse_push_data(&cut, &mut out, &mut scratch);
        assert!(
            parsed.is_err(),
            "a proper prefix parsed: {} bytes",
            cut.len()
        );
        assert!(reference(&cut).is_none());
    }
    let mut damaged = wire.clone();
    for at in 0..wire.len() {
        for &c in b"\"\\=+-.e0,:{}[]" {
            damaged[at] = c;
            out.clear();
            if let Ok(head) = parse_push_data(&damaged, &mut out, &mut scratch) {
                // One byte cannot make a fourth rxpk, and where the
                // reference decoder also takes the wire the two agree.
                assert!(head.count <= 3, "byte {at} := {:?}", c as char);
                if let Some((token, eui, rxs)) = reference(&damaged) {
                    assert_eq!((head.token, head.eui), (token, eui));
                    assert_eq!(bits(&out), bits(&rxs), "byte {at} := {:?}", c as char);
                }
            }
        }
        damaged[at] = wire[at];
    }
}

/// Poll `done` every millisecond; panic with `what` after 20 s.
fn wait_until(what: &str, done: &dyn Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The decisions a daemon must log for `wires` received in order, by
/// the reference decoder and one in-process deduplicator; and how many
/// wires the reference rejects.
fn reference_decisions(wires: &[Vec<u8>], window_us: u64) -> (Vec<Decision>, u64) {
    let mut dedup = Deduplicator::new(window_us);
    let mut log = Vec::new();
    let mut gateways: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    for wire in wires {
        let Some((_, eui, rxs)) = reference(wire) else {
            rejected += 1;
            continue;
        };
        // Dense ids in order of first sight, as the daemon hands out.
        let gw = gateways.iter().position(|&g| g == eui).unwrap_or_else(|| {
            gateways.push(eui);
            gateways.len() - 1
        });
        for rx in rxs {
            let (Some(dev), Some(fcnt)) = (rx.dev_addr, rx.fcnt) else {
                continue;
            };
            let outcome = dedup.offer(UplinkCopy {
                dev_addr: DevAddr(dev),
                fcnt,
                gw_id: gw,
                snr_db: rx.lsnr as f32 as f64,
                received_us: rx.tmst,
                trace: rx.trce,
            });
            log.push(Decision {
                dev,
                fcnt,
                gw: gw as u16,
                t_us: rx.tmst,
                outcome,
            });
        }
    }
    (log, rejected)
}

/// Send `wires` to `daemon` sixteen at a time, so its socket buffer
/// never sheds, waiting after each burst until it has counted them.
fn send_in_order(daemon: &NetServerDaemon, wires: &[Vec<u8>]) {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let mut sent = 0u64;
    for burst in wires.chunks(16) {
        for wire in burst {
            // An empty datagram is legal UDP; the daemon counts it.
            socket.send_to(wire, daemon.addr()).expect("send");
        }
        sent += burst.len() as u64;
        wait_until("datagrams received", &|| {
            daemon.counter("svc_datagrams_total") == sent
        });
    }
}

#[test]
fn a_live_daemon_decides_what_the_reference_decoder_would() {
    let mut rng = StdRng::seed_from_u64(15);
    // Every codec datagram, and between them the wire cut at every
    // offset: malformed datagrams must not disturb what follows. (The
    // byte-replaced wires stay out: the fast parser does not validate
    // the strings it skips, so it takes some the reference rejects.)
    let cuts = truncations(&three_rxpk_wire());
    let codec = codec_wires(&mut rng);
    let mut bursts = cuts.chunks(cuts.len().div_ceil(codec.len()));
    let mut wires = Vec::new();
    for wire in codec {
        wires.push(wire);
        wires.extend_from_slice(bursts.next().unwrap_or_default());
    }

    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let (expected, rejected) = reference_decisions(&wires, daemon.window_us());
    assert_eq!(rejected as usize, cuts.len());
    assert!(expected.len() > 300);

    // One ingest thread and one sender: the daemon sees the wires in
    // order.
    send_in_order(&daemon, &wires);

    // A drain is counted after it is decided and logged.
    let logs = daemon.decisions();
    assert_eq!(logs, [expected]);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    assert_eq!(daemon.counter("svc_malformed_total"), rejected);
    assert_eq!(daemon.decisions_dropped(), 0);
    daemon.shutdown();
}

#[test]
fn delivery_reordered_past_the_window_is_decided_as_by_one_deduplicator() {
    // Sixteen devices whose backhauls lag by 0, ¼, ½, … 3¾ dedup
    // windows, each frame heard by two gateways, each round's copies in
    // shuffled order: a copy often arrives more than a window behind
    // the newest copy of another device. The daemon has one window
    // anchor, so it must judge every copy against the newest copy of
    // *any* device, as one deduplicator does.
    let mut rng = StdRng::seed_from_u64(41);
    let window = NetServerConfig::default().dedup_window_us;
    let mut wires = Vec::new();
    for round in 0..24u64 {
        let mut copies: Vec<(u32, u64)> = (0..16u32)
            .flat_map(|dev| [(dev, 0xCC00), (dev, 0xCC01)])
            .collect();
        for i in (1..copies.len()).rev() {
            copies.swap(i, rng.gen_range(0..=i));
        }
        for (dev, eui) in copies {
            let mut phy = vec![0x40];
            phy.extend_from_slice(&(0x2601_0000 + dev).to_le_bytes());
            phy.push(0);
            phy.extend_from_slice(&(round as u16).to_le_bytes());
            phy.extend_from_slice(&[0xA5; 4]);
            let mut rx = rxpk(&mut rng, 50);
            rx.tmst = 10 * window + round * window / 2 - u64::from(dev) * window / 4;
            rx.size = phy.len();
            rx.data = b64::encode(&phy);
            wires.push(
                Datagram::PushData {
                    token: wires.len() as u16,
                    eui: GatewayEui(eui),
                    rxpk: vec![rx],
                }
                .encode(),
            );
        }
    }
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let (expected, _) = reference_decisions(&wires, window);
    let count = |o| expected.iter().filter(|d| d.outcome == o).count() as u64;
    let (new, duplicate, late) = (
        count(DedupOutcome::New),
        count(DedupOutcome::Duplicate),
        count(DedupOutcome::Late),
    );
    assert!(
        new > 0 && duplicate > 0 && late > 100,
        "{new}/{duplicate}/{late}"
    );

    send_in_order(&daemon, &wires);
    let stats = daemon.dedup_stats();
    assert_eq!(
        (stats.new, stats.duplicate, stats.late),
        (new, duplicate, late)
    );
    assert_eq!(daemon.decisions(), [expected]);
    daemon.shutdown();
}

/// A well-formed PUSH_DATA of exactly the largest UDP payload, 65 507
/// bytes: a receive slot one byte short would cut its closing brace.
fn largest_push_data(rng: &mut StdRng) -> Vec<u8> {
    const LARGEST: usize = 65_507;
    let encode = |rxs: &[RxPacket]| {
        Datagram::PushData {
            token: 0,
            eui: GatewayEui(0xAA01),
            rxpk: rxs.to_vec(),
        }
        .encode()
    };
    let mut rxs = Vec::new();
    while encode(&rxs).len() < LARGEST - 1_000 {
        rxs.push(rxpk(rng, -55));
    }
    // The last rxpk makes up the length: Base64 grows four characters
    // per three payload bytes, the digits of `tmst` fill in between.
    let mut last = rxpk(rng, -55);
    for payload in 12..1_000usize {
        let mut phy = vec![0x40, 0x09, 0x00, 0x01, 0x26, 0x00, 0x07, 0x00];
        phy.resize(payload, 0x5A);
        last.size = phy.len();
        last.data = b64::encode(&phy);
        for tmst in [1, 10, 100, 1_000] {
            last.tmst = tmst;
            rxs.push(last.clone());
            let wire = encode(&rxs);
            rxs.pop();
            if wire.len() == LARGEST {
                return wire;
            }
        }
    }
    panic!("no rxpk list encodes to {LARGEST} bytes");
}

/// An rxpk whose payload carries a DevAddr and an FCnt.
fn keyed_rxpk(rng: &mut StdRng) -> RxPacket {
    loop {
        let rx = rxpk(rng, 50);
        let payload = rx.phy_payload().expect("codec payload");
        if PhyPayload::peek_dev_addr(&payload).is_some()
            && PhyPayload::peek_fcnt(&payload).is_some()
        {
            return rx;
        }
    }
}

/// What the daemon's counters must read after `wires`, datagram by
/// datagram, and the ACKs it must have sent, in order.
#[derive(Debug, Default, PartialEq)]
struct PerDatagram {
    datagrams: u64,
    pkts: u64,
    unkeyed: u64,
    push_acks: u64,
    pull_data: u64,
    tx_acks: u64,
    malformed: u64,
    acks: Vec<[u8; 4]>,
}

impl PerDatagram {
    fn of(wires: &[Vec<u8>]) -> PerDatagram {
        let mut c = PerDatagram::default();
        for wire in wires {
            let ack = |kind: u8| [wire[0], wire[1], wire[2], kind];
            match wire.get(3) {
                Some(0x00) => {
                    c.datagrams += 1;
                    match reference(wire) {
                        Some((_, _, rxs)) => {
                            let keyed = rxs.iter().filter(|r| r.dev_addr.is_some()).count();
                            c.pkts += keyed as u64;
                            c.unkeyed += (rxs.len() - keyed) as u64;
                            c.push_acks += 1;
                            c.acks.push(ack(0x01));
                        }
                        None => c.malformed += 1,
                    }
                }
                Some(0x02) if wire.len() >= 12 => {
                    c.pull_data += 1;
                    c.acks.push(ack(0x04));
                }
                Some(0x05) => c.tx_acks += 1,
                _ => {
                    c.datagrams += 1;
                    c.malformed += 1;
                }
            }
        }
        c
    }

    /// The datagrams counted under some name: in this file, all.
    fn counted(&self) -> u64 {
        self.datagrams + self.pull_data + self.tx_acks
    }

    fn read_from(daemon: &NetServerDaemon) -> PerDatagram {
        PerDatagram {
            datagrams: daemon.counter("svc_datagrams_total"),
            pkts: daemon.counter("svc_pkts_total"),
            unkeyed: daemon.counter("svc_pkts_unkeyed_total"),
            push_acks: daemon.counter("svc_push_ack_total"),
            pull_data: daemon.counter("svc_pull_data_total"),
            tx_acks: daemon.counter("svc_tx_ack_total"),
            malformed: daemon.counter("svc_malformed_total"),
            acks: Vec::new(),
        }
    }
}

#[test]
fn a_burst_is_acked_decided_and_counted_as_its_datagrams_one_by_one() {
    /// `svc::mmsg::RING`: the datagrams one drain takes at most.
    const RING: usize = 16;
    let mut rng = StdRng::seed_from_u64(16);
    // Every kind of datagram between the codec's PUSH_DATA of 0..=64
    // rxpk: keepalives, downlink verdicts, wires cut short, a kind
    // nobody speaks, a PULL_DATA too short to name its gateway.
    let cuts = truncations(&three_rxpk_wire());
    let mut wires = Vec::new();
    for (i, wire) in codec_wires(&mut rng).into_iter().enumerate() {
        let eui = GatewayEui(0xAA00 + (i as u64 % 4));
        wires.push(wire);
        wires.push(Datagram::PullData { token: 0, eui }.encode());
        wires.push(cuts[(i * 7) % cuts.len()].clone());
        wires.push(Datagram::TxAck { token: 0, eui }.encode());
        wires.push(vec![2, 0, 0, 0x7f, 1, 2, 3]);
        wires.push(vec![2, 0, 0, 0x02, 1, 2, 3]);
    }
    wires.push(largest_push_data(&mut rng));
    // The token is the position in the stream, so every ACK names the
    // one datagram it answers.
    for (i, wire) in wires.iter_mut().enumerate() {
        if let Some(token) = wire.get_mut(1..3) {
            token.copy_from_slice(&(i as u16).to_be_bytes());
        }
    }
    let expected = PerDatagram::of(&wires);
    assert!(expected.push_acks == 66 && expected.pull_data == 65 && expected.tx_acks == 65);
    assert!(expected.malformed > 130, "{expected:?}");
    assert_eq!(expected.counted(), wires.len() as u64);

    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let (decisions, _) = reference_decisions(&wires, daemon.window_us());

    // Back to back and without reading an ACK, in bursts the daemon's
    // socket buffer holds: up to 48 datagrams or 64 KiB, so the small
    // wires at the head of the stream make bursts longer than the ring
    // and the largest datagram is a burst of its own.
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    socket.connect(daemon.addr()).expect("connect");
    let (mut sent, mut longest) = (0usize, 0usize);
    while sent < wires.len() {
        let mut bytes = 0;
        let mut burst = 0;
        while let Some(wire) = wires.get(sent + burst) {
            if burst > 0 && (burst == 48 || bytes + wire.len() > 65_536) {
                break;
            }
            socket.send(wire).expect("send");
            bytes += wire.len();
            burst += 1;
        }
        sent += burst;
        longest = longest.max(burst);
        wait_until("burst received", &|| {
            PerDatagram::read_from(&daemon).counted() == sent as u64
        });
    }
    assert!(longest > 2 * RING, "longest burst: {longest} datagrams");

    assert_eq!(daemon.decisions(), [decisions]);
    assert_eq!(daemon.decisions_dropped(), 0);
    assert_eq!(daemon.counter("svc_recv_errors_total"), 0);
    let mut counted = PerDatagram::read_from(&daemon);
    // One ACK per well-formed PUSH_DATA and PULL_DATA, with its token
    // and kind, in the order sent; nothing for the rest.
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    while let Ok(len) = socket.recv(&mut buf) {
        counted
            .acks
            .push(buf[..len].try_into().expect("four bytes"));
    }
    assert_eq!(counted, expected);

    // Every datagram, of whatever kind, was part of exactly one drain.
    let metrics = http_get(daemon.metrics_addr(), "/metrics").expect("scrape");
    let drained = metrics
        .lines()
        .find_map(|l| l.strip_prefix("svc_drain_datagrams_sum "))
        .expect("drain histogram rendered");
    assert_eq!(drained.parse::<usize>().expect("a count"), wires.len());
    assert!(metrics.contains("svc_drain_datagrams_bucket{le=\"16\"}"));
    daemon.shutdown();
}

#[test]
fn an_ipv6_gateway_gets_its_downlink_back() {
    let v6 = "[::1]:0".parse().expect("address");
    if UdpSocket::bind(v6).is_err() {
        // No IPv6 loopback on this host: nothing to check.
        return;
    }
    let cfg = NetServerConfig {
        bind: v6,
        ..NetServerConfig::default()
    };
    let daemon = NetServerDaemon::start(cfg, None).expect("daemon starts");
    let gateway = UdpSocket::bind(v6).expect("bind");
    gateway
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let eui = GatewayEui(0xAA06);
    let pull = Datagram::PullData { token: 0x0601, eui }.encode();
    gateway.send_to(&pull, daemon.addr()).expect("send");
    let mut buf = [0u8; 1_024];
    let (len, from) = gateway.recv_from(&mut buf).expect("PULL_ACK");
    assert_eq!(
        (&buf[..len], from),
        (&[2, 0x06, 0x01, 0x04][..], daemon.addr())
    );
    // The route is the `sockaddr_in6` the kernel reported for the
    // PULL_DATA: the downlink has to find the same socket.
    let txpk = TxPacket {
        tmst: 1_000_000,
        freq: 923.2,
        datr: "SF9BW125".into(),
        powe: 14,
        size: 3,
        data: "AQID".into(),
    };
    assert!(daemon.send_downlink(eui.0, 77, txpk.clone()).expect("sent"));
    let (len, _) = gateway.recv_from(&mut buf).expect("PULL_RESP");
    match Datagram::decode(&buf[..len]) {
        Some(Datagram::PullResp {
            token: 77,
            txpk: got,
        }) => assert_eq!(got.data, txpk.data),
        other => panic!("not the PULL_RESP sent: {other:?}"),
    }
    daemon.shutdown();
}

#[test]
fn every_acked_packet_is_decided_under_a_flood() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 20_000;
    let started = Instant::now();
    // Four unpaced senders against one ingest thread: while it decides
    // a drain it is not reading, and the kernel sheds what does not fit
    // the socket buffer meanwhile.
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let mut rng = StdRng::seed_from_u64(17);
    let sending = AtomicBool::new(true);
    let acks_read = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..CLIENTS)
            .map(|c| {
                // One-rxpk datagrams of 64 devices, tokens counting up.
                let mut wires: Vec<Vec<u8>> = (0..64)
                    .map(|_| {
                        Datagram::PushData {
                            token: 0,
                            eui: GatewayEui(0xBB00 + c as u64),
                            rxpk: vec![keyed_rxpk(&mut rng)],
                        }
                        .encode()
                    })
                    .collect();
                let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
                socket.connect(daemon.addr()).expect("connect");
                let reader = socket.try_clone().expect("clone");
                reader
                    .set_read_timeout(Some(Duration::from_millis(100)))
                    .expect("timeout");
                let (sending, acks_read) = (&sending, &acks_read);
                scope.spawn(move || {
                    let mut buf = [0u8; 16];
                    loop {
                        match reader.recv(&mut buf) {
                            Ok(4) if buf[3] == 0x01 => {
                                acks_read.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => panic!("not a PUSH_ACK: {buf:?}"),
                            // Quiet for 100 ms after the daemon came to
                            // rest: no ACK is still on its way.
                            Err(_) if !sending.load(Ordering::SeqCst) => break,
                            Err(_) => {}
                        }
                    }
                });
                scope.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let wire = &mut wires[i as usize % 64];
                        wire[1..3].copy_from_slice(&(i as u16).to_be_bytes());
                        socket.send(wire).expect("send");
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().expect("sender");
        }
        // At rest: nothing new received for 100 ms, and everything
        // received is decided.
        let mut last = (u64::MAX, Instant::now());
        loop {
            assert!(started.elapsed() < Duration::from_secs(10), "wedged");
            let received = daemon.counter("svc_datagrams_total");
            if received != last.0 {
                last = (received, Instant::now());
            } else if last.1.elapsed() > Duration::from_millis(100)
                && daemon.dedup_stats().offered == daemon.counter("svc_pkts_total")
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        sending.store(false, Ordering::SeqCst);
    });

    let received = daemon.counter("svc_datagrams_total");
    let acked = daemon.counter("svc_push_ack_total");
    assert!(received > 0 && received <= CLIENTS as u64 * PER_CLIENT);
    // Every datagram is one keyed packet: each one ACKed is decided.
    assert_eq!(acked, received);
    assert_eq!(daemon.counter("svc_pkts_total"), acked);
    assert_eq!(daemon.dedup_stats().offered, acked);
    let read = acks_read.load(Ordering::Relaxed);
    assert!(read > 0 && read <= acked, "{read} ACKs read, {acked} sent");
    assert_eq!(daemon.counter("svc_malformed_total"), 0);
    assert_eq!(daemon.decisions_dropped(), 0);
    let logs = daemon.decisions();
    assert_eq!(logs.iter().map(Vec::len).sum::<usize>() as u64, acked);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    daemon.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "too slow");
}

#[test]
fn a_hostile_tmst_comes_back_exact() {
    // Around the 32-bit wrap, past 2^63, and the largest `tmst` the
    // fast parser takes; then a duplicate of the last frame and a late
    // copy of a new one, the window anchor being at `u64::MAX` by then.
    let tmsts = [
        (1u32, 0u16, (1u64 << 32) - 1),
        (2, 0, 1 << 32),
        (3, 0, (1 << 63) + 5),
        (4, 0, u64::MAX),
        (4, 0, u64::MAX),
        (5, 0, 1 << 32),
    ];
    let wire = Datagram::PushData {
        token: 1,
        eui: GatewayEui(0xCC01),
        rxpk: tmsts
            .iter()
            .map(|&(dev, fcnt, tmst)| {
                let mut phy = vec![0x40];
                phy.extend_from_slice(&(0x2601_0000 + dev).to_le_bytes());
                phy.push(0);
                phy.extend_from_slice(&fcnt.to_le_bytes());
                phy.extend_from_slice(&[0; 4]);
                let mut rx = keyed_rxpk(&mut StdRng::seed_from_u64(dev as u64));
                rx.size = phy.len();
                rx.data = b64::encode(&phy);
                rx.tmst = tmst;
                rx
            })
            .collect(),
    }
    .encode();
    let mut out = Vec::new();
    parse_push_data(&wire, &mut out, &mut Vec::new()).expect("parses");
    let mut past = wire.clone();
    let at = past
        .windows(20)
        .position(|w| w == b"18446744073709551615")
        .expect("u64::MAX");
    past[at + 19] = b'6';
    assert!(
        parse_push_data(&past, &mut out, &mut Vec::new()).is_err(),
        "u64::MAX is the largest tmst the fast parser takes"
    );

    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let (expected, _) = reference_decisions(std::slice::from_ref(&wire), daemon.window_us());
    send_in_order(&daemon, &[wire]);
    let scraped = http_get(daemon.metrics_addr(), "/decisions").expect("scrape");
    let logged = parse_decisions(&scraped).expect("parseable decision stream");
    let t_us: Vec<u64> = logged.iter().map(|d| d.t_us).collect();
    assert_eq!(t_us, tmsts.map(|(_, _, tmst)| tmst));
    let outcomes: Vec<DedupOutcome> = logged.iter().map(|d| d.outcome).collect();
    use DedupOutcome::{Duplicate, Late, New};
    assert_eq!(outcomes, [New, New, New, New, Duplicate, Late]);
    assert_eq!(logged, expected);
    let logs = [logged];
    assert_eq!(daemon.decisions(), logs);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    daemon.shutdown();
}
