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

use alphawan_system::gateway::forwarder::b64;
use alphawan_system::gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use alphawan_system::gateway::forwarder::fast::{parse_push_data, FastRx};
use alphawan_system::lora_mac::device::DevAddr;
use alphawan_system::lora_mac::frame::PhyPayload;
use alphawan_system::netserver::dedup::{shard_of, Deduplicator, UplinkCopy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};
use svc::runtime::Decision;
use svc::{replay_divergence, NetServerConfig, NetServerDaemon};

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

/// The decisions a daemon of `shards` shards must log for `wires`
/// received in order, by the reference decoder and an in-process
/// deduplicator per shard; and how many wires the reference rejects.
fn reference_decisions(
    wires: &[Vec<u8>],
    shards: usize,
    window_us: u64,
) -> (Vec<Vec<Decision>>, u64) {
    let mut dedups: Vec<Deduplicator> = (0..shards).map(|_| Deduplicator::new(window_us)).collect();
    let mut logs: Vec<Vec<Decision>> = vec![Vec::new(); shards];
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
            let shard = shard_of(DevAddr(dev), shards);
            let outcome = dedups[shard].offer(UplinkCopy {
                dev_addr: DevAddr(dev),
                fcnt,
                gw_id: gw,
                snr_db: rx.lsnr as f32 as f64,
                received_us: rx.tmst,
                trace: rx.trce,
            });
            logs[shard].push(Decision {
                dev,
                fcnt,
                gw: gw as u16,
                t_us: rx.tmst,
                outcome,
            });
        }
    }
    (logs, rejected)
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

    let cfg = NetServerConfig::default();
    let shards = cfg.shards;
    let daemon = NetServerDaemon::start(cfg, None).expect("daemon starts");
    let (expected, rejected) = reference_decisions(&wires, shards, daemon.window_us());
    assert_eq!(rejected as usize, cuts.len());
    assert!(expected.iter().all(|log| log.len() > 100));

    // One receiver thread and one sender: the daemon sees the wires in
    // order. A few at a time, so its socket buffer never sheds.
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let wait = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut sent = 0u64;
    for burst in wires.chunks(16) {
        for wire in burst {
            // An empty datagram is legal UDP; the daemon counts it.
            socket.send_to(wire, daemon.addr()).expect("send");
        }
        sent += burst.len() as u64;
        wait("datagrams received", &|| {
            daemon.counter("svc_datagrams_total") == sent
        });
    }
    let decided = |logs: &[Vec<Decision>]| logs.iter().map(Vec::len).sum::<usize>();
    wait("decisions logged", &|| {
        decided(&daemon.decisions()) == decided(&expected)
    });

    let logs = daemon.decisions();
    assert_eq!(logs, expected);
    assert_eq!(replay_divergence(&logs, daemon.window_us()), 0);
    assert_eq!(daemon.counter("svc_malformed_total"), rejected);
    assert_eq!(daemon.decisions_dropped(), 0);
    daemon.shutdown();
}
