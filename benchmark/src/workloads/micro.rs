//! Per-layer timings taken in isolation: each function drives one
//! layer's public entry point over a generated input and returns
//! nanoseconds per call. Run on the traced run only; every loop is
//! sized to about a tenth of a second.

use crate::harness::ns_per_call;
use gateway::config::GatewayConfig;
use gateway::forwarder::codec::Datagram;
use gateway::forwarder::fast::{parse_push_data, FastRx};
use gateway::profile::GatewayProfile;
use gateway::radio::{Gateway, LockOnOutcome, PacketAtGateway};
use lora_mac::device::{DevAddr, SessionKeys};
use lora_mac::frame::PhyPayload;
use lora_phy::airtime::PacketParams;
use lora_phy::channel::ChannelGrid;
use lora_phy::interference::capture_outcome;
use lora_phy::types::{Bandwidth, SpreadingFactor};
use netserver::dedup::{DedupOutcome, Deduplicator, UplinkCopy};
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's own generator, so inputs depend on
/// `--seed` only.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1).
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `gateway.admit_ns`, `gateway.end_ns`: a recorded lock-on / end
/// sequence replayed through `Gateway::on_lock_on` / `on_tx_end` on a
/// 16-decoder SX1302 listening to 8 channels. Packets arrive in groups
/// of 8 lock-ons followed by the 8 ends of the group before last, so
/// 8 to 16 decoders are held, a third of the packets are foreign, and
/// each group is timed as one block (one clock read per 8 calls).
pub fn gateway_admit_end(seed: u64, groups: usize) -> (f64, f64) {
    let chans = ChannelGrid::standard(902_300_000, 1_600_000).channels();
    let profile = GatewayProfile::rak7268cv2();
    let cfg = GatewayConfig::new(profile, chans.clone()).expect("8 channels fit an SX1302");
    let mut gw = Gateway::new(0, 1, profile, cfg);
    let mut rng = seed ^ 0x6A7E;
    let pkts: Vec<PacketAtGateway> = (0..groups * 8)
        .map(|i| {
            let t = (i / 8) as u64 * 100_000 + (i % 8) as u64 * 1_000;
            PacketAtGateway {
                tx_id: i as u64,
                trace: 0,
                network_id: if splitmix(&mut rng).is_multiple_of(3) {
                    2
                } else {
                    1
                },
                channel: chans[(splitmix(&mut rng) % 8) as usize],
                sf: SpreadingFactor::ALL[(splitmix(&mut rng) % 6) as usize],
                rssi_dbm: -100.0 - unit(&mut rng) * 20.0,
                snr_db: 5.0 - unit(&mut rng) * 10.0,
                lock_on_us: t,
                end_us: t + 250_000,
            }
        })
        .collect();
    let (mut admit_ns, mut end_ns) = (0u128, 0u128);
    let (mut admits, mut ends) = (0u64, 0u64);
    for g in 0..groups {
        let t0 = Instant::now();
        for p in &pkts[g * 8..g * 8 + 8] {
            if black_box(gw.on_lock_on(*p)) == LockOnOutcome::Admitted {
                admits += 1;
            }
        }
        admit_ns += t0.elapsed().as_nanos();
        if g >= 2 {
            let t0 = Instant::now();
            for p in &pkts[(g - 2) * 8..(g - 2) * 8 + 8] {
                if black_box(gw.on_tx_end(p.tx_id, p.tx_id % 5 != 0)).is_some() {
                    ends += 1;
                }
            }
            end_ns += t0.elapsed().as_nanos();
        }
    }
    assert!(admits > 0 && ends > 0, "replay must admit and end packets");
    (
        admit_ns as f64 / (groups * 8) as f64,
        end_ns as f64 / ((groups.saturating_sub(2)) * 8).max(1) as f64,
    )
}

/// `lora-phy.airtime_ns`, `lora-phy.capture_ns`.
pub fn phy(seed: u64, iters: u64) -> (f64, f64) {
    let airtime = ns_per_call(iters, |i| {
        let sf = SpreadingFactor::ALL[(i % 6) as usize];
        let p = PacketParams::lorawan_uplink(sf, Bandwidth::Khz125, 13 + (i % 40) as usize);
        black_box(black_box(p).airtime().total_us());
    });
    let mut rng = seed ^ 0xCA97;
    let rssi: Vec<(f64, f64)> = (0..1024)
        .map(|_| {
            (
                -120.0 + unit(&mut rng) * 40.0,
                -120.0 + unit(&mut rng) * 40.0,
            )
        })
        .collect();
    let capture = ns_per_call(iters, |i| {
        let (a, b) = rssi[(i % 1024) as usize];
        black_box(capture_outcome(black_box(a), black_box(b)));
    });
    (airtime, capture)
}

/// A device's session keys, as the fleet builders derive them.
fn keys_for(dev: DevAddr) -> SessionKeys {
    SessionKeys::derive(&[0x42u8; 16], dev)
}

/// One encoded uplink frame of the experiments' 23-byte PHY payload.
pub fn uplink_frame(dev: DevAddr, fcnt: u16) -> Vec<u8> {
    PhyPayload::uplink(dev, fcnt, 1, &[0xA5u8; bench::scenario::PAYLOAD_LEN - 13])
        .encode(&keys_for(dev))
        .expect("10-byte payload encodes")
}

/// `lora-mac.frame_encode_ns`, `lora-mac.frame_decode_ns` (AES/CMAC per
/// uplink).
pub fn frame(iters: u64) -> (f64, f64) {
    let dev = DevAddr::new(1, 77);
    let keys = keys_for(dev);
    let frm = [0xA5u8; bench::scenario::PAYLOAD_LEN - 13];
    let encode = ns_per_call(iters, |i| {
        let phy = PhyPayload::uplink(dev, i as u16, 1, &frm);
        black_box(phy.encode(black_box(&keys)).expect("encodes"));
    });
    let wire = uplink_frame(dev, 9);
    let decode = ns_per_call(iters, |_| {
        black_box(PhyPayload::decode(black_box(&wire), &keys).expect("decodes"));
    });
    (encode, decode)
}

/// Codec costs per rxpk on one PUSH_DATA of `rxpk.len()` packets:
/// (`codec_encode`, `codec_decode`, `fast_parse`) ns per packet and
/// wire bytes per packet.
pub fn codec(datagram: &Datagram, iters: u64) -> (f64, f64, f64, f64) {
    let pkts = match datagram {
        Datagram::PushData { rxpk, .. } => rxpk.len().max(1) as f64,
        _ => panic!("codec micro needs a PUSH_DATA"),
    };
    let wire = datagram.encode();
    let encode = ns_per_call(iters, |_| {
        black_box(black_box(datagram).encode());
    });
    let decode = ns_per_call(iters, |_| {
        black_box(Datagram::decode(black_box(&wire)).expect("decodes"));
    });
    let mut rxs: Vec<FastRx> = Vec::with_capacity(128);
    let mut scratch = Vec::with_capacity(256);
    let fast = ns_per_call(iters * 4, |_| {
        rxs.clear();
        black_box(parse_push_data(black_box(&wire), &mut rxs, &mut scratch).expect("parses"));
    });
    (
        encode / pkts,
        decode / pkts,
        fast / pkts,
        wire.len() as f64 / pkts,
    )
}

/// `netserver.dedup_offer_ns`, duplicate ratio and peak tracked
/// records: the same copy stream the daemon sees, through
/// `Deduplicator::offer` in-process.
pub fn dedup(copies: &[UplinkCopy], window_us: u64) -> (f64, f64, f64) {
    let mut d = Deduplicator::new(window_us);
    let (mut dup, mut peak) = (0u64, 0usize);
    let t0 = Instant::now();
    for (i, c) in copies.iter().enumerate() {
        if black_box(d.offer(*c)) == DedupOutcome::Duplicate {
            dup += 1;
        }
        if i % 1024 == 0 {
            peak = peak.max(d.tracked());
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / copies.len().max(1) as f64;
    (
        ns,
        dup as f64 / copies.len().max(1) as f64,
        peak.max(d.tracked()) as f64,
    )
}
