//! Datagram codec for the Semtech UDP protocol.
//!
//! The encoder writes its JSON bodies itself, straight into the wire:
//! keys in the field order of [`RxPacket`] / [`TxPacket`], integers in
//! decimal, an `f64` as `{}` prints it (`null` when not finite), and
//! strings escaped as `serde_json` escapes them. Three readers depend
//! on that exact layout: [`super::fast`]'s word path, which matches a
//! `"name":` key with a four-byte name in one load, and the ten-digit
//! `tmst` patchers of `svc::loadgen` and of the benchmark's `svc`
//! workloads, which find `"tmst":` by its bytes. The golden test
//! `wire_layout_is_pinned` fails on any change to it. Decoding goes
//! through `serde_json`.

use super::b64;
use lora_phy::channel::Channel;
use lora_phy::types::{Bandwidth, SpreadingFactor};
use serde::{Deserialize, Serialize};
use std::io::Write as _;

/// Protocol version byte (v2 is what SX130x reference forwarders send).
pub const PROTOCOL_VERSION: u8 = 2;

/// A gateway's 64-bit EUI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GatewayEui(pub u64);

/// One received packet, as reported in a `PUSH_DATA` `rxpk` array.
/// Field names follow the Semtech protocol document verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RxPacket {
    /// Internal concentrator timestamp, µs.
    pub tmst: u64,
    /// Center frequency, MHz.
    pub freq: f64,
    /// Concentrator IF channel.
    pub chan: u8,
    /// RF chain.
    pub rfch: u8,
    /// CRC status: 1 = OK, -1 = fail, 0 = no CRC.
    pub stat: i8,
    /// Modulation, `"LORA"`.
    pub modu: String,
    /// Datarate, e.g. `"SF7BW125"`.
    pub datr: String,
    /// Coding rate, e.g. `"4/5"`.
    pub codr: String,
    /// RSSI, dBm (integer per protocol).
    pub rssi: i32,
    /// SNR, dB.
    pub lsnr: f64,
    /// PHY payload size, bytes.
    pub size: usize,
    /// Base64 PHY payload.
    pub data: String,
    /// Packet-lifecycle trace id, threaded end-to-end for the obs
    /// layer. Not part of the Semtech protocol: legacy datagrams omit
    /// it and parse as `0` (untraced).
    #[serde(default)]
    pub trce: u64,
}

impl RxPacket {
    /// Build an rxpk from reception facts.
    pub fn new(
        tmst: u64,
        channel: Channel,
        sf: SpreadingFactor,
        rssi_dbm: f64,
        snr_db: f64,
        phy_payload: &[u8],
    ) -> RxPacket {
        RxPacket {
            tmst,
            freq: channel.center_hz as f64 / 1e6,
            chan: 0,
            rfch: 0,
            stat: 1,
            modu: "LORA".to_string(),
            datr: format!("SF{}BW{}", sf.value(), channel.bw.hz() / 1000),
            codr: "4/5".to_string(),
            rssi: rssi_dbm.round() as i32,
            lsnr: (snr_db * 10.0).round() / 10.0,
            size: phy_payload.len(),
            data: b64::encode(phy_payload),
            trce: 0,
        }
    }

    /// Attach the packet's lifecycle trace id (builder style).
    pub fn with_trace(mut self, trace: u64) -> RxPacket {
        self.trce = trace;
        self
    }

    /// Decode the Base64 PHY payload.
    pub fn phy_payload(&self) -> Option<Vec<u8>> {
        let raw = b64::decode(&self.data)?;
        (raw.len() == self.size).then_some(raw)
    }

    /// Parse the `datr` field back into a spreading factor + bandwidth.
    pub fn data_rate(&self) -> Option<(SpreadingFactor, Bandwidth)> {
        let rest = self.datr.strip_prefix("SF")?;
        let bw_pos = rest.find("BW")?;
        let sf = SpreadingFactor::from_value(rest[..bw_pos].parse().ok()?)?;
        let bw = match &rest[bw_pos + 2..] {
            "125" => Bandwidth::Khz125,
            "250" => Bandwidth::Khz250,
            "500" => Bandwidth::Khz500,
            _ => return None,
        };
        Some((sf, bw))
    }

    /// Channel reconstructed from the `freq` field.
    pub fn channel(&self) -> Channel {
        Channel::khz125((self.freq * 1e6).round() as u32)
    }
}

/// A downlink request carried in `PULL_RESP` (`txpk`), trimmed to the
/// fields this system schedules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxPacket {
    /// Emission concentrator timestamp, µs.
    pub tmst: u64,
    /// Center frequency, MHz (protocol convention).
    pub freq: f64,
    /// Data rate identifier, e.g. `"SF7BW125"`.
    pub datr: String,
    /// Tx power, dBm.
    pub powe: i32,
    /// Payload size, bytes.
    pub size: usize,
    /// Base64-encoded PHY payload.
    pub data: String,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
struct PushPayload {
    #[serde(skip_serializing_if = "Option::is_none")]
    rxpk: Option<Vec<RxPacket>>,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
struct PullRespPayload {
    txpk: TxPacket,
}

/// A decoded protocol datagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Datagram {
    /// Gateway → server: received uplinks.
    PushData {
        /// Random token echoed by the matching ack.
        token: u16,
        /// Sending gateway.
        eui: GatewayEui,
        /// Uplink packets carried in this datagram.
        rxpk: Vec<RxPacket>,
    },
    /// Server → gateway: `PUSH_DATA` acknowledgement.
    PushAck {
        /// Echoed token.
        token: u16,
    },
    /// Gateway → server: downlink-route keepalive.
    PullData {
        /// Random token echoed by the matching ack.
        token: u16,
        /// Sending gateway.
        eui: GatewayEui,
    },
    /// Server → gateway: `PULL_DATA` acknowledgement.
    PullAck {
        /// Echoed token.
        token: u16,
    },
    /// Server → gateway: a downlink to transmit.
    PullResp {
        /// Server-chosen token echoed by `TX_ACK`.
        token: u16,
        /// The downlink to schedule.
        txpk: TxPacket,
    },
    /// Gateway → server: downlink scheduling verdict.
    TxAck {
        /// Echoed `PULL_RESP` token.
        token: u16,
        /// Acknowledging gateway.
        eui: GatewayEui,
    },
}

impl Datagram {
    const PUSH_DATA: u8 = 0x00;
    const PUSH_ACK: u8 = 0x01;
    const PULL_DATA: u8 = 0x02;
    const PULL_RESP: u8 = 0x03;
    const PULL_ACK: u8 = 0x04;
    const TX_ACK: u8 = 0x05;

    /// Serialize to wire bytes: the header, then the JSON body written
    /// by `write_push_json` / `write_pull_resp_json`, in one
    /// allocation of the final length.
    pub fn encode(&self) -> Vec<u8> {
        let mut json = Vec::new();
        let (token, kind, eui) = match self {
            Datagram::PushData { token, eui, rxpk } => {
                write_push_json(&mut json, rxpk);
                (*token, Self::PUSH_DATA, Some(eui))
            }
            Datagram::PushAck { token } => (*token, Self::PUSH_ACK, None),
            Datagram::PullData { token, eui } => (*token, Self::PULL_DATA, Some(eui)),
            Datagram::PullAck { token } => (*token, Self::PULL_ACK, None),
            Datagram::PullResp { token, txpk } => {
                write_pull_resp_json(&mut json, txpk);
                (*token, Self::PULL_RESP, None)
            }
            Datagram::TxAck { token, eui } => (*token, Self::TX_ACK, Some(eui)),
        };
        let eui_len = if eui.is_some() { 8 } else { 0 };
        let mut out = Vec::with_capacity(4 + eui_len + json.len());
        out.push(PROTOCOL_VERSION);
        out.extend_from_slice(&token.to_be_bytes());
        out.push(kind);
        if let Some(eui) = eui {
            out.extend_from_slice(&eui.0.to_be_bytes());
        }
        out.extend_from_slice(&json);
        out
    }

    /// Parse wire bytes. Returns `None` on malformed datagrams (wrong
    /// version, short header, bad JSON).
    pub fn decode(bytes: &[u8]) -> Option<Datagram> {
        if bytes.len() < 4 || bytes[0] != PROTOCOL_VERSION {
            return None;
        }
        let token = u16::from_be_bytes([bytes[1], bytes[2]]);
        let kind = bytes[3];
        let eui_of = |b: &[u8]| -> Option<GatewayEui> {
            Some(GatewayEui(u64::from_be_bytes(
                b.get(4..12)?.try_into().ok()?,
            )))
        };
        match kind {
            Self::PUSH_DATA => {
                let eui = eui_of(bytes)?;
                let payload: PushPayload = serde_json::from_slice(bytes.get(12..)?).ok()?;
                Some(Datagram::PushData {
                    token,
                    eui,
                    rxpk: payload.rxpk.unwrap_or_default(),
                })
            }
            Self::PUSH_ACK => Some(Datagram::PushAck { token }),
            Self::PULL_DATA => Some(Datagram::PullData {
                token,
                eui: eui_of(bytes)?,
            }),
            Self::PULL_ACK => Some(Datagram::PullAck { token }),
            Self::PULL_RESP => {
                let payload: PullRespPayload = serde_json::from_slice(bytes.get(4..)?).ok()?;
                Some(Datagram::PullResp {
                    token,
                    txpk: payload.txpk,
                })
            }
            Self::TX_ACK => Some(Datagram::TxAck {
                token,
                eui: eui_of(bytes)?,
            }),
            _ => None,
        }
    }
}

/// Scratch-body bytes reserved per rxpk; `svc-bulk`'s are ≈ 190.
const RXPK_BYTES_HINT: usize = 256;

/// `{"rxpk":[…]}`.
fn write_push_json(out: &mut Vec<u8>, rxpk: &[RxPacket]) {
    out.reserve(16 + rxpk.len() * RXPK_BYTES_HINT);
    out.extend_from_slice(br#"{"rxpk":["#);
    for (i, p) in rxpk.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_rxpk(out, p);
    }
    out.extend_from_slice(b"]}");
}

fn write_rxpk(out: &mut Vec<u8>, p: &RxPacket) {
    out.extend_from_slice(br#"{"tmst":"#);
    put_u64(out, p.tmst);
    out.extend_from_slice(br#","freq":"#);
    put_f64(out, p.freq);
    out.extend_from_slice(br#","chan":"#);
    put_u64(out, p.chan.into());
    out.extend_from_slice(br#","rfch":"#);
    put_u64(out, p.rfch.into());
    out.extend_from_slice(br#","stat":"#);
    put_i64(out, p.stat.into());
    out.extend_from_slice(br#","modu":"#);
    put_str(out, &p.modu);
    out.extend_from_slice(br#","datr":"#);
    put_str(out, &p.datr);
    out.extend_from_slice(br#","codr":"#);
    put_str(out, &p.codr);
    out.extend_from_slice(br#","rssi":"#);
    put_i64(out, p.rssi.into());
    out.extend_from_slice(br#","lsnr":"#);
    put_f64(out, p.lsnr);
    out.extend_from_slice(br#","size":"#);
    put_u64(out, p.size as u64);
    out.extend_from_slice(br#","data":"#);
    put_str(out, &p.data);
    out.extend_from_slice(br#","trce":"#);
    put_u64(out, p.trce);
    out.push(b'}');
}

/// `{"txpk":{…}}`.
fn write_pull_resp_json(out: &mut Vec<u8>, t: &TxPacket) {
    out.extend_from_slice(br#"{"txpk":{"tmst":"#);
    put_u64(out, t.tmst);
    out.extend_from_slice(br#","freq":"#);
    put_f64(out, t.freq);
    out.extend_from_slice(br#","datr":"#);
    put_str(out, &t.datr);
    out.extend_from_slice(br#","powe":"#);
    put_i64(out, t.powe.into());
    out.extend_from_slice(br#","size":"#);
    put_u64(out, t.size as u64);
    out.extend_from_slice(br#","data":"#);
    put_str(out, &t.data);
    out.extend_from_slice(b"}}");
}

fn put_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn put_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    put_u64(out, n.unsigned_abs());
}

/// Shortest round-trip decimal, integral values without a fraction;
/// JSON has no NaN or infinity, so those are `null`.
fn put_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_finite() {
        // `Vec<u8>`'s `io::Write` never fails.
        let _ = write!(out, "{x}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// A JSON string: `"` and `\` backslashed, `\n` `\r` `\t` by name, other
/// control characters as `\u00xx` (lower-case hex), everything else
/// verbatim. Runs between escapes are copied whole.
fn put_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let escape: &[u8] = match b {
            b'"' => br#"\""#,
            b'\\' => br"\\",
            b'\n' => br"\n",
            b'\r' => br"\r",
            b'\t' => br"\t",
            0..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::types::SpreadingFactor::*;

    fn rxpk() -> RxPacket {
        RxPacket::new(
            123_456,
            Channel::khz125(916_900_000),
            SF7,
            -97.4,
            8.25,
            &[0x40, 0x01, 0x02, 0x03],
        )
    }

    #[test]
    fn rxpk_fields_match_protocol() {
        let p = rxpk();
        assert_eq!(p.freq, 916.9);
        assert_eq!(p.datr, "SF7BW125");
        assert_eq!(p.rssi, -97);
        assert_eq!(p.lsnr, 8.3);
        assert_eq!(p.size, 4);
        assert_eq!(p.phy_payload().unwrap(), vec![0x40, 0x01, 0x02, 0x03]);
        assert_eq!(p.data_rate(), Some((SF7, Bandwidth::Khz125)));
        assert_eq!(p.channel().center_hz, 916_900_000);
    }

    #[test]
    fn push_data_roundtrip() {
        let d = Datagram::PushData {
            token: 0xBEEF,
            eui: GatewayEui(0x0102_0304_0506_0708),
            rxpk: vec![rxpk(), rxpk()],
        };
        let wire = d.encode();
        assert_eq!(wire[0], PROTOCOL_VERSION);
        assert_eq!(wire[3], 0x00);
        assert_eq!(Datagram::decode(&wire), Some(d));
    }

    #[test]
    fn all_control_datagrams_roundtrip() {
        let eui = GatewayEui(7);
        let cases = vec![
            Datagram::PushAck { token: 1 },
            Datagram::PullData { token: 2, eui },
            Datagram::PullAck { token: 3 },
            Datagram::TxAck { token: 4, eui },
            Datagram::PullResp {
                token: 5,
                txpk: TxPacket {
                    tmst: 999,
                    freq: 916.9,
                    datr: "SF9BW125".into(),
                    powe: 14,
                    size: 2,
                    data: b64::encode(&[1, 2]),
                },
            },
        ];
        for d in cases {
            assert_eq!(Datagram::decode(&d.encode()), Some(d));
        }
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let mut wire = Datagram::PushAck { token: 1 }.encode();
        wire[0] = 1; // v1
        assert_eq!(Datagram::decode(&wire), None);
        assert_eq!(Datagram::decode(&[2, 0]), None);
        assert_eq!(Datagram::decode(b"\x02\x00\x00\x00garbage-json"), None);
        assert_eq!(Datagram::decode(&[2, 0, 0, 0x7f]), None);
    }

    #[test]
    fn push_data_without_rxpk_is_keepalive() {
        // A PUSH_DATA with {"stat":{…}} only: rxpk defaults to empty.
        let mut wire = vec![2, 0, 1, 0];
        wire.extend_from_slice(&7u64.to_be_bytes());
        wire.extend_from_slice(b"{\"stat\":{\"rxnb\":0}}");
        match Datagram::decode(&wire) {
            Some(Datagram::PushData { rxpk, .. }) => assert!(rxpk.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trce_field_roundtrips_and_defaults() {
        let d = Datagram::PushData {
            token: 1,
            eui: GatewayEui(7),
            rxpk: vec![rxpk().with_trace(0xABCD_EF01)],
        };
        match Datagram::decode(&d.encode()) {
            Some(Datagram::PushData { rxpk, .. }) => assert_eq!(rxpk[0].trce, 0xABCD_EF01),
            other => panic!("{other:?}"),
        }
        // A legacy datagram without trce parses as untraced.
        let mut wire = vec![2, 0, 1, 0];
        wire.extend_from_slice(&7u64.to_be_bytes());
        wire.extend_from_slice(
            br#"{"rxpk":[{"tmst":1,"freq":916.9,"chan":0,"rfch":0,"stat":1,"modu":"LORA","datr":"SF7BW125","codr":"4/5","rssi":-97,"lsnr":8.3,"size":0,"data":""}]}"#,
        );
        match Datagram::decode(&wire) {
            Some(Datagram::PushData { rxpk, .. }) => assert_eq!(rxpk[0].trce, 0),
            other => panic!("{other:?}"),
        }
    }

    /// The `serde_json` encoding the writer replaced, kept as its oracle.
    pub(super) fn serde_encode(d: &Datagram) -> Vec<u8> {
        let mut out = vec![PROTOCOL_VERSION];
        match d {
            Datagram::PushData { token, eui, rxpk } => {
                out.extend_from_slice(&token.to_be_bytes());
                out.push(Datagram::PUSH_DATA);
                out.extend_from_slice(&eui.0.to_be_bytes());
                let payload = PushPayload {
                    rxpk: Some(rxpk.clone()),
                };
                out.extend(serde_json::to_vec(&payload).unwrap());
            }
            Datagram::PullResp { token, txpk } => {
                out.extend_from_slice(&token.to_be_bytes());
                out.push(Datagram::PULL_RESP);
                let payload = PullRespPayload { txpk: txpk.clone() };
                out.extend(serde_json::to_vec(&payload).unwrap());
            }
            _ => panic!("only PUSH_DATA and PULL_RESP carry JSON"),
        }
        out
    }

    /// The byte layout three readers depend on: `fast`'s four-byte key
    /// words and the ten-digit `tmst` patchers of `svc::loadgen` and
    /// the benchmark. Keys are checked one by one first, so a
    /// reordered or renamed key fails by name.
    #[test]
    fn wire_layout_is_pinned() {
        let traced = RxPacket {
            tmst: 1_234_567_890,
            freq: 868.0,
            chan: 2,
            rfch: 1,
            stat: -1,
            modu: "L\"O\\R\tA\u{1}é".into(),
            datr: "SF7BW125".into(),
            codr: "4/5".into(),
            rssi: -120,
            lsnr: -7.5,
            size: 4,
            data: "QAECAw==".into(),
            trce: 42,
        };
        let plain = RxPacket {
            tmst: 4_000_000_000,
            trce: u64::MAX,
            ..rxpk()
        };
        let push = Datagram::PushData {
            token: 0xBEEF,
            eui: GatewayEui(0x0102_0304_0506_0708),
            rxpk: vec![traced, plain],
        };
        let pull = Datagram::PullResp {
            token: 0x0102,
            txpk: TxPacket {
                tmst: 999,
                freq: 916.9,
                datr: "SF9BW125".into(),
                powe: 14,
                size: 2,
                data: "AQI=".into(),
            },
        };
        let push_json = concat!(
            r#"{"rxpk":["#,
            r#"{"tmst":1234567890,"freq":868,"chan":2,"rfch":1,"stat":-1,"#,
            r#""modu":"L\"O\\R\tA\u0001é","datr":"SF7BW125","codr":"4/5","#,
            r#""rssi":-120,"lsnr":-7.5,"size":4,"data":"QAECAw==","trce":42},"#,
            r#"{"tmst":4000000000,"freq":916.9,"chan":0,"rfch":0,"stat":1,"#,
            r#""modu":"LORA","datr":"SF7BW125","codr":"4/5","#,
            r#""rssi":-97,"lsnr":8.3,"size":4,"data":"QAECAw==","trce":18446744073709551615}"#,
            r#"]}"#,
        );
        let pull_json = r#"{"txpk":{"tmst":999,"freq":916.9,"datr":"SF9BW125","powe":14,"size":2,"data":"AQI="}}"#;

        let rxpk_keys = [
            "tmst", "freq", "chan", "rfch", "stat", "modu", "datr", "codr", "rssi", "lsnr", "size",
            "data", "trce",
        ];
        let txpk_keys = ["txpk", "tmst", "freq", "datr", "powe", "size", "data"];
        let push_keys: Vec<&str> = std::iter::once("rxpk")
            .chain(rxpk_keys)
            .chain(rxpk_keys)
            .collect();
        let push_header = [2, 0xBE, 0xEF, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        let pull_header = [2, 0x01, 0x02, 3];
        for (wire, header, json, keys) in [
            (push.encode(), &push_header[..], push_json, &push_keys[..]),
            (pull.encode(), &pull_header[..], pull_json, &txpk_keys[..]),
        ] {
            let body = String::from_utf8_lossy(wire.get(header.len()..).unwrap_or_default());
            let found: Vec<&str> = body
                .match_indices("\":")
                .filter_map(|(end, _)| Some(&body[body[..end].rfind('"')? + 1..end]))
                .collect();
            for (i, want) in keys.iter().enumerate() {
                assert_eq!(found.get(i), Some(want), "key {i} of {body}");
            }
            assert_eq!(found.len(), keys.len(), "{body}");
            assert_eq!(body, json);
            assert_eq!(wire, [header, json.as_bytes()].concat());
        }
        assert_eq!(Datagram::decode(&push.encode()), Some(push));
        assert_eq!(Datagram::decode(&pull.encode()), Some(pull));
    }

    #[test]
    fn datr_parser_rejects_nonsense() {
        let mut p = rxpk();
        p.datr = "FSK".into();
        assert_eq!(p.data_rate(), None);
        p.datr = "SF99BW125".into();
        assert_eq!(p.data_rate(), None);
        p.datr = "SF7BW999".into();
        assert_eq!(p.data_rate(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::serde_encode;
    use super::*;
    use proptest::prelude::*;

    /// Characters a JSON string writer can get wrong: quotes,
    /// backslashes, every escape class of control character, DEL, and
    /// two-, three- and four-byte UTF-8.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', '€', '𝄞',
    ];

    fn text() -> impl Strategy<Value = String> {
        collection::vec(0..CHARS.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
    }

    /// Any bit pattern, and one time in four a value with its own
    /// spelling: NaN, ±inf, ±0, integral, tiny, huge.
    fn float() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            868.0,
            916.9,
            f64::MIN_POSITIVE / 4.0,
            1.5e300,
        ];
        (0u8..4, any::<u64>()).prop_map(|(k, bits)| match k {
            0 => SPECIAL[(bits % SPECIAL.len() as u64) as usize],
            _ => f64::from_bits(bits),
        })
    }

    fn rx_packet() -> impl Strategy<Value = RxPacket> {
        (
            (any::<u64>(), float(), any::<u8>(), any::<u8>(), any::<i8>()),
            (text(), text(), text()),
            (any::<i32>(), float(), any::<usize>(), text(), any::<u64>()),
        )
            .prop_map(
                |(
                    (tmst, freq, chan, rfch, stat),
                    (modu, datr, codr),
                    (rssi, lsnr, size, data, trce),
                )| RxPacket {
                    tmst,
                    freq,
                    chan,
                    rfch,
                    stat,
                    modu,
                    datr,
                    codr,
                    rssi,
                    lsnr,
                    size,
                    data,
                    trce,
                },
            )
    }

    proptest! {
        /// PUSH_DATA datagrams roundtrip for arbitrary receptions.
        #[test]
        fn push_data_roundtrip(
            token in any::<u16>(),
            eui in any::<u64>(),
            tmst in any::<u64>(),
            ch in 0u32..64,
            sf in 7u32..=12,
            rssi in -140.0f64..-20.0,
            snr in -25.0f64..15.0,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let rx = RxPacket::new(
                tmst,
                Channel::khz125(902_300_000 + ch * 200_000),
                SpreadingFactor::from_value(sf).unwrap(),
                rssi,
                snr,
                &payload,
            );
            prop_assert_eq!(rx.phy_payload().unwrap(), payload);
            let d = Datagram::PushData {
                token,
                eui: GatewayEui(eui),
                rxpk: vec![rx],
            };
            prop_assert_eq!(Datagram::decode(&d.encode()), Some(d));
        }

        /// The writer emits exactly the bytes the `serde_json` path
        /// did, for arbitrary packets and for an empty `rxpk`.
        fn writer_matches_serde_encoding(
            token in any::<u16>(),
            eui in any::<u64>(),
            rxpk in collection::vec(rx_packet(), 0..4),
            (tmst, freq, powe, size) in (any::<u64>(), float(), any::<i32>(), any::<usize>()),
            (datr, data) in (text(), text()),
        ) {
            let push = Datagram::PushData { token, eui: GatewayEui(eui), rxpk };
            let pull = Datagram::PullResp {
                token,
                txpk: TxPacket { tmst, freq, datr, powe, size, data },
            };
            for d in [push, pull] {
                let (ours, oracle) = (d.encode(), serde_encode(&d));
                prop_assert!(
                    ours == oracle,
                    "writer {}\n serde {}",
                    String::from_utf8_lossy(&ours),
                    String::from_utf8_lossy(&oracle)
                );
            }
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Datagram::decode(&bytes);
        }

        /// encode → decode → encode is *byte*-stable for arbitrary
        /// rxpk, including arbitrary trace ids and floats — the wire
        /// image a daemon re-emits (e.g. a store-and-forward relay) is
        /// identical to the one it received.
        #[test]
        fn push_data_encode_is_byte_stable(
            token in any::<u16>(),
            eui in any::<u64>(),
            tmst in any::<u64>(),
            freq in 137.0f64..1020.0,
            chan in any::<u8>(),
            rfch in any::<u8>(),
            stat in -1i8..=1,
            rssi in -200i32..0,
            lsnr_tenths in -250i32..160,
            trce in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let rx = RxPacket {
                tmst,
                freq,
                chan,
                rfch,
                stat,
                modu: "LORA".into(),
                datr: "SF9BW125".into(),
                codr: "4/5".into(),
                rssi,
                lsnr: lsnr_tenths as f64 / 10.0,
                size: payload.len(),
                data: b64::encode(&payload),
                trce,
            };
            let d = Datagram::PushData { token, eui: GatewayEui(eui), rxpk: vec![rx] };
            let wire = d.encode();
            let decoded = Datagram::decode(&wire).expect("own encoding decodes");
            prop_assert_eq!(&decoded, &d);
            prop_assert_eq!(decoded.encode(), wire);
        }

        /// Same byte-stability for PULL_RESP / txpk.
        #[test]
        fn pull_resp_encode_is_byte_stable(
            token in any::<u16>(),
            tmst in any::<u64>(),
            freq in 137.0f64..1020.0,
            powe in 0i32..30,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let d = Datagram::PullResp {
                token,
                txpk: TxPacket {
                    tmst,
                    freq,
                    datr: "SF12BW500".into(),
                    powe,
                    size: payload.len(),
                    data: b64::encode(&payload),
                },
            };
            let wire = d.encode();
            let decoded = Datagram::decode(&wire).expect("own encoding decodes");
            prop_assert_eq!(&decoded, &d);
            prop_assert_eq!(decoded.encode(), wire);
        }

        /// A legacy datagram (no `trce` field at all) decodes to the
        /// same packet as a traced one with `trce = 0`, and once
        /// re-encoded it is byte-stable from then on.
        #[test]
        fn legacy_rxpk_without_trce_is_stable_after_first_reencode(
            token in any::<u16>(),
            eui in any::<u64>(),
            tmst in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let rx = RxPacket {
                tmst,
                freq: 916.9,
                chan: 3,
                rfch: 0,
                stat: 1,
                modu: "LORA".into(),
                datr: "SF7BW125".into(),
                codr: "4/5".into(),
                rssi: -97,
                lsnr: 8.5,
                size: payload.len(),
                data: b64::encode(&payload),
                trce: 0,
            };
            // Hand-build the legacy wire image: identical JSON minus
            // the trce field (float fields format with `{}`, exactly as
            // the serializer prints them).
            let mut wire = vec![PROTOCOL_VERSION];
            wire.extend_from_slice(&token.to_be_bytes());
            wire.push(0x00);
            wire.extend_from_slice(&eui.to_be_bytes());
            wire.extend_from_slice(format!(
                r#"{{"rxpk":[{{"tmst":{tmst},"freq":916.9,"chan":3,"rfch":0,"stat":1,"modu":"LORA","datr":"SF7BW125","codr":"4/5","rssi":-97,"lsnr":8.5,"size":{},"data":"{}"}}]}}"#,
                payload.len(),
                rx.data,
            ).as_bytes());
            let decoded = Datagram::decode(&wire).expect("legacy wire decodes");
            let expected = Datagram::PushData { token, eui: GatewayEui(eui), rxpk: vec![rx] };
            prop_assert_eq!(&decoded, &expected);
            let reencoded = decoded.encode();
            let twice = Datagram::decode(&reencoded).expect("re-encoding decodes");
            prop_assert_eq!(twice.encode(), reencoded);
        }
    }
}
