//! LoRaWAN 1.0.x PHYPayload encode/decode with MIC and payload crypto.
//!
//! ```text
//! PHYPayload = MHDR(1) | MACPayload | MIC(4)
//! MACPayload = FHDR | FPort | FRMPayload
//! FHDR       = DevAddr(4,LE) | FCtrl(1) | FCnt(2,LE) | FOpts(0..15)
//! ```
//!
//! The MIC is AES-CMAC over a `B0` block plus the frame; the FRMPayload
//! is encrypted with the AES-CTR-style `A`-block construction of the
//! LoRaWAN spec. Network identifiers (DevAddr, and by extension the
//! operator) live *inside* the decoded frame — the paper's point: a
//! gateway cannot tell whose packet it is until a decoder has processed
//! it end-to-end.

use crate::cmac;
use crate::device::{DevAddr, SessionKeys};
use bytes::Buf;

/// LoRaWAN message type (MHDR.MType).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MType {
    JoinRequest,
    JoinAccept,
    UnconfirmedDataUp,
    UnconfirmedDataDown,
    ConfirmedDataUp,
    ConfirmedDataDown,
}

impl MType {
    fn to_bits(self) -> u8 {
        match self {
            MType::JoinRequest => 0b000,
            MType::JoinAccept => 0b001,
            MType::UnconfirmedDataUp => 0b010,
            MType::UnconfirmedDataDown => 0b011,
            MType::ConfirmedDataUp => 0b100,
            MType::ConfirmedDataDown => 0b101,
        }
    }

    fn from_bits(b: u8) -> Option<MType> {
        Some(match b {
            0b000 => MType::JoinRequest,
            0b001 => MType::JoinAccept,
            0b010 => MType::UnconfirmedDataUp,
            0b011 => MType::UnconfirmedDataDown,
            0b100 => MType::ConfirmedDataUp,
            0b101 => MType::ConfirmedDataDown,
            _ => return None,
        })
    }

    /// Uplink (device → network) direction?
    pub fn is_uplink(self) -> bool {
        matches!(
            self,
            MType::JoinRequest | MType::UnconfirmedDataUp | MType::ConfirmedDataUp
        )
    }
}

/// Frame codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameCodecError {
    /// Buffer shorter than the minimal frame.
    Truncated,
    /// Reserved/unsupported MType bits.
    BadMType(u8),
    /// FOpts longer than the 15-byte field allows.
    FOptsTooLong(usize),
    /// MIC verification failed.
    BadMic,
}

impl std::fmt::Display for FrameCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameCodecError::Truncated => write!(f, "frame truncated"),
            FrameCodecError::BadMType(b) => write!(f, "unsupported MType bits {b:#05b}"),
            FrameCodecError::FOptsTooLong(n) => write!(f, "FOpts length {n} exceeds 15"),
            FrameCodecError::BadMic => write!(f, "MIC verification failed"),
        }
    }
}

impl std::error::Error for FrameCodecError {}

/// A decoded LoRaWAN data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhyPayload {
    pub mtype: MType,
    pub dev_addr: DevAddr,
    /// Frame control byte (ADR bit, ACK bit, FOptsLen).
    pub adr: bool,
    pub ack: bool,
    pub fcnt: u16,
    /// Piggybacked MAC commands (unencrypted FOpts).
    pub fopts: Vec<u8>,
    /// Application port; `None` when no FRMPayload present.
    pub fport: Option<u8>,
    /// Decrypted FRMPayload.
    pub frm_payload: Vec<u8>,
}

impl PhyPayload {
    /// A plain unconfirmed uplink data frame.
    pub fn uplink(dev_addr: DevAddr, fcnt: u16, fport: u8, payload: &[u8]) -> PhyPayload {
        PhyPayload {
            mtype: MType::UnconfirmedDataUp,
            dev_addr,
            adr: true,
            ack: false,
            fcnt,
            fopts: Vec::new(),
            fport: Some(fport),
            frm_payload: payload.to_vec(),
        }
    }

    /// Wire length of the encoded frame in bytes.
    pub fn encoded_len(&self) -> usize {
        let port_payload = match self.fport {
            Some(_) => 1 + self.frm_payload.len(),
            None => 0,
        };
        1 + 7 + self.fopts.len() + port_payload + 4
    }

    /// Encode, encrypt the FRMPayload and append the MIC, into one
    /// buffer of the final length.
    pub fn encode(&self, keys: &SessionKeys) -> Result<Vec<u8>, FrameCodecError> {
        if self.fopts.len() > 15 {
            return Err(FrameCodecError::FOptsTooLong(self.fopts.len()));
        }
        let dir = if self.mtype.is_uplink() { 0u8 } else { 1u8 };
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(self.mtype.to_bits() << 5);
        out.extend_from_slice(&self.dev_addr.0.to_le_bytes());
        let fctrl = ((self.adr as u8) << 7) | ((self.ack as u8) << 5) | (self.fopts.len() as u8);
        out.push(fctrl);
        out.extend_from_slice(&self.fcnt.to_le_bytes());
        out.extend_from_slice(&self.fopts);
        if let Some(port) = self.fport {
            out.push(port);
            let key = if port == 0 {
                &keys.nwk_s_key
            } else {
                &keys.app_s_key
            };
            let at = out.len();
            out.extend_from_slice(&self.frm_payload);
            crypt_frm_payload(key, self.dev_addr, self.fcnt as u32, dir, &mut out[at..]);
        }
        let mic = compute_mic(&keys.nwk_s_key, self.dev_addr, self.fcnt as u32, dir, &out);
        out.extend_from_slice(&mic);
        Ok(out)
    }

    /// Read the DevAddr of a data frame *without* any key — the only
    /// identifier a server can use to look up the session before
    /// decoding. (Gateways cannot even do this much filtering usefully:
    /// by the time these bytes exist, a decoder has already been spent,
    /// §3.1.)
    pub fn peek_dev_addr(bytes: &[u8]) -> Option<DevAddr> {
        if bytes.len() < 12 {
            return None;
        }
        let mtype = MType::from_bits(bytes[0] >> 5)?;
        if matches!(mtype, MType::JoinRequest | MType::JoinAccept) {
            return None;
        }
        Some(DevAddr(u32::from_le_bytes(bytes[1..5].try_into().ok()?)))
    }

    /// Read the FCnt of a data frame without any key, under the same
    /// guards as [`PhyPayload::peek_dev_addr`]. The pair (DevAddr,
    /// FCnt) is everything dedup keys on, so an ingest shard can route
    /// and deduplicate before spending a MIC check.
    pub fn peek_fcnt(bytes: &[u8]) -> Option<u16> {
        if bytes.len() < 12 {
            return None;
        }
        let mtype = MType::from_bits(bytes[0] >> 5)?;
        if matches!(mtype, MType::JoinRequest | MType::JoinAccept) {
            return None;
        }
        Some(u16::from_le_bytes(bytes[6..8].try_into().ok()?))
    }

    /// Decode and verify a frame; decrypts the FRMPayload.
    pub fn decode(bytes: &[u8], keys: &SessionKeys) -> Result<PhyPayload, FrameCodecError> {
        if bytes.len() < 12 {
            return Err(FrameCodecError::Truncated);
        }
        let (body, mic_bytes) = bytes.split_at(bytes.len() - 4);
        let mut buf = body;
        let mhdr = buf.get_u8();
        let mtype = MType::from_bits(mhdr >> 5).ok_or(FrameCodecError::BadMType(mhdr >> 5))?;
        let dir = if mtype.is_uplink() { 0u8 } else { 1u8 };
        let dev_addr = DevAddr(buf.get_u32_le());
        let fctrl = buf.get_u8();
        let fcnt = buf.get_u16_le();
        let fopts_len = (fctrl & 0x0f) as usize;
        if buf.remaining() < fopts_len {
            return Err(FrameCodecError::Truncated);
        }
        let fopts = buf[..fopts_len].to_vec();
        buf.advance(fopts_len);

        let expected = compute_mic(&keys.nwk_s_key, dev_addr, fcnt as u32, dir, body);
        if expected != mic_bytes {
            return Err(FrameCodecError::BadMic);
        }

        let (fport, frm_payload) = if buf.has_remaining() {
            let port = buf.get_u8();
            let key = if port == 0 {
                &keys.nwk_s_key
            } else {
                &keys.app_s_key
            };
            let mut pt = buf.to_vec();
            crypt_frm_payload(key, dev_addr, fcnt as u32, dir, &mut pt);
            (Some(port), pt)
        } else {
            (None, Vec::new())
        };

        Ok(PhyPayload {
            mtype,
            dev_addr,
            adr: fctrl & 0x80 != 0,
            ack: fctrl & 0x20 != 0,
            fcnt,
            fopts,
            fport,
            frm_payload,
        })
    }
}

/// LoRaWAN frame MIC: `CMAC(NwkSKey, B0 | MHDR..FRMPayload)[0..4]`,
/// with `B0` and the frame fed to CMAC one after the other.
fn compute_mic(nwk_s_key: &[u8; 16], addr: DevAddr, fcnt: u32, dir: u8, msg: &[u8]) -> [u8; 4] {
    let mut b0 = [0u8; 16];
    b0[0] = 0x49;
    b0[5] = dir;
    b0[6..10].copy_from_slice(&addr.0.to_le_bytes());
    b0[10..14].copy_from_slice(&fcnt.to_le_bytes());
    b0[15] = msg.len() as u8;
    cmac::mic(nwk_s_key, &[&b0, msg])
}

/// Symmetric FRMPayload (de)cryption in place with the LoRaWAN
/// `A`-block keystream.
fn crypt_frm_payload(key: &[u8; 16], addr: DevAddr, fcnt: u32, dir: u8, data: &mut [u8]) {
    use crate::aes::Aes128;
    let aes = Aes128::new(key);
    let mut a = [0u8; 16];
    a[0] = 0x01;
    a[5] = dir;
    a[6..10].copy_from_slice(&addr.0.to_le_bytes());
    a[10..14].copy_from_slice(&fcnt.to_le_bytes());
    for (block_idx, chunk) in data.chunks_mut(16).enumerate() {
        a[15] = (block_idx + 1) as u8;
        let s = aes.encrypt(&a);
        for (d, k) in chunk.iter_mut().zip(s) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SessionKeys {
        SessionKeys {
            nwk_s_key: [0x11; 16],
            app_s_key: [0x22; 16],
        }
    }

    #[test]
    fn roundtrip_basic_uplink() {
        let f = PhyPayload::uplink(DevAddr(0x2601_1234), 42, 1, b"hello lora");
        let wire = f.encode(&keys()).unwrap();
        assert_eq!(wire.len(), f.encoded_len());
        let g = PhyPayload::decode(&wire, &keys()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn roundtrip_with_fopts_and_no_payload() {
        let f = PhyPayload {
            mtype: MType::UnconfirmedDataUp,
            dev_addr: DevAddr(7),
            adr: false,
            ack: true,
            fcnt: 65_535,
            fopts: vec![0x03, 0x51, 0x07, 0x00, 0x01], // LinkADRReq-ish
            fport: None,
            frm_payload: Vec::new(),
        };
        let wire = f.encode(&keys()).unwrap();
        let g = PhyPayload::decode(&wire, &keys()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn payload_is_actually_encrypted() {
        let f = PhyPayload::uplink(DevAddr(1), 0, 5, b"secret-payload!!");
        let wire = f.encode(&keys()).unwrap();
        let window = &wire[9..wire.len() - 4];
        assert!(
            !window.windows(b"secret".len()).any(|w| w == b"secret"),
            "plaintext leaked into the wire format"
        );
    }

    #[test]
    fn mic_detects_tampering() {
        let f = PhyPayload::uplink(DevAddr(9), 3, 1, b"data");
        let mut wire = f.encode(&keys()).unwrap();
        wire[6] ^= 0x01; // flip a FCnt bit
        assert_eq!(
            PhyPayload::decode(&wire, &keys()),
            Err(FrameCodecError::BadMic)
        );
    }

    #[test]
    fn wrong_network_key_rejected() {
        // This is the paper's filtering model: only after full decode +
        // MIC check can a server reject a foreign packet.
        let f = PhyPayload::uplink(DevAddr(9), 3, 1, b"data");
        let wire = f.encode(&keys()).unwrap();
        let other = SessionKeys {
            nwk_s_key: [0xAB; 16],
            app_s_key: [0x22; 16],
        };
        assert_eq!(
            PhyPayload::decode(&wire, &other),
            Err(FrameCodecError::BadMic)
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            PhyPayload::decode(&[0u8; 5], &keys()),
            Err(FrameCodecError::Truncated)
        );
    }

    #[test]
    fn fopts_overflow_rejected() {
        let mut f = PhyPayload::uplink(DevAddr(1), 1, 1, b"x");
        f.fopts = vec![0; 16];
        assert_eq!(f.encode(&keys()), Err(FrameCodecError::FOptsTooLong(16)));
    }

    #[test]
    fn port0_uses_network_key() {
        // FPort 0 carries MAC commands encrypted with NwkSKey; decode
        // with a wrong AppSKey must still succeed.
        let f = PhyPayload::uplink(DevAddr(1), 1, 0, &[0x03, 0x07]);
        let wire = f.encode(&keys()).unwrap();
        let mut k = keys();
        k.app_s_key = [0xFF; 16];
        let g = PhyPayload::decode(&wire, &k).unwrap();
        assert_eq!(g.frm_payload, vec![0x03, 0x07]);
    }

    #[test]
    fn ten_byte_payload_length_matches_paper() {
        // The paper's experiments use 10-byte payloads; PHY length is
        // 13-byte overhead + 10 = 23 bytes.
        let f = PhyPayload::uplink(DevAddr(1), 1, 1, &[0u8; 10]);
        assert_eq!(f.encoded_len(), 23);
    }

    #[test]
    fn peek_dev_addr_without_keys() {
        let f = PhyPayload::uplink(DevAddr(0x2601_1234), 42, 1, b"hello");
        let wire = f.encode(&keys()).unwrap();
        assert_eq!(PhyPayload::peek_dev_addr(&wire), Some(DevAddr(0x2601_1234)));
        assert_eq!(PhyPayload::peek_dev_addr(&wire[..5]), None, "too short");
        // Join frames carry no DevAddr.
        let mut join = wire.clone();
        join[0] = 0;
        assert_eq!(PhyPayload::peek_dev_addr(&join), None);
    }

    #[test]
    fn peek_fcnt_without_keys() {
        let f = PhyPayload::uplink(DevAddr(0x2601_1234), 0xBEEF, 1, b"hello");
        let wire = f.encode(&keys()).unwrap();
        assert_eq!(PhyPayload::peek_fcnt(&wire), Some(0xBEEF));
        assert_eq!(PhyPayload::peek_fcnt(&wire[..5]), None, "too short");
        let mut join = wire.clone();
        join[0] = 0;
        assert_eq!(PhyPayload::peek_fcnt(&join), None);
    }

    #[test]
    fn multi_block_payload_roundtrip() {
        let payload: Vec<u8> = (0..40).collect();
        let f = PhyPayload::uplink(DevAddr(0xDEAD_BEEF), 1000, 2, &payload);
        let wire = f.encode(&keys()).unwrap();
        let g = PhyPayload::decode(&wire, &keys()).unwrap();
        assert_eq!(g.frm_payload, payload);
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key16(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    /// A published LoRaWAN 1.0 uplink (the `lora-packet` library's
    /// example): interoperability, not just self-consistency.
    #[test]
    fn reference_uplink_vector() {
        let wire = hex("40F17DBE4900020001954378762B11FF0D");
        let keys = SessionKeys {
            nwk_s_key: key16("44024241ed4ce9a68c6a8bc055233fd3"),
            app_s_key: key16("ec925802ae430ca77fd3dd73cb2cc588"),
        };
        let f = PhyPayload::decode(&wire, &keys).unwrap();
        assert_eq!(f.mtype, MType::UnconfirmedDataUp);
        assert_eq!(f.dev_addr, DevAddr(0x49BE_7DF1));
        assert_eq!(f.fcnt, 2);
        assert_eq!(f.fport, Some(1));
        assert_eq!(f.frm_payload, b"test");
        assert_eq!(f.encode(&keys).unwrap(), wire);
    }

    #[test]
    fn downlink_roundtrips_and_direction_is_bound_into_the_mic() {
        let f = PhyPayload {
            mtype: MType::ConfirmedDataDown,
            dev_addr: DevAddr(0x0200_0001),
            adr: false,
            ack: true,
            fcnt: 17,
            fopts: vec![0x06],
            fport: Some(3),
            frm_payload: b"cmd".to_vec(),
        };
        let mut wire = f.encode(&keys()).unwrap();
        assert_eq!(PhyPayload::decode(&wire, &keys()).unwrap(), f);
        // Relabel it as an uplink: the same bytes under the other
        // direction no longer carry a valid MIC.
        wire[0] = MType::ConfirmedDataUp.to_bits() << 5;
        assert_eq!(
            PhyPayload::decode(&wire, &keys()),
            Err(FrameCodecError::BadMic)
        );
    }

    #[test]
    fn reserved_mtype_rejected() {
        let mut wire = PhyPayload::uplink(DevAddr(1), 1, 1, b"x")
            .encode(&keys())
            .unwrap();
        for bits in [0b110u8, 0b111] {
            wire[0] = bits << 5;
            assert_eq!(
                PhyPayload::decode(&wire, &keys()),
                Err(FrameCodecError::BadMType(bits))
            );
            assert_eq!(PhyPayload::peek_dev_addr(&wire), None);
            assert_eq!(PhyPayload::peek_fcnt(&wire), None);
        }
    }

    #[test]
    fn fopts_length_past_the_frame_is_truncated() {
        // MHDR, DevAddr, FCtrl claiming 15 FOpts bytes, FCnt, then
        // only the 4 MIC bytes.
        let wire = [0x40, 1, 0, 0, 0, 0x0f, 0, 0, 0xde, 0xad, 0xbe, 0xef];
        assert_eq!(
            PhyPayload::decode(&wire, &keys()),
            Err(FrameCodecError::Truncated)
        );
    }

    #[test]
    fn keystream_depends_on_fcnt_and_address() {
        let body = |addr: u32, fcnt: u16| {
            let wire = PhyPayload::uplink(DevAddr(addr), fcnt, 1, &[0u8; 16])
                .encode(&keys())
                .unwrap();
            wire[9..wire.len() - 4].to_vec()
        };
        assert_ne!(body(5, 1), body(5, 2), "FCnt must change the keystream");
        assert_ne!(body(5, 1), body(6, 1), "DevAddr must change the keystream");
        assert_eq!(body(5, 1), body(5, 1));
    }

    #[test]
    fn uplink_direction_per_mtype() {
        use MType::*;
        for (m, up) in [
            (JoinRequest, true),
            (JoinAccept, false),
            (UnconfirmedDataUp, true),
            (UnconfirmedDataDown, false),
            (ConfirmedDataUp, true),
            (ConfirmedDataDown, false),
        ] {
            assert_eq!(m.is_uplink(), up, "{m:?}");
            assert_eq!(MType::from_bits(m.to_bits()), Some(m));
        }
    }

    #[test]
    fn errors_name_their_cause() {
        assert_eq!(FrameCodecError::Truncated.to_string(), "frame truncated");
        assert_eq!(
            FrameCodecError::BadMType(0b111).to_string(),
            "unsupported MType bits 0b111"
        );
        assert_eq!(
            FrameCodecError::FOptsTooLong(16).to_string(),
            "FOpts length 16 exceeds 15"
        );
        assert_eq!(
            FrameCodecError::BadMic.to_string(),
            "MIC verification failed"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn keys() -> SessionKeys {
        SessionKeys {
            nwk_s_key: [0x31; 16],
            app_s_key: [0x59; 16],
        }
    }

    proptest! {
        /// Any well-formed frame survives encode → decode bit-exactly.
        #[test]
        fn roundtrip(
            addr in any::<u32>(),
            fcnt in any::<u16>(),
            fport in 1u8..=223,
            adr in any::<bool>(),
            ack in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            fopts in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let f = PhyPayload {
                mtype: MType::UnconfirmedDataUp,
                dev_addr: DevAddr(addr),
                adr,
                ack,
                fcnt,
                fopts: fopts.clone(),
                fport: Some(fport),
                frm_payload: payload,
            };
            let encoded = f.encode(&keys());
            if fopts.len() > 15 {
                prop_assert!(encoded.is_err());
            } else {
                let wire = encoded.unwrap();
                prop_assert_eq!(wire.len(), f.encoded_len());
                let g = PhyPayload::decode(&wire, &keys()).unwrap();
                prop_assert_eq!(g, f);
            }
        }

        /// Any single-bit corruption is caught by the MIC.
        #[test]
        fn bitflip_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..32),
            flip_bit in 0usize..64,
        ) {
            let f = PhyPayload::uplink(DevAddr(77), 3, 1, &payload);
            let mut wire = f.encode(&keys()).unwrap();
            let bit = flip_bit % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(PhyPayload::decode(&wire, &keys()).is_err());
        }
    }
}
