//! LoRaWAN MAC commands — the standard, COTS-compatible control surface
//! AlphaWAN drives (§4.3.3: "AlphaWAN exploits the LoRaWAN ADR commands
//! to configure frequency channels, data rates, and transmit power for
//! end nodes", and the network bootstraps new plans "using the LoRaWAN
//! channel creation commands").
//!
//! Wire format per LoRaWAN 1.0.4 §5; only the downlink (network → device)
//! requests and their uplink answers that AlphaWAN needs are implemented.

use lora_phy::types::DataRate;

/// LinkADRReq: set data rate, Tx power and the enabled-channel mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkAdrReq {
    pub data_rate: DataRate,
    /// Power index 0..=7 (0 = max EIRP, each step −2 dB).
    pub tx_power_idx: u8,
    /// Channel mask over 16 channels.
    pub ch_mask: u16,
    /// Channel-mask control (bank selector) + NbTrans nibble.
    pub redundancy: u8,
}

/// NewChannelReq: create or modify a frequency channel on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewChannelReq {
    pub ch_index: u8,
    /// Channel frequency in Hz (encoded as freq/100 over 3 bytes).
    pub freq_hz: u32,
    /// Max/min data-rate nibbles.
    pub max_dr: DataRate,
    pub min_dr: DataRate,
}

/// TxParamSetupReq: dwell time / max EIRP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxParamSetupReq {
    pub max_eirp_idx: u8,
}

/// The MAC commands used by the AlphaWAN control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacCommand {
    LinkAdrReq(LinkAdrReq),
    LinkAdrAns {
        power_ok: bool,
        dr_ok: bool,
        ch_mask_ok: bool,
    },
    DutyCycleReq {
        max_duty_cycle: u8,
    },
    NewChannelReq(NewChannelReq),
    NewChannelAns {
        freq_ok: bool,
        dr_ok: bool,
    },
    TxParamSetupReq(TxParamSetupReq),
    DevStatusReq,
    DevStatusAns {
        battery: u8,
        snr_margin: i8,
    },
}

/// Command identifiers (CID).
impl MacCommand {
    pub fn cid(&self) -> u8 {
        match self {
            MacCommand::LinkAdrReq(_) | MacCommand::LinkAdrAns { .. } => 0x03,
            MacCommand::DutyCycleReq { .. } => 0x04,
            MacCommand::DevStatusReq | MacCommand::DevStatusAns { .. } => 0x06,
            MacCommand::NewChannelReq(_) | MacCommand::NewChannelAns { .. } => 0x07,
            MacCommand::TxParamSetupReq(_) => 0x09,
        }
    }

    /// Encode one command (CID + payload) onto `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.cid());
        match *self {
            MacCommand::LinkAdrReq(r) => {
                out.push(((r.data_rate.index() as u8) << 4) | (r.tx_power_idx & 0x0f));
                out.extend_from_slice(&r.ch_mask.to_le_bytes());
                out.push(r.redundancy);
            }
            MacCommand::LinkAdrAns {
                power_ok,
                dr_ok,
                ch_mask_ok,
            } => {
                out.push(((power_ok as u8) << 2) | ((dr_ok as u8) << 1) | ch_mask_ok as u8);
            }
            MacCommand::DutyCycleReq { max_duty_cycle } => out.push(max_duty_cycle & 0x0f),
            MacCommand::NewChannelReq(r) => {
                out.push(r.ch_index);
                let f = r.freq_hz / 100;
                out.extend_from_slice(&f.to_le_bytes()[..3]);
                out.push(((r.max_dr.index() as u8) << 4) | r.min_dr.index() as u8);
            }
            MacCommand::NewChannelAns { freq_ok, dr_ok } => {
                out.push(((dr_ok as u8) << 1) | freq_ok as u8)
            }
            MacCommand::TxParamSetupReq(r) => out.push(r.max_eirp_idx & 0x0f),
            MacCommand::DevStatusReq => {}
            MacCommand::DevStatusAns {
                battery,
                snr_margin,
            } => {
                out.push(battery);
                out.push((snr_margin as u8) & 0x3f);
            }
        }
    }

    /// Decode one *downlink* (request-direction) command from the front
    /// of `buf`; returns the command and bytes consumed. Answer-direction
    /// commands share CIDs, so the decode direction must be stated.
    pub fn decode_downlink(buf: &[u8]) -> Option<(MacCommand, usize)> {
        let cid = *buf.first()?;
        match cid {
            0x03 => {
                if buf.len() < 5 {
                    return None;
                }
                let dr = DataRate::from_index((buf[1] >> 4) as usize)?;
                Some((
                    MacCommand::LinkAdrReq(LinkAdrReq {
                        data_rate: dr,
                        tx_power_idx: buf[1] & 0x0f,
                        ch_mask: u16::from_le_bytes([buf[2], buf[3]]),
                        redundancy: buf[4],
                    }),
                    5,
                ))
            }
            0x04 => {
                if buf.len() < 2 {
                    return None;
                }
                Some((
                    MacCommand::DutyCycleReq {
                        max_duty_cycle: buf[1] & 0x0f,
                    },
                    2,
                ))
            }
            0x06 => Some((MacCommand::DevStatusReq, 1)),
            0x07 => {
                if buf.len() < 6 {
                    return None;
                }
                let freq = u32::from_le_bytes([buf[2], buf[3], buf[4], 0]) * 100;
                let max_dr = DataRate::from_index((buf[5] >> 4) as usize)?;
                let min_dr = DataRate::from_index((buf[5] & 0x0f) as usize)?;
                Some((
                    MacCommand::NewChannelReq(NewChannelReq {
                        ch_index: buf[1],
                        freq_hz: freq,
                        max_dr,
                        min_dr,
                    }),
                    6,
                ))
            }
            0x09 => {
                if buf.len() < 2 {
                    return None;
                }
                Some((
                    MacCommand::TxParamSetupReq(TxParamSetupReq {
                        max_eirp_idx: buf[1] & 0x0f,
                    }),
                    2,
                ))
            }
            _ => None,
        }
    }

    /// Decode a whole FOpts/FRMPayload block of downlink commands.
    pub fn decode_all_downlink(mut buf: &[u8]) -> Vec<MacCommand> {
        let mut out = Vec::new();
        while let Some((cmd, used)) = Self::decode_downlink(buf) {
            out.push(cmd);
            buf = &buf[used..];
        }
        out
    }
}

/// Map a LinkADR power index to dBm (region max EIRP 20 dBm, −2 dB steps).
pub fn tx_power_dbm_for_index(idx: u8) -> f64 {
    20.0 - 2.0 * idx.min(7) as f64
}

/// Inverse of [`tx_power_dbm_for_index`], rounding to the nearest index.
pub fn tx_power_index_for_dbm(dbm: f64) -> u8 {
    (((20.0 - dbm) / 2.0).round().clamp(0.0, 7.0)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::types::DataRate::*;

    #[test]
    fn link_adr_roundtrip() {
        let cmd = MacCommand::LinkAdrReq(LinkAdrReq {
            data_rate: DR3,
            tx_power_idx: 4,
            ch_mask: 0b0000_0000_1010_0101,
            redundancy: 0x01,
        });
        let mut wire = Vec::new();
        cmd.encode(&mut wire);
        assert_eq!(wire.len(), 5);
        let (decoded, used) = MacCommand::decode_downlink(&wire).unwrap();
        assert_eq!(used, 5);
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn new_channel_roundtrip_preserves_frequency() {
        let cmd = MacCommand::NewChannelReq(NewChannelReq {
            ch_index: 3,
            freq_hz: 923_200_000,
            max_dr: DR5,
            min_dr: DR0,
        });
        let mut wire = Vec::new();
        cmd.encode(&mut wire);
        assert_eq!(wire.len(), 6);
        let (decoded, _) = MacCommand::decode_downlink(&wire).unwrap();
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn frequency_encoding_is_100hz_granular() {
        // 923.2 MHz /100 = 9_232_000 fits in 3 bytes (max 16_777_215).
        let cmd = MacCommand::NewChannelReq(NewChannelReq {
            ch_index: 0,
            freq_hz: 923_200_037, // sub-100 Hz part is truncated
            max_dr: DR5,
            min_dr: DR0,
        });
        let mut wire = Vec::new();
        cmd.encode(&mut wire);
        let (decoded, _) = MacCommand::decode_downlink(&wire).unwrap();
        match decoded {
            MacCommand::NewChannelReq(r) => assert_eq!(r.freq_hz, 923_200_000),
            _ => panic!(),
        }
    }

    #[test]
    fn decode_sequence() {
        let mut wire = Vec::new();
        MacCommand::DutyCycleReq { max_duty_cycle: 7 }.encode(&mut wire);
        MacCommand::DevStatusReq.encode(&mut wire);
        MacCommand::TxParamSetupReq(TxParamSetupReq { max_eirp_idx: 2 }).encode(&mut wire);
        let cmds = MacCommand::decode_all_downlink(&wire);
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[1], MacCommand::DevStatusReq);
    }

    #[test]
    fn truncated_command_yields_nothing() {
        // LinkAdrReq needs 5 bytes; give it 3.
        assert!(MacCommand::decode_downlink(&[0x03, 0x50, 0x00]).is_none());
    }

    #[test]
    fn unknown_cid_rejected() {
        assert!(MacCommand::decode_downlink(&[0x7f, 0, 0]).is_none());
    }

    #[test]
    fn power_index_mapping() {
        assert_eq!(tx_power_dbm_for_index(0), 20.0);
        assert_eq!(tx_power_dbm_for_index(7), 6.0);
        assert_eq!(tx_power_index_for_dbm(20.0), 0);
        assert_eq!(tx_power_index_for_dbm(14.0), 3);
        assert_eq!(tx_power_index_for_dbm(-3.0), 7);
        for idx in 0..=7u8 {
            assert_eq!(tx_power_index_for_dbm(tx_power_dbm_for_index(idx)), idx);
        }
    }

    #[test]
    fn cids_follow_the_specification() {
        let req = LinkAdrReq {
            data_rate: DR0,
            tx_power_idx: 0,
            ch_mask: 1,
            redundancy: 0,
        };
        let chan = NewChannelReq {
            ch_index: 0,
            freq_hz: 923_200_000,
            max_dr: DR5,
            min_dr: DR0,
        };
        for (cmd, cid) in [
            (MacCommand::LinkAdrReq(req), 0x03),
            (MacCommand::DutyCycleReq { max_duty_cycle: 0 }, 0x04),
            (MacCommand::DevStatusReq, 0x06),
            (MacCommand::NewChannelReq(chan), 0x07),
            (
                MacCommand::TxParamSetupReq(TxParamSetupReq { max_eirp_idx: 0 }),
                0x09,
            ),
        ] {
            assert_eq!(cmd.cid(), cid, "{cmd:?}");
            let mut wire = Vec::new();
            cmd.encode(&mut wire);
            assert_eq!(wire[0], cid, "{cmd:?} leads with its CID");
        }
    }

    #[test]
    fn answers_encode_their_status_bits() {
        let enc = |cmd: MacCommand| {
            let mut wire = Vec::new();
            cmd.encode(&mut wire);
            wire
        };
        assert_eq!(
            enc(MacCommand::LinkAdrAns {
                power_ok: true,
                dr_ok: false,
                ch_mask_ok: true
            }),
            [0x03, 0b101]
        );
        assert_eq!(
            enc(MacCommand::NewChannelAns {
                freq_ok: true,
                dr_ok: false
            }),
            [0x07, 0b01]
        );
        // SNR margin is a 6-bit two's-complement field.
        assert_eq!(
            enc(MacCommand::DevStatusAns {
                battery: 255,
                snr_margin: -5
            }),
            [0x06, 255, 0x3b]
        );
    }

    #[test]
    fn out_of_range_data_rate_nibble_rejected() {
        // DR15 in a LinkADRReq, and a NewChannelReq whose max DR is 9.
        assert!(MacCommand::decode_downlink(&[0x03, 0xF0, 0xFF, 0x00, 0x00]).is_none());
        assert!(MacCommand::decode_downlink(&[0x07, 0, 0x80, 0xDE, 0x8C, 0x90]).is_none());
    }

    #[test]
    fn decoding_stops_at_the_first_unknown_command() {
        let mut wire = Vec::new();
        MacCommand::DevStatusReq.encode(&mut wire);
        wire.push(0x7f);
        MacCommand::DevStatusReq.encode(&mut wire);
        assert_eq!(
            MacCommand::decode_all_downlink(&wire),
            vec![MacCommand::DevStatusReq]
        );
        assert!(MacCommand::decode_all_downlink(&[]).is_empty());
    }

    #[test]
    fn four_bit_request_fields_are_masked() {
        let mut wire = Vec::new();
        MacCommand::DutyCycleReq {
            max_duty_cycle: 0x1F,
        }
        .encode(&mut wire);
        MacCommand::TxParamSetupReq(TxParamSetupReq { max_eirp_idx: 0x3A }).encode(&mut wire);
        assert_eq!(wire, [0x04, 0x0F, 0x09, 0x0A]);
        assert_eq!(
            MacCommand::decode_all_downlink(&wire),
            vec![
                MacCommand::DutyCycleReq {
                    max_duty_cycle: 0x0F
                },
                MacCommand::TxParamSetupReq(TxParamSetupReq { max_eirp_idx: 0x0A }),
            ]
        );
    }
}
