//! End-device session state.
//!
//! A [`Device`] owns its radio configuration (enabled channels, data
//! rate, Tx power) and applies downlink MAC commands exactly the way a
//! COTS LoRaWAN 1.0.x stack would — this is the device half of
//! AlphaWAN's "no hardware modification" claim: everything the planner
//! wants is expressible as LinkADRReq / NewChannelReq.

use crate::commands::{tx_power_dbm_for_index, MacCommand};
use lora_phy::channel::Channel;
use lora_phy::types::{DataRate, TxPowerDbm};
use serde::{Deserialize, Serialize};

/// 32-bit LoRaWAN device address. The 7 MSBs (NwkID) identify the
/// operator — but only after the frame is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DevAddr(pub u32);

impl DevAddr {
    /// The operator prefix (NwkID, top 7 bits).
    pub fn nwk_id(self) -> u8 {
        (self.0 >> 25) as u8
    }

    /// Build an address from an operator id and a device index.
    pub fn new(nwk_id: u8, index: u32) -> DevAddr {
        DevAddr(((nwk_id as u32 & 0x7f) << 25) | (index & 0x01ff_ffff))
    }
}

/// LoRaWAN 1.0.x session keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKeys {
    pub nwk_s_key: [u8; 16],
    pub app_s_key: [u8; 16],
}

impl SessionKeys {
    /// Deterministic per-device keys for simulation (derived, not random,
    /// so traces are reproducible).
    pub fn derive(network_key: &[u8; 16], addr: DevAddr) -> SessionKeys {
        use crate::aes::Aes128;
        let aes = Aes128::new(network_key);
        let mut block = [0u8; 16];
        block[0] = 0x01;
        block[1..5].copy_from_slice(&addr.0.to_le_bytes());
        let nwk = aes.encrypt(&block);
        block[0] = 0x02;
        let app = aes.encrypt(&block);
        SessionKeys {
            nwk_s_key: nwk,
            app_s_key: app,
        }
    }
}

/// One channel slot in the device's channel table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceChannel {
    pub channel: Channel,
    pub enabled: bool,
}

/// A simulated COTS end device.
#[derive(Debug, Clone)]
pub struct Device {
    pub addr: DevAddr,
    /// Channel table (up to 16 slots, LoRaWAN dynamic-region style).
    pub channels: Vec<DeviceChannel>,
    pub data_rate: DataRate,
    pub tx_power: TxPowerDbm,
    /// Uplink frame counter.
    pub fcnt_up: u16,
    /// Max duty cycle as 1/2^n (DutyCycleReq), n=0 ⇒ no extra limit.
    pub max_duty_exp: u8,
}

impl Device {
    /// New device with a default channel table.
    pub fn new(addr: DevAddr, channels: Vec<Channel>) -> Device {
        Device {
            addr,
            channels: channels
                .into_iter()
                .map(|channel| DeviceChannel {
                    channel,
                    enabled: true,
                })
                .collect(),
            data_rate: DataRate::DR0,
            tx_power: TxPowerDbm(14.0),
            fcnt_up: 0,
            max_duty_exp: 0,
        }
    }

    /// Currently enabled channels.
    pub fn enabled_channels(&self) -> Vec<Channel> {
        self.channels
            .iter()
            .filter(|c| c.enabled)
            .map(|c| c.channel)
            .collect()
    }

    /// Apply one downlink MAC command; returns the answer the device
    /// would queue for its next uplink.
    pub fn apply(&mut self, cmd: &MacCommand) -> Option<MacCommand> {
        match *cmd {
            MacCommand::LinkAdrReq(req) => {
                self.data_rate = req.data_rate;
                self.tx_power = TxPowerDbm(tx_power_dbm_for_index(req.tx_power_idx));
                for (i, slot) in self.channels.iter_mut().enumerate().take(16) {
                    slot.enabled = req.ch_mask & (1 << i) != 0;
                }
                Some(MacCommand::LinkAdrAns {
                    power_ok: true,
                    dr_ok: true,
                    ch_mask_ok: self.channels.iter().any(|c| c.enabled),
                })
            }
            MacCommand::DutyCycleReq { max_duty_cycle } => {
                self.max_duty_exp = max_duty_cycle;
                None
            }
            MacCommand::NewChannelReq(req) => {
                let idx = req.ch_index as usize;
                if idx >= 16 {
                    return Some(MacCommand::NewChannelAns {
                        freq_ok: false,
                        dr_ok: true,
                    });
                }
                let ch = Channel::khz125(req.freq_hz);
                if idx < self.channels.len() {
                    self.channels[idx] = DeviceChannel {
                        channel: ch,
                        enabled: true,
                    };
                } else {
                    while self.channels.len() < idx {
                        // Fill gaps with disabled placeholder slots.
                        self.channels.push(DeviceChannel {
                            channel: ch,
                            enabled: false,
                        });
                    }
                    self.channels.push(DeviceChannel {
                        channel: ch,
                        enabled: true,
                    });
                }
                Some(MacCommand::NewChannelAns {
                    freq_ok: true,
                    dr_ok: true,
                })
            }
            MacCommand::TxParamSetupReq(_) | MacCommand::DevStatusReq => None,
            // Answer-direction commands are not applicable to a device.
            _ => None,
        }
    }

    /// Take the next uplink frame counter value.
    pub fn next_fcnt(&mut self) -> u16 {
        let f = self.fcnt_up;
        self.fcnt_up = self.fcnt_up.wrapping_add(1);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{LinkAdrReq, NewChannelReq};
    use lora_phy::types::DataRate::*;

    fn dev() -> Device {
        Device::new(
            DevAddr::new(1, 7),
            (0..8)
                .map(|i| Channel::khz125(923_200_000 + i * 200_000))
                .collect(),
        )
    }

    #[test]
    fn dev_addr_packing() {
        let a = DevAddr::new(0x13, 12345);
        assert_eq!(a.nwk_id(), 0x13);
        assert_eq!(a.0 & 0x01ff_ffff, 12345);
    }

    #[test]
    fn link_adr_reconfigures_everything() {
        let mut d = dev();
        let ans = d.apply(&MacCommand::LinkAdrReq(LinkAdrReq {
            data_rate: DR4,
            tx_power_idx: 3,
            ch_mask: 0b0000_0101,
            redundancy: 0,
        }));
        assert_eq!(d.data_rate, DR4);
        assert_eq!(d.tx_power.0, 14.0);
        assert_eq!(d.enabled_channels().len(), 2);
        assert_eq!(
            ans,
            Some(MacCommand::LinkAdrAns {
                power_ok: true,
                dr_ok: true,
                ch_mask_ok: true
            })
        );
    }

    #[test]
    fn empty_mask_flagged() {
        let mut d = dev();
        let ans = d.apply(&MacCommand::LinkAdrReq(LinkAdrReq {
            data_rate: DR0,
            tx_power_idx: 0,
            ch_mask: 0,
            redundancy: 0,
        }));
        assert_eq!(
            ans,
            Some(MacCommand::LinkAdrAns {
                power_ok: true,
                dr_ok: true,
                ch_mask_ok: false
            })
        );
    }

    #[test]
    fn new_channel_replaces_and_extends() {
        let mut d = dev();
        d.apply(&MacCommand::NewChannelReq(NewChannelReq {
            ch_index: 2,
            freq_hz: 924_500_000,
            max_dr: DR5,
            min_dr: DR0,
        }));
        assert_eq!(d.channels[2].channel.center_hz, 924_500_000);
        // Extend past the current table into slot 12.
        d.apply(&MacCommand::NewChannelReq(NewChannelReq {
            ch_index: 12,
            freq_hz: 924_900_000,
            max_dr: DR5,
            min_dr: DR0,
        }));
        assert_eq!(d.channels.len(), 13);
        assert!(d.channels[12].enabled);
        assert!(!d.channels[9].enabled, "gap slots must be disabled");
    }

    #[test]
    fn channel_index_out_of_range_rejected() {
        let mut d = dev();
        let ans = d.apply(&MacCommand::NewChannelReq(NewChannelReq {
            ch_index: 16,
            freq_hz: 924_900_000,
            max_dr: DR5,
            min_dr: DR0,
        }));
        assert_eq!(
            ans,
            Some(MacCommand::NewChannelAns {
                freq_ok: false,
                dr_ok: true
            })
        );
        assert_eq!(d.channels.len(), 8);
    }

    #[test]
    fn fcnt_increments_and_wraps() {
        let mut d = dev();
        d.fcnt_up = u16::MAX;
        assert_eq!(d.next_fcnt(), u16::MAX);
        assert_eq!(d.next_fcnt(), 0);
    }

    #[test]
    fn derived_keys_distinct_per_device() {
        let nk = [9u8; 16];
        let k1 = SessionKeys::derive(&nk, DevAddr::new(1, 1));
        let k2 = SessionKeys::derive(&nk, DevAddr::new(1, 2));
        assert_ne!(k1.nwk_s_key, k2.nwk_s_key);
        assert_ne!(k1.nwk_s_key, k1.app_s_key);
        // Deterministic.
        assert_eq!(k1, SessionKeys::derive(&nk, DevAddr::new(1, 1)));
    }

    #[test]
    fn dev_addr_new_masks_oversized_fields() {
        let a = DevAddr::new(0xFF, u32::MAX);
        assert_eq!(a.nwk_id(), 0x7f);
        assert_eq!(a.0 & 0x01ff_ffff, 0x01ff_ffff);
        assert_eq!(DevAddr::new(0, 0), DevAddr(0));
    }

    #[test]
    fn duty_cycle_req_is_applied_silently() {
        let mut d = dev();
        let ans = d.apply(&MacCommand::DutyCycleReq { max_duty_cycle: 7 });
        assert_eq!(ans, None, "DutyCycleReq has no answer payload here");
        assert_eq!(d.max_duty_exp, 7);
    }

    #[test]
    fn link_adr_mask_bits_past_the_table_enable_nothing() {
        // Bits 8..15 name slots this 8-channel device does not have.
        let mut d = dev();
        let ans = d.apply(&MacCommand::LinkAdrReq(LinkAdrReq {
            data_rate: DR2,
            tx_power_idx: 7,
            ch_mask: 0xFF00,
            redundancy: 0,
        }));
        assert!(d.enabled_channels().is_empty());
        assert_eq!(d.tx_power.0, 6.0, "index 7 is the lowest power");
        assert_eq!(
            ans,
            Some(MacCommand::LinkAdrAns {
                power_ok: true,
                dr_ok: true,
                ch_mask_ok: false
            })
        );
    }

    #[test]
    fn answers_and_status_requests_leave_the_device_unchanged() {
        let mut d = dev();
        for cmd in [
            MacCommand::DevStatusReq,
            MacCommand::LinkAdrAns {
                power_ok: true,
                dr_ok: true,
                ch_mask_ok: true,
            },
            MacCommand::NewChannelAns {
                freq_ok: true,
                dr_ok: true,
            },
            MacCommand::DevStatusAns {
                battery: 200,
                snr_margin: 3,
            },
        ] {
            assert_eq!(d.apply(&cmd), None, "{cmd:?}");
        }
        assert_eq!(d.data_rate, DR0);
        assert_eq!(d.tx_power.0, 14.0);
        assert_eq!(d.enabled_channels().len(), 8);
    }
}
