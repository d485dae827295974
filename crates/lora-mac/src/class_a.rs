//! Class-A receive-window timing (LoRaWAN §3.3).
//!
//! After each uplink a Class-A device opens two short receive windows:
//! RX1 on the uplink channel (data rate offset by `rx1_dr_offset`) at
//! `RECEIVE_DELAY1`, and RX2 on a fixed channel/data-rate at
//! `RECEIVE_DELAY1 + 1 s`. This is the only moment a server can deliver
//! the MAC commands AlphaWAN's reconfiguration rides on, so a
//! downlink must hit these windows exactly.

use lora_phy::channel::Channel;
use lora_phy::types::DataRate;
use serde::{Deserialize, Serialize};

/// Default RECEIVE_DELAY1 (seconds → µs).
pub const RECEIVE_DELAY1_US: u64 = 1_000_000;

/// Class-A receive parameters for a session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAParams {
    /// RX1 delay after uplink end, µs (RxTimingSetupReq adjustable).
    pub rx1_delay_us: u64,
    /// RX1 data-rate offset (0..=5): RX1 DR = uplink DR − offset.
    pub rx1_dr_offset: usize,
    /// Fixed RX2 channel.
    pub rx2_channel: Channel,
    /// Fixed RX2 data rate (robust default: DR0).
    pub rx2_dr: DataRate,
}

impl ClassAParams {
    /// Defaults for a 915-band deployment.
    pub fn defaults(rx2_channel: Channel) -> ClassAParams {
        ClassAParams {
            rx1_delay_us: RECEIVE_DELAY1_US,
            rx1_dr_offset: 0,
            rx2_channel,
            rx2_dr: DataRate::DR0,
        }
    }
}

/// One concrete receive window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxWindow {
    /// Window opening time, µs.
    pub open_us: u64,
    pub channel: Channel,
    pub dr: DataRate,
}

/// The two windows following an uplink that ended at `uplink_end_us` on
/// (`channel`, `dr`).
pub fn rx_windows(
    params: &ClassAParams,
    uplink_end_us: u64,
    channel: Channel,
    dr: DataRate,
) -> [RxWindow; 2] {
    let rx1_dr = DataRate::from_index(dr.index().saturating_sub(params.rx1_dr_offset))
        .unwrap_or(DataRate::DR0);
    [
        RxWindow {
            open_us: uplink_end_us + params.rx1_delay_us,
            channel,
            dr: rx1_dr,
        },
        RxWindow {
            open_us: uplink_end_us + params.rx1_delay_us + 1_000_000,
            channel: params.rx2_channel,
            dr: params.rx2_dr,
        },
    ]
}

/// Whether a downlink ready at `ready_us` can still make a window
/// (gateways need `lead_us` to schedule the emission).
pub fn catches_window(window: &RxWindow, ready_us: u64, lead_us: u64) -> bool {
    ready_us + lead_us <= window.open_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ClassAParams {
        ClassAParams::defaults(Channel::khz125(923_300_000))
    }

    #[test]
    fn window_timing() {
        let ch = Channel::khz125(916_900_000);
        let [rx1, rx2] = rx_windows(&params(), 5_000_000, ch, DataRate::DR3);
        assert_eq!(rx1.open_us, 6_000_000);
        assert_eq!(rx2.open_us, 7_000_000);
        assert_eq!(rx1.channel, ch);
        assert_eq!(rx1.dr, DataRate::DR3);
        assert_eq!(rx2.channel, params().rx2_channel);
        assert_eq!(rx2.dr, DataRate::DR0);
    }

    #[test]
    fn rx1_dr_offset_applies() {
        let mut p = params();
        p.rx1_dr_offset = 2;
        let ch = Channel::khz125(916_900_000);
        let [rx1, _] = rx_windows(&p, 0, ch, DataRate::DR5);
        assert_eq!(rx1.dr, DataRate::DR3);
        // Saturates at DR0.
        let [rx1, _] = rx_windows(&p, 0, ch, DataRate::DR1);
        assert_eq!(rx1.dr, DataRate::DR0);
    }

    #[test]
    fn custom_rx1_delay() {
        let mut p = params();
        p.rx1_delay_us = 5_000_000;
        let [rx1, rx2] = rx_windows(&p, 0, Channel::khz125(916_900_000), DataRate::DR0);
        assert_eq!(rx1.open_us, 5_000_000);
        assert_eq!(rx2.open_us, 6_000_000);
    }

    #[test]
    fn scheduling_deadline() {
        let [rx1, rx2] = rx_windows(&params(), 0, Channel::khz125(916_900_000), DataRate::DR0);
        // 100 ms lead: a command ready at 850 ms makes RX1; at 950 ms
        // only RX2.
        assert!(catches_window(&rx1, 850_000, 100_000));
        assert!(!catches_window(&rx1, 950_000, 100_000));
        assert!(catches_window(&rx2, 950_000, 100_000));
    }

    #[test]
    fn rx1_rate_saturates_at_dr0_for_every_offset() {
        let ch = Channel::khz125(916_900_000);
        for offset in 0..=5 {
            let mut p = params();
            p.rx1_dr_offset = offset;
            for dr in DataRate::ALL {
                let [rx1, _] = rx_windows(&p, 0, ch, dr);
                assert_eq!(
                    rx1.dr.index(),
                    dr.index().saturating_sub(offset),
                    "{dr:?} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn rx2_ignores_the_uplink_channel_and_rate() {
        let p = params();
        for (hz, dr) in [
            (916_900_000, DataRate::DR5),
            (917_500_000, DataRate::DR2),
            (918_100_000, DataRate::DR0),
        ] {
            let [rx1, rx2] = rx_windows(&p, 3_000_000, Channel::khz125(hz), dr);
            assert_eq!(rx1.channel.center_hz, hz);
            assert_eq!(rx2.channel, p.rx2_channel);
            assert_eq!(rx2.dr, p.rx2_dr);
            assert_eq!(rx2.open_us - rx1.open_us, 1_000_000);
        }
    }

    #[test]
    fn zero_lead_catches_until_the_window_opens() {
        let [rx1, _] = rx_windows(&params(), 0, Channel::khz125(916_900_000), DataRate::DR0);
        assert!(catches_window(&rx1, rx1.open_us, 0));
        assert!(!catches_window(&rx1, rx1.open_us + 1, 0));
    }
}
