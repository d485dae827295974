//! Downlink transmission planning: choose *which gateway* answers a
//! Class-A device and *when*.
//!
//! After an uplink, the server has a short deadline (RX1 at +1 s, RX2
//! at +2 s) to push a PULL_RESP to exactly one gateway. The selection
//! mirrors ChirpStack: the gateway that heard the uplink best wins —
//! one more reason the log parser keeps per-gateway SNRs. The emitted
//! [`TxPacket`] is wire-ready for the UDP forwarder.

use crate::logparser::LinkProfile;
use gateway::forwarder::b64;
use gateway::forwarder::codec::TxPacket;
use lora_mac::class_a::{catches_window, rx_windows, ClassAParams, RxWindow};
use lora_phy::channel::Channel;
use lora_phy::types::DataRate;

/// The uplink context a downlink answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkContext {
    /// Concentrator timestamp of the uplink's end, µs.
    pub end_tmst: u64,
    pub channel: Channel,
    pub dr: DataRate,
}

/// A planned downlink: the gateway to use and the wire-ready txpk.
#[derive(Debug, Clone, PartialEq)]
pub struct DownlinkPlan {
    pub gw_id: usize,
    pub window: RxWindow,
    pub txpk: TxPacket,
}

/// Plan a downlink for a device, given its link profile, Class-A
/// parameters, the triggering uplink, and the moment (µs, same clock as
/// `end_tmst`) the payload became ready. Returns `None` when no gateway
/// heard the device or both windows are already missed.
pub fn plan_downlink(
    profile: &LinkProfile,
    params: &ClassAParams,
    uplink: &UplinkContext,
    phy_payload: &[u8],
    ready_us: u64,
    lead_us: u64,
) -> Option<DownlinkPlan> {
    let (gw_id, _snr) = profile.best_gateway()?;
    let windows = rx_windows(params, uplink.end_tmst, uplink.channel, uplink.dr);
    let window = windows
        .into_iter()
        .find(|w| catches_window(w, ready_us, lead_us))?;
    let txpk = TxPacket {
        tmst: window.open_us,
        freq: window.channel.center_hz as f64 / 1e6,
        datr: format!(
            "SF{}BW{}",
            window.dr.spreading_factor().value(),
            window.channel.bw.hz() / 1000
        ),
        powe: 14,
        size: phy_payload.len(),
        data: b64::encode(phy_payload),
    };
    Some(DownlinkPlan {
        gw_id,
        window,
        txpk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LinkProfile {
        let mut p = LinkProfile::default();
        p.best_snr_per_gw.insert(0, -3.0);
        p.best_snr_per_gw.insert(1, 5.5);
        p.best_snr_per_gw.insert(2, 1.0);
        p.uplinks = 3;
        p
    }

    fn uplink() -> UplinkContext {
        UplinkContext {
            end_tmst: 10_000_000,
            channel: Channel::khz125(916_900_000),
            dr: DataRate::DR3,
        }
    }

    fn params() -> ClassAParams {
        ClassAParams::defaults(Channel::khz125(923_300_000))
    }

    #[test]
    fn picks_best_gateway_and_rx1() {
        let plan = plan_downlink(
            &profile(),
            &params(),
            &uplink(),
            &[0x60, 1, 2],
            10_100_000,
            100_000,
        )
        .expect("plan exists");
        assert_eq!(plan.gw_id, 1, "strongest gateway answers");
        assert_eq!(plan.window.open_us, 11_000_000, "RX1");
        assert_eq!(plan.txpk.freq, 916.9, "RX1 uses the uplink channel");
        assert_eq!(plan.txpk.datr, "SF9BW125");
        assert_eq!(plan.txpk.size, 3);
    }

    #[test]
    fn falls_back_to_rx2_when_late() {
        // Ready 950 ms after the uplink with 100 ms lead: RX1 missed.
        let plan = plan_downlink(&profile(), &params(), &uplink(), &[1], 10_950_000, 100_000)
            .expect("RX2 still catchable");
        assert_eq!(plan.window.open_us, 12_000_000, "RX2");
        assert_eq!(plan.txpk.freq, 923.3, "RX2 fixed channel");
        assert_eq!(plan.txpk.datr, "SF12BW125", "RX2 robust rate");
    }

    #[test]
    fn both_windows_missed() {
        assert!(
            plan_downlink(&profile(), &params(), &uplink(), &[1], 12_500_000, 100_000).is_none()
        );
    }

    #[test]
    fn no_gateway_no_plan() {
        let empty = LinkProfile::default();
        assert!(plan_downlink(&empty, &params(), &uplink(), &[1], 10_100_000, 0).is_none());
    }

    #[test]
    fn txpk_payload_roundtrips() {
        let payload = [0x60, 9, 8, 7, 6];
        let plan =
            plan_downlink(&profile(), &params(), &uplink(), &payload, 10_100_000, 0).unwrap();
        assert_eq!(b64::decode(&plan.txpk.data).unwrap(), payload);
    }

    #[test]
    fn ready_exactly_lead_before_rx1_still_makes_it() {
        let plan =
            plan_downlink(&profile(), &params(), &uplink(), &[1], 10_900_000, 100_000).unwrap();
        assert_eq!(plan.window.open_us, 11_000_000, "RX1");
        let plan =
            plan_downlink(&profile(), &params(), &uplink(), &[1], 10_900_001, 100_000).unwrap();
        assert_eq!(plan.window.open_us, 12_000_000, "one µs later: RX2");
    }

    #[test]
    fn rx1_rate_follows_the_dr_offset() {
        let mut p = params();
        p.rx1_dr_offset = 2;
        let plan = plan_downlink(&profile(), &p, &uplink(), &[1], 10_100_000, 0).unwrap();
        assert_eq!(plan.window.dr, DataRate::DR1);
        assert_eq!(plan.txpk.datr, "SF11BW125", "DR3 − 2 = DR1");
        assert_eq!(plan.txpk.freq, 916.9, "RX1 keeps the uplink channel");
    }

    #[test]
    fn equal_snr_answers_from_the_lowest_gateway_id() {
        let mut p = LinkProfile::default();
        for gw in [9, 4, 6] {
            p.best_snr_per_gw.insert(gw, 2.0);
        }
        let plan = plan_downlink(&p, &params(), &uplink(), &[1], 10_100_000, 0).unwrap();
        assert_eq!(plan.gw_id, 4);
    }

    #[test]
    fn txpk_is_timed_to_the_window_it_targets() {
        for ready in [10_100_000, 11_500_000] {
            let plan = plan_downlink(&profile(), &params(), &uplink(), &[1, 2], ready, 0).unwrap();
            assert_eq!(plan.txpk.tmst, plan.window.open_us);
            assert_eq!(
                plan.txpk.freq,
                plan.window.channel.center_hz as f64 / 1e6,
                "the txpk goes out on its window's channel"
            );
            assert_eq!(plan.txpk.powe, 14);
        }
    }

    #[test]
    fn txpk_survives_the_pull_resp_codec() {
        use gateway::forwarder::codec::Datagram;
        let plan = plan_downlink(
            &profile(),
            &params(),
            &uplink(),
            &[0x60, 0xAA, 0x55],
            10_950_000,
            0,
        )
        .unwrap();
        let wire = Datagram::PullResp {
            token: 0x1234,
            txpk: plan.txpk.clone(),
        }
        .encode();
        match Datagram::decode(&wire) {
            Some(Datagram::PullResp { token, txpk }) => {
                assert_eq!(token, 0x1234);
                assert_eq!(txpk, plan.txpk);
            }
            other => panic!("PULL_RESP does not decode: {other:?}"),
        }
    }
}
