//! Downlink reception evaluation.
//!
//! Uplink capacity is the paper's subject, but AlphaWAN's control plane
//! rides on *downlinks* (LinkADRReq / NewChannelReq in RX windows), so
//! the simulator can answer: does a scheduled downlink actually reach
//! the device? Reciprocal path loss plus the same demodulation floors;
//! concurrent downlinks on the same channel collide like uplinks do.

use crate::topology::Topology;
use lora_phy::channel::{overlap_ratio, Channel};
use lora_phy::interference::{capture_outcome, CaptureOutcome};
use lora_phy::snr::{decodable, snr_db};
use lora_phy::types::{Bandwidth, DataRate, TxPowerDbm};

/// One scheduled downlink emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownlinkTx {
    /// Transmitting gateway index.
    pub gw: usize,
    /// Node the downlink is addressed to.
    pub target_node: usize,
    /// Downlink channel.
    pub channel: Channel,
    /// Downlink data rate.
    pub dr: DataRate,
    /// Gateway Tx power.
    pub power: TxPowerDbm,
    /// Emission start, µs.
    pub start_us: u64,
    /// On-air duration, µs.
    pub airtime_us: u64,
}

impl DownlinkTx {
    fn end_us(&self) -> u64 {
        self.start_us + self.airtime_us
    }

    fn overlaps(&self, other: &DownlinkTx) -> bool {
        self.start_us < other.end_us() && other.start_us < self.end_us()
    }
}

/// Evaluate a batch of downlinks: which targets receive theirs?
/// Reciprocity: the node↔gateway loss is the topology's uplink loss.
pub fn evaluate_downlinks(topo: &Topology, txs: &[DownlinkTx]) -> Vec<bool> {
    txs.iter()
        .enumerate()
        .map(|(i, tx)| {
            let rssi = tx.power.0 - topo.loss_db[tx.target_node][tx.gw];
            let snr = snr_db(rssi, Bandwidth::Khz125);
            if !decodable(snr, tx.dr.spreading_factor(), 0.0) {
                return false;
            }
            // Same-channel same-SF concurrent downlinks: capture.
            for (j, other) in txs.iter().enumerate() {
                if i == j || !tx.overlaps(other) {
                    continue;
                }
                if overlap_ratio(&tx.channel, &other.channel) < 0.75
                    || other.dr.spreading_factor() != tx.dr.spreading_factor()
                {
                    continue;
                }
                let other_rssi = other.power.0 - topo.loss_db[tx.target_node][other.gw];
                let survives = match capture_outcome(rssi, other_rssi) {
                    CaptureOutcome::FirstSurvives => true,
                    CaptureOutcome::SecondSurvives | CaptureOutcome::BothLost => false,
                };
                if !survives {
                    return false;
                }
            }
            true
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::pathloss::PathLossModel;

    fn topo() -> Topology {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let mut t = Topology::new((200.0, 200.0), 3, 2, model, 1);
        // Deterministic losses: node n ↔ gw g.
        t.loss_db = vec![vec![110.0, 130.0], vec![125.0, 112.0], vec![140.0, 139.0]].into();
        t
    }

    fn tx(gw: usize, node: usize, ch: u32, dr: DataRate, start: u64) -> DownlinkTx {
        DownlinkTx {
            gw,
            target_node: node,
            channel: Channel::khz125(ch),
            dr,
            power: TxPowerDbm(14.0),
            start_us: start,
            airtime_us: 100_000,
        }
    }

    #[test]
    fn clean_downlink_delivered() {
        let t = topo();
        // Node 0 from gw 0: SNR = 14 − 110 + 117 = 21 dB.
        let r = evaluate_downlinks(&t, &[tx(0, 0, 916_900_000, DataRate::DR5, 0)]);
        assert_eq!(r, vec![true]);
    }

    #[test]
    fn weak_link_fails_at_fast_rate_but_not_slow() {
        let t = topo();
        // Node 2 from gw 0: SNR = 14 − 140 + 117 = −9 dB.
        let fast = evaluate_downlinks(&t, &[tx(0, 2, 916_900_000, DataRate::DR5, 0)]);
        assert_eq!(fast, vec![false], "DR5 floor is −7.5 dB");
        let slow = evaluate_downlinks(&t, &[tx(0, 2, 916_900_000, DataRate::DR2, 0)]);
        assert_eq!(slow, vec![true], "DR2 floor is −15 dB");
    }

    #[test]
    fn concurrent_same_channel_downlinks_capture() {
        let t = topo();
        // Both gateways answer different nodes on the same channel+SF,
        // overlapping in time. At node 0, gw0 is 20 dB stronger: its
        // downlink survives; at node 1, gw1 is 13 dB stronger: survives.
        let txs = [
            tx(0, 0, 916_900_000, DataRate::DR3, 0),
            tx(1, 1, 916_900_000, DataRate::DR3, 10_000),
        ];
        assert_eq!(evaluate_downlinks(&t, &txs), vec![true, true]);
        // But a victim hearing both at similar power loses.
        let txs = [
            tx(0, 2, 916_900_000, DataRate::DR1, 0), // −9 dB, floor −17.5
            tx(1, 1, 916_900_000, DataRate::DR1, 10_000),
        ];
        // At node 2, gw1's signal is 14−139+117 = −8 dB vs gw0's −9 dB:
        // within the capture margin ⇒ node 2's downlink is destroyed.
        assert!(!evaluate_downlinks(&t, &txs)[0]);
    }

    #[test]
    fn disjoint_channels_no_interaction() {
        let t = topo();
        let txs = [
            tx(0, 0, 916_900_000, DataRate::DR3, 0),
            tx(1, 1, 917_300_000, DataRate::DR3, 0),
        ];
        assert_eq!(evaluate_downlinks(&t, &txs), vec![true, true]);
    }

    #[test]
    fn non_overlapping_in_time_no_interaction() {
        let t = topo();
        let txs = [
            tx(0, 2, 916_900_000, DataRate::DR1, 0),
            tx(1, 1, 916_900_000, DataRate::DR1, 200_000),
        ];
        assert!(evaluate_downlinks(&t, &txs)[0]);
    }
}
