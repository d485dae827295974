//! LMAC (Gamage et al., SIGCOMM'20): carrier-sense multiple access for
//! LoRa. Before transmitting, a node senses the channel (CAD) and defers
//! while another transmission with the same channel + SF is on air.
//!
//! Modeled as a *traffic reshaping* pass over a planned workload: any
//! transmission that would overlap a same-channel same-SF transmission
//! is pushed back until the channel clears (plus a small random
//! backoff). This eliminates channel contention — and, as the paper
//! shows (Fig. 13), does nothing for decoder contention.

use lora_phy::airtime::PacketParams;
use lora_phy::types::Bandwidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::traffic::TxPlan;

/// Reshape a workload with LMAC carrier sensing. Transmissions are
/// processed in start-time order; each defers past any conflicting
/// earlier transmission's end (+ up to `max_backoff_us` random
/// backoff). A transmission whose total deferral would exceed
/// `deadline_us(plan)` is *given up* (CSMA abandons the packet — its
/// next duty window is already due). Returns the surviving plans and
/// the give-up count.
pub fn lmac_reshape_with_deadline<F: Fn(&TxPlan) -> u64>(
    plans: &[TxPlan],
    max_backoff_us: u64,
    seed: u64,
    deadline_us: F,
) -> (Vec<TxPlan>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sorted: Vec<TxPlan> = plans.to_vec();
    sorted.sort_by_key(|p| p.start_us);

    let mut busy: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(sorted.len());
    let mut gave_up = 0u64;
    for mut p in sorted {
        let airtime =
            PacketParams::lorawan_uplink(p.dr.spreading_factor(), Bandwidth::Khz125, p.payload_len)
                .airtime()
                .total_us();
        let key = (p.channel.center_hz, p.dr.spreading_factor().value());
        let free_at = busy.get(&key).copied().unwrap_or(0);
        if p.start_us < free_at {
            let backoff = if max_backoff_us > 0 {
                rng.gen_range(0..=max_backoff_us)
            } else {
                0
            };
            let deferred = free_at + backoff;
            if deferred - p.start_us > deadline_us(&p) {
                gave_up += 1;
                continue;
            }
            p.start_us = deferred;
        }
        busy.insert(key, p.start_us + airtime);
        out.push(p);
    }
    out.sort_by_key(|p| p.start_us);
    (out, gave_up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::Channel;
    use lora_phy::types::DataRate;

    /// LMAC with no deadline: every transmission defers until clear.
    fn lmac_reshape(plans: &[TxPlan], max_backoff_us: u64, seed: u64) -> Vec<TxPlan> {
        let (out, gave_up) = lmac_reshape_with_deadline(plans, max_backoff_us, seed, |_| u64::MAX);
        assert_eq!(gave_up, 0);
        out
    }

    fn plan(node: usize, ch: u32, dr: DataRate, start: u64) -> TxPlan {
        TxPlan {
            node,
            channel: Channel::khz125(ch),
            dr,
            start_us: start,
            payload_len: 10,
        }
    }

    #[test]
    fn conflicting_transmissions_serialized() {
        let ch = 920_100_000;
        let plans = vec![
            plan(0, ch, DataRate::DR5, 0),
            plan(1, ch, DataRate::DR5, 10_000), // overlaps node 0
        ];
        let shaped = lmac_reshape(&plans, 0, 1);
        let airtime = 41_216; // SF7, 10-byte PHY payload
        assert_eq!(shaped[0].start_us, 0);
        assert!(shaped[1].start_us >= airtime, "{}", shaped[1].start_us);
        // No time overlap remains on the same (channel, SF).
        assert!(shaped[1].start_us >= shaped[0].start_us + airtime);
    }

    #[test]
    fn orthogonal_sf_not_deferred() {
        let ch = 920_100_000;
        let plans = vec![
            plan(0, ch, DataRate::DR5, 0),
            plan(1, ch, DataRate::DR4, 10_000), // different SF: fine
        ];
        let shaped = lmac_reshape(&plans, 0, 1);
        assert_eq!(shaped[1].start_us, 10_000);
    }

    #[test]
    fn different_channels_not_deferred() {
        let plans = vec![
            plan(0, 920_100_000, DataRate::DR5, 0),
            plan(1, 920_300_000, DataRate::DR5, 10_000),
        ];
        let shaped = lmac_reshape(&plans, 0, 1);
        assert_eq!(shaped[1].start_us, 10_000);
    }

    #[test]
    fn chain_of_deferrals() {
        let ch = 920_100_000;
        let plans = vec![
            plan(0, ch, DataRate::DR5, 0),
            plan(1, ch, DataRate::DR5, 1_000),
            plan(2, ch, DataRate::DR5, 2_000),
        ];
        let shaped = lmac_reshape(&plans, 0, 1);
        let airtime = 41_216u64;
        assert!(shaped[1].start_us >= airtime);
        assert!(shaped[2].start_us >= 2 * airtime);
    }

    #[test]
    fn deterministic_with_backoff() {
        let ch = 920_100_000;
        let plans = vec![
            plan(0, ch, DataRate::DR5, 0),
            plan(1, ch, DataRate::DR5, 100),
        ];
        let a = lmac_reshape(&plans, 5_000, 9);
        let b = lmac_reshape(&plans, 5_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn output_sorted_by_start() {
        let plans = vec![
            plan(0, 920_100_000, DataRate::DR5, 50_000),
            plan(1, 920_100_000, DataRate::DR5, 0),
        ];
        let shaped = lmac_reshape(&plans, 0, 1);
        assert!(shaped.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }
}
