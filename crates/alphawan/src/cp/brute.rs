//! Exhaustive CP solver for tiny instances — the correctness oracle the
//! GA is validated against in tests.
//!
//! Enumerates every gateway channel subset and every node
//! (channel, ring) assignment. Complexity is catastrophic beyond a few
//! nodes/channels; the function asserts the instance is small.

use super::{CpProblem, CpSolution};
use lora_phy::pathloss::DISTANCE_RINGS;

/// Exhaustively find the optimal solution. Panics if the search space
/// exceeds ~10^7 candidates.
pub(crate) fn brute_force(p: &CpProblem) -> (CpSolution, f64) {
    let n_ch = p.n_channels();
    let n_gw = p.n_gateways();
    let n_nd = p.n_nodes();
    assert!(
        n_ch <= 12,
        "instance too large for brute force ({n_ch} channels)"
    );

    // Enumerate feasible channel subsets per gateway.
    let mut gw_options: Vec<Vec<Vec<usize>>> = Vec::with_capacity(n_gw);
    for j in 0..n_gw {
        let mut opts = Vec::new();
        for mask in 1u32..(1 << n_ch) {
            let chans: Vec<usize> = (0..n_ch).filter(|&k| (mask >> k) & 1 == 1).collect();
            let candidate = CpSolution {
                gw_channels: {
                    let mut g = vec![vec![0usize]; n_gw];
                    g[j] = chans.clone();
                    g
                },
                node_channel: vec![0; n_nd],
                node_ring: vec![0; n_nd],
            };
            // Check only this gateway's constraints via a partial probe.
            if chans.len() <= p.gw_limits[j].max_channels && {
                let lo = chans
                    .iter()
                    .map(|&k| p.channels[k].low_hz())
                    .fold(f64::INFINITY, f64::min);
                let hi = chans
                    .iter()
                    .map(|&k| p.channels[k].high_hz())
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo <= p.gw_limits[j].bandwidth_hz as f64
            } {
                opts.push(chans);
            }
            let _ = candidate;
        }
        gw_options.push(opts);
    }

    // Node option space: (channel, ring) pairs.
    let node_options: Vec<(usize, usize)> = (0..n_ch)
        .flat_map(|k| (0..DISTANCE_RINGS).map(move |l| (k, l)))
        .collect();

    let gw_space: f64 = gw_options.iter().map(|o| o.len() as f64).product();
    let node_space = (node_options.len() as f64).powi(n_nd as i32);
    assert!(
        gw_space * node_space < 1e7,
        "instance too large for brute force ({gw_space} × {node_space})"
    );

    let mut best: Option<(f64, CpSolution)> = None;
    let mut gw_idx = vec![0usize; n_gw];
    loop {
        let gw_channels: Vec<Vec<usize>> = gw_idx
            .iter()
            .enumerate()
            .map(|(j, &o)| gw_options[j][o].clone())
            .collect();

        let mut node_idx = vec![0usize; n_nd];
        loop {
            let sol = CpSolution {
                gw_channels: gw_channels.clone(),
                node_channel: node_idx.iter().map(|&o| node_options[o].0).collect(),
                node_ring: node_idx.iter().map(|&o| node_options[o].1).collect(),
            };
            let obj = p.objective(&sol);
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, sol));
            }
            // Odometer over node options.
            let mut carry = true;
            for d in node_idx.iter_mut() {
                if carry {
                    *d += 1;
                    if *d == node_options.len() {
                        *d = 0;
                    } else {
                        carry = false;
                    }
                }
            }
            if carry {
                break;
            }
        }

        // Odometer over gateway options.
        let mut carry = true;
        for (j, d) in gw_idx.iter_mut().enumerate() {
            if carry {
                *d += 1;
                if *d == gw_options[j].len() {
                    *d = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            break;
        }
    }

    let (obj, sol) = best.expect("non-empty search space");
    (sol, obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::GatewayLimits;
    use lora_phy::channel::ChannelGrid;

    #[test]
    fn optimal_on_trivial_instance() {
        // 2 channels, 1 gateway with 2 decoders, 2 nodes: putting each
        // node on its own (channel, ring) is contention-free.
        let channels = ChannelGrid::standard(920_000_000, 400_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; 1]; 2];
        let p = CpProblem::new(
            channels,
            reach,
            vec![1.0; 2],
            vec![GatewayLimits {
                decoders: 2,
                max_channels: 2,
                bandwidth_hz: 1_600_000,
            }],
        );
        let (sol, obj) = brute_force(&p);
        assert_eq!(obj, 0.0);
        assert!(p.feasible(&sol));
        assert!(p.all_connected(&sol));
    }

    #[test]
    fn optimal_reflects_unavoidable_overflow() {
        // 1 channel, 1 gateway with 1 decoder, 2 unit-traffic nodes:
        // k = 2, φ = 1, both nodes pay 1 ⇒ objective ≥ 2 (plus the
        // duplicate penalty if they share a ring).
        let channels = ChannelGrid::standard(920_000_000, 200_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; 1]; 2];
        let p = CpProblem::new(
            channels,
            reach,
            vec![1.0; 2],
            vec![GatewayLimits {
                decoders: 1,
                max_channels: 1,
                bandwidth_hz: 1_600_000,
            }],
        );
        let (_, obj) = brute_force(&p);
        assert_eq!(obj, 2.0, "distinct rings avoid the duplicate penalty");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn refuses_large_instances() {
        let channels = ChannelGrid::standard(920_000_000, 1_600_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; 4]; 20];
        let p = CpProblem::new(
            channels,
            reach,
            vec![1.0; 20],
            vec![GatewayLimits::sx1302(); 4],
        );
        brute_force(&p);
    }
}
