//! Spectrum carving: frequency-misaligned channel plans (Fig. 9).
//!
//! The Master divides the band into an overlapping sub-channel grid and
//! hands each operator an interleaved slice: operator `o` of `m` gets
//! the channels at offsets `o, o+m, o+2m, …`. Within one operator the
//! channels are then spaced `m·s ≥ 125 kHz` apart (non-overlapping);
//! *between* operators adjacent plans overlap by the chosen ratio,
//! which stays below the radios' detection threshold, so coexisting
//! networks never enter each other's decoder pipelines.

use super::RegionSpec;
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::interference::DETECTION_OVERLAP_THRESHOLD;
use serde::{Deserialize, Serialize};

/// The Master's channel divider for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelDivider {
    grid: ChannelGrid,
    /// Number of interleaved operator plans (`m`).
    slots: usize,
    /// Adjacent-plan overlap ratio actually used.
    overlap: f64,
}

impl ChannelDivider {
    /// Divider from an explicit overlap ratio. `overlap` is clamped so
    /// that (a) intra-operator channels never overlap
    /// (`slots·(1−overlap) ≥ 1`) and (b) inter-operator overlap stays
    /// below the detection threshold.
    pub fn new(band_low_hz: u32, spectrum_hz: u32, n_operators: usize, overlap: f64) -> Self {
        let n = n_operators.max(1);
        let max_by_slots = 1.0 - 1.0 / n as f64;
        let overlap = overlap
            .min(max_by_slots)
            .clamp(0.0, DETECTION_OVERLAP_THRESHOLD - 0.05);
        let grid = ChannelGrid::overlapping(band_low_hz, spectrum_hz, overlap);
        ChannelDivider {
            grid,
            slots: n,
            overlap,
        }
    }

    /// The policy of §4.3.2: pick the misalignment from the expected
    /// number of coexisting networks (more networks ⇒ larger overlap,
    /// capped at 60% — the largest ratio the paper evaluates).
    pub fn for_region(region: &RegionSpec) -> ChannelDivider {
        let n = region.expected_networks.max(1);
        let overlap = (1.0 - 1.0 / n as f64).min(0.6);
        ChannelDivider::new(region.band_low_hz, region.spectrum_hz, n, overlap)
    }

    /// Number of operator plan slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Adjacent-plan overlap ratio in use.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// The channel plan for slot `o` (0-based).
    pub fn plan(&self, o: usize) -> Vec<Channel> {
        assert!(o < self.slots, "slot {o} out of {} slots", self.slots);
        (o..self.grid.count)
            .step_by(self.slots)
            .map(|i| self.grid.channel(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::overlap_ratio;

    #[test]
    fn single_operator_gets_standard_like_plan() {
        let d = ChannelDivider::new(923_200_000, 1_600_000, 1, 0.6);
        // Overlap clamps to 0 for a single operator.
        assert_eq!(d.overlap(), 0.0);
        let plan = d.plan(0);
        assert!(plan.len() >= 8, "contiguous 125 kHz grid: {}", plan.len());
        for w in plan.windows(2) {
            assert_eq!(overlap_ratio(&w[0], &w[1]), 0.0);
        }
    }

    #[test]
    fn intra_plan_channels_never_overlap() {
        for n in 2..=6 {
            let d = ChannelDivider::new(923_200_000, 1_600_000, n, 0.6);
            for o in 0..n {
                let plan = d.plan(o);
                for a in 0..plan.len() {
                    for b in (a + 1)..plan.len() {
                        assert_eq!(overlap_ratio(&plan[a], &plan[b]), 0.0, "n={n} slot={o}");
                    }
                }
            }
        }
    }

    #[test]
    fn inter_plan_overlap_below_detection() {
        for n in 2..=6 {
            let d = ChannelDivider::new(923_200_000, 1_600_000, n, 0.6);
            let plans: Vec<Vec<Channel>> = (0..n).map(|o| d.plan(o)).collect();
            for x in 0..n {
                for y in (x + 1)..n {
                    for ca in &plans[x] {
                        for cb in &plans[y] {
                            assert!(
                                overlap_ratio(ca, cb) < DETECTION_OVERLAP_THRESHOLD,
                                "n={n}: plans {x},{y} detectable"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn six_networks_fit_with_usable_plans() {
        // §5.1.4 deploys six networks of 24 nodes each in 1.6 MHz;
        // each plan must offer enough (channel × DR) slots for ≥20
        // concurrent users (Fig. 12d floor).
        let d = ChannelDivider::new(923_200_000, 1_600_000, 6, 0.6);
        assert_eq!(d.slots(), 6);
        for o in 0..6 {
            let slots = d.plan(o).len() * 6;
            assert!(slots >= 20, "plan {o} offers only {slots} slots");
        }
    }

    #[test]
    fn requested_overlap_honored_when_feasible() {
        for req in [0.2, 0.4, 0.6] {
            let d = ChannelDivider::new(923_200_000, 1_600_000, 6, req);
            assert!((d.overlap() - req).abs() < 1e-9);
            // Adjacent plans overlap by the requested ratio.
            let a = d.plan(0);
            let b = d.plan(1);
            let rho = overlap_ratio(&a[0], &b[0]);
            assert!((rho - req).abs() < 0.05, "req={req} rho={rho}");
        }
    }

    #[test]
    fn policy_scales_with_expected_networks() {
        let few = ChannelDivider::for_region(&RegionSpec {
            band_low_hz: 923_200_000,
            spectrum_hz: 1_600_000,
            expected_networks: 2,
        });
        let many = ChannelDivider::for_region(&RegionSpec {
            band_low_hz: 923_200_000,
            spectrum_hz: 1_600_000,
            expected_networks: 6,
        });
        assert!(many.overlap() >= few.overlap());
        assert_eq!(many.slots(), 6);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slot_bounds_checked() {
        let d = ChannelDivider::new(923_200_000, 1_600_000, 2, 0.4);
        d.plan(2);
    }
}
