//! Regional ISM-band parameters and the standard LoRaWAN channel plans
//! (Appendix B, Fig. 19), plus the regulatory-spectrum dataset behind
//! Fig. 18.

use crate::channel::{Channel, ChannelGrid};
use serde::{Deserialize, Serialize};

/// ISM band region. The paper's experiments run in AS923 (923–925 MHz)
/// and US915 (916.8–921.6 MHz slice); EU868 is included for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    US915,
    EU868,
    AS923,
    AU915,
    IN865,
    KR920,
    CN470,
}

impl Region {
    /// Every supported region.
    pub const ALL: [Region; 7] = [
        Region::US915,
        Region::EU868,
        Region::AS923,
        Region::AU915,
        Region::IN865,
        Region::KR920,
        Region::CN470,
    ];

    /// Uplink band edges in Hz.
    pub const fn band_hz(self) -> (u32, u32) {
        match self {
            Region::US915 => (902_300_000, 914_900_000),
            Region::EU868 => (863_000_000, 870_000_000),
            Region::AS923 => (920_000_000, 925_000_000),
            Region::AU915 => (915_200_000, 927_800_000),
            Region::IN865 => (865_000_000, 867_000_000),
            Region::KR920 => (920_900_000, 923_300_000),
            Region::CN470 => (470_300_000, 489_300_000),
        }
    }

    /// Uplink spectrum width in Hz.
    pub fn spectrum_hz(self) -> u32 {
        let (lo, hi) = self.band_hz();
        hi - lo
    }

    /// Regulatory duty-cycle limit for end devices (fraction of time).
    pub const fn duty_cycle_limit(self) -> f64 {
        match self {
            // US915/AU915 use dwell time rather than duty cycle; the
            // paper still applies the LoRaWAN 1% convention in its
            // emulation.
            Region::US915 | Region::AU915 => 0.01,
            Region::EU868 | Region::AS923 | Region::IN865 | Region::KR920 | Region::CN470 => 0.01,
        }
    }

    /// Whether the region statically fixes its channel grid (§B: "fixed
    /// channel plans") or lets operators define channels dynamically.
    #[cfg(test)]
    const fn fixed_channel_plan(self) -> bool {
        matches!(self, Region::US915 | Region::AU915 | Region::CN470)
    }

    /// Standard channel plans for this region. Fixed-grid regions
    /// define one plan per 8-channel sub-band (Fig. 19); dynamic
    /// regions get one default 8-channel plan anchored at the band
    /// start (clipped to the authorized spectrum).
    #[cfg(test)]
    fn standard_plans(self) -> Vec<StandardChannelPlan> {
        if self.fixed_channel_plan() {
            let (lo, hi) = self.band_hz();
            // A sub-band covers eight 200 kHz slots; the last channel's
            // center sits 200 kHz short of the next sub-band boundary.
            let sub_bands = (((hi - lo) + 200_000) / 1_600_000).max(1) as usize;
            (0..sub_bands.min(8))
                .map(|p| StandardChannelPlan::fixed_subband(lo, p))
                .collect()
        } else {
            let slice = self.spectrum_hz().min(1_600_000);
            let grid = ChannelGrid::standard(self.band_hz().0, slice);
            vec![StandardChannelPlan {
                index: 0,
                channels: grid.channels(),
            }]
        }
    }
}

/// One standard LoRaWAN channel plan: a group of eight 125 kHz uplink
/// channels (Fig. 19: "starting with CH 0, every eight channels form a
/// group termed a channel plan").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardChannelPlan {
    /// Plan number (#1..#8 in the paper's Fig. 19 ⇒ index 0..8 here).
    pub index: usize,
    pub channels: Vec<Channel>,
}

impl StandardChannelPlan {
    /// US915 sub-band plan `p` (0-based): channels `8p..8p+8`, 200 kHz
    /// spacing starting at 902.3 MHz.
    pub fn us915_subband(p: usize) -> StandardChannelPlan {
        assert!(p < 8, "US915 defines 8 sub-band plans");
        Self::fixed_subband(902_300_000, p)
    }

    /// Generic fixed-grid sub-band plan: channels `8p..8p+8` at 200 kHz
    /// spacing from `band_low_hz` (US915/AU915/CN470 style).
    pub fn fixed_subband(band_low_hz: u32, p: usize) -> StandardChannelPlan {
        let channels = (0..8)
            .map(|i| Channel::khz125(band_low_hz + ((p * 8 + i) as u32) * 200_000))
            .collect();
        StandardChannelPlan { index: p, channels }
    }

    /// A dynamic-region plan: eight contiguous channels from
    /// `band_low_hz`, offset by `index` plans.
    pub fn dynamic(band_low_hz: u32, index: usize) -> StandardChannelPlan {
        let grid = ChannelGrid::standard(band_low_hz + (index as u32) * 1_600_000, 1_600_000);
        StandardChannelPlan {
            index,
            channels: grid.channels(),
        }
    }

    /// Frequency span from lowest low-edge to highest high-edge, Hz.
    pub fn span_hz(&self) -> f64 {
        let lo = self
            .channels
            .iter()
            .map(|c| c.low_hz())
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .channels
            .iter()
            .map(|c| c.high_hz())
            .fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

/// One row of the Fig. 18 dataset: LoRaWAN spectrum authorized in a
/// country/region, MHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionSpectrum {
    pub uplink_mhz: f64,
    pub downlink_mhz: f64,
}

impl RegionSpectrum {
    pub fn overall_mhz(&self) -> f64 {
        self.uplink_mhz + self.downlink_mhz
    }
}

/// Synthetic regulatory dataset reproducing the *shape* of Fig. 18: a
/// small set of wide-band countries (US-style, 26 MHz overall) and a
/// long tail of narrow allocations — "the authorized spectrum for
/// LoRaWAN is limited to less than 6.5 MHz in over 70% of countries"
/// (Appendix A).
pub fn region_spectrum_dataset() -> Vec<RegionSpectrum> {
    let mut out = Vec::with_capacity(200);
    // ~30 US915-style regions: 12.6 MHz up + 13.4 down.
    for _ in 0..30 {
        out.push(RegionSpectrum {
            uplink_mhz: 12.6,
            downlink_mhz: 13.4,
        });
    }
    // ~20 mid-band regions (AU915-like subsets).
    for i in 0..20 {
        let up = 6.0 + (i % 4) as f64;
        out.push(RegionSpectrum {
            uplink_mhz: up,
            downlink_mhz: up * 0.6,
        });
    }
    // Long tail of EU868/AS923-style narrow allocations.
    for i in 0..150 {
        let up = 1.0 + (i % 8) as f64 * 0.5; // 1.0 .. 4.5 MHz
        out.push(RegionSpectrum {
            uplink_mhz: up,
            downlink_mhz: (up * 0.3).min(2.0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::overlap_ratio;

    #[test]
    fn us915_has_64_uplink_channels_over_8_plans() {
        let plans = Region::US915.standard_plans();
        assert_eq!(plans.len(), 8);
        let mut all: Vec<Channel> = plans.iter().flat_map(|p| p.channels.clone()).collect();
        assert_eq!(all.len(), 64);
        all.sort_by_key(|c| c.center_hz);
        all.dedup();
        assert_eq!(all.len(), 64, "channels must be distinct");
        assert_eq!(all[0].center_hz, 902_300_000);
        assert_eq!(all[63].center_hz, 902_300_000 + 63 * 200_000);
    }

    #[test]
    fn plans_within_band_for_every_region() {
        for region in Region::ALL {
            let (lo, hi) = region.band_hz();
            assert!(!region.standard_plans().is_empty(), "{region:?}");
            for plan in region.standard_plans() {
                for ch in &plan.channels {
                    assert!(ch.low_hz() >= lo as f64 - 100_000.0, "{region:?}");
                    assert!(ch.high_hz() <= hi as f64 + 100_000.0, "{region:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_regions_have_multiple_subband_plans() {
        assert_eq!(Region::US915.standard_plans().len(), 8); // Fig. 19's 8 plans
        assert_eq!(Region::AU915.standard_plans().len(), 8);
        assert_eq!(Region::CN470.standard_plans().len(), 8);
        assert_eq!(Region::EU868.standard_plans().len(), 1);
        assert_eq!(Region::KR920.standard_plans().len(), 1);
    }

    #[test]
    fn narrow_regions_clip_their_plan() {
        // KR920 has only 2.4 MHz of uplink; the default plan must fit.
        let plan = &Region::KR920.standard_plans()[0];
        assert!(plan.channels.len() <= 12);
        assert!(plan.span_hz() <= Region::KR920.spectrum_hz() as f64);
    }

    #[test]
    fn plan_channels_mutually_disjoint() {
        for plan in Region::US915.standard_plans() {
            for i in 0..plan.channels.len() {
                for j in (i + 1)..plan.channels.len() {
                    assert_eq!(overlap_ratio(&plan.channels[i], &plan.channels[j]), 0.0);
                }
            }
        }
    }

    #[test]
    fn fixed_subbands_tile_the_grid_without_gaps() {
        for region in [Region::US915, Region::AU915, Region::CN470] {
            let (lo, _) = region.band_hz();
            let plans: Vec<StandardChannelPlan> = (0..8)
                .map(|p| StandardChannelPlan::fixed_subband(lo, p))
                .collect();
            assert_eq!(plans[0].channels[0].center_hz, lo, "{region:?}");
            for (p, plan) in plans.iter().enumerate() {
                assert_eq!(plan.index, p);
                let centers: Vec<u32> = plan.channels.iter().map(|c| c.center_hz).collect();
                assert!(
                    centers.windows(2).all(|w| w[1] - w[0] == 200_000),
                    "{region:?} #{p}"
                );
            }
            for pair in plans.windows(2) {
                let next = pair[1].channels[0].center_hz;
                assert_eq!(next - pair[0].channels[7].center_hz, 200_000, "{region:?}");
            }
        }
        assert_eq!(
            StandardChannelPlan::us915_subband(3),
            StandardChannelPlan::fixed_subband(902_300_000, 3)
        );
    }

    #[test]
    fn plan_span_is_about_1_6_mhz() {
        let plan = StandardChannelPlan::us915_subband(0);
        assert!((plan.span_hz() - 1_525_000.0).abs() < 1.0);
    }

    #[test]
    fn spectrum_dataset_shape_matches_appendix_a() {
        let data = region_spectrum_dataset();
        assert_eq!(data.len(), 200);
        let narrow = data.iter().filter(|r| r.overall_mhz() < 6.5).count();
        assert!(
            narrow as f64 / data.len() as f64 > 0.70,
            ">70% of regions must have <6.5 MHz overall, got {narrow}/200"
        );
    }

    #[test]
    fn duty_cycle_is_one_percent() {
        assert_eq!(Region::AS923.duty_cycle_limit(), 0.01);
    }
}
