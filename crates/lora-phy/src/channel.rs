//! Frequency channels, channel grids and the overlap geometry that
//! AlphaWAN's spectrum-sharing mechanism (Strategy ⑧) is built on.
//!
//! A *channel* is a (center frequency, bandwidth) pair. Two channels may
//! overlap partially; the **overlap ratio** — the fraction of the
//! narrower channel's bandwidth covered by the other — is the quantity
//! the paper sweeps in Fig. 8 and uses to pick inter-operator
//! misalignment ("<70% overlapping ratios give satisfactory
//! reliability", §4.3.2).

use crate::types::Bandwidth;
use serde::{Deserialize, Serialize};

/// A radio channel: center frequency (Hz) and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Channel {
    /// Center frequency in Hz.
    pub center_hz: u32,
    pub bw: Bandwidth,
}

impl Channel {
    /// New 125 kHz channel at the given center frequency.
    pub const fn khz125(center_hz: u32) -> Channel {
        Channel {
            center_hz,
            bw: Bandwidth::Khz125,
        }
    }

    /// Lower band edge in Hz.
    pub fn low_hz(&self) -> f64 {
        self.center_hz as f64 - self.bw.hz() as f64 / 2.0
    }

    /// Upper band edge in Hz.
    pub fn high_hz(&self) -> f64 {
        self.center_hz as f64 + self.bw.hz() as f64 / 2.0
    }

    /// Whether two channels share any spectrum at all.
    pub fn overlaps(&self, other: &Channel) -> bool {
        overlap_ratio(self, other) > 0.0
    }
}

/// Fraction of the *narrower* channel's bandwidth covered by the other
/// channel, in `[0, 1]`. Identical channels ⇒ 1.0; disjoint ⇒ 0.0.
pub fn overlap_ratio(a: &Channel, b: &Channel) -> f64 {
    let lo = a.low_hz().max(b.low_hz());
    let hi = a.high_hz().min(b.high_hz());
    let overlap = (hi - lo).max(0.0);
    let narrower = a.bw.hz().min(b.bw.hz()) as f64;
    overlap / narrower
}

/// A uniform grid of equal-bandwidth channels spanning a spectrum slice.
///
/// `spacing_hz` < bandwidth produces *overlapping* grids — how the
/// AlphaWAN Master carves sub-channels for coexisting operators (Fig. 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelGrid {
    /// Center of the first channel, Hz.
    pub start_hz: u32,
    /// Center-to-center spacing, Hz.
    pub spacing_hz: u32,
    pub count: usize,
    pub bw: Bandwidth,
}

impl ChannelGrid {
    /// The standard non-overlapping LoRaWAN grid: 125 kHz channels at
    /// 200 kHz spacing (US915-style), covering `spectrum_hz` of spectrum
    /// starting at `band_low_hz`.
    ///
    /// Note: the paper counts "8 channels per 1.6 MHz", i.e. an effective
    /// 200 kHz per channel; `channels_in_spectrum` follows that count.
    pub fn standard(band_low_hz: u32, spectrum_hz: u32) -> ChannelGrid {
        let spacing = 200_000u32;
        let count = (spectrum_hz / spacing) as usize;
        ChannelGrid {
            start_hz: band_low_hz + spacing / 2,
            spacing_hz: spacing,
            count,
            bw: Bandwidth::Khz125,
        }
    }

    /// An overlapping grid whose adjacent channels overlap by
    /// `overlap` ∈ [0,1) of a channel bandwidth — the Master's
    /// sub-channel layout for multi-operator sharing.
    pub fn overlapping(band_low_hz: u32, spectrum_hz: u32, overlap: f64) -> ChannelGrid {
        let bw = Bandwidth::Khz125;
        let overlap = overlap.clamp(0.0, 0.95);
        let spacing = ((bw.hz() as f64) * (1.0 - overlap)).round() as u32;
        let usable = spectrum_hz.saturating_sub(bw.hz());
        let count = (usable / spacing) as usize + 1;
        ChannelGrid {
            start_hz: band_low_hz + bw.hz() / 2,
            spacing_hz: spacing,
            count,
            bw,
        }
    }

    /// The `i`-th channel of the grid.
    pub fn channel(&self, i: usize) -> Channel {
        debug_assert!(i < self.count);
        Channel {
            center_hz: self.start_hz + (i as u32) * self.spacing_hz,
            bw: self.bw,
        }
    }

    /// All channels of the grid.
    pub fn channels(&self) -> Vec<Channel> {
        (0..self.count).map(|i| self.channel(i)).collect()
    }

    /// Total spectrum span covered (first low edge to last high edge), Hz.
    pub fn span_hz(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.channel(self.count - 1).high_hz() - self.channel(0).low_hz()
    }
}

/// Number of 125 kHz LoRaWAN channels the paper attributes to a spectrum
/// slice (8 per 1.6 MHz; 24 per 4.8 MHz, §5.1.1).
pub fn channels_in_spectrum(spectrum_hz: u32) -> usize {
    (spectrum_hz / 200_000) as usize
}

/// Theoretical ("Oracle") concurrent-user capacity of a spectrum slice:
/// six orthogonal data rates per channel (Fig. 2a / §5.1.1: 24 channels
/// ⇒ 144 concurrent users).
pub fn oracle_capacity(spectrum_hz: u32) -> usize {
    channels_in_spectrum(spectrum_hz) * 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_channels_fully_overlap() {
        let c = Channel::khz125(923_200_000);
        assert_eq!(overlap_ratio(&c, &c), 1.0);
    }

    #[test]
    fn disjoint_channels_zero_overlap() {
        let a = Channel::khz125(923_200_000);
        let b = Channel::khz125(923_400_000);
        assert_eq!(overlap_ratio(&a, &b), 0.0);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn half_shift_half_overlap() {
        let a = Channel::khz125(923_200_000);
        let b = Channel::khz125(923_200_000 + 62_500);
        assert!((overlap_ratio(&a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overlap_symmetric() {
        let a = Channel::khz125(923_200_000);
        let b = Channel::khz125(923_240_000);
        assert_eq!(overlap_ratio(&a, &b), overlap_ratio(&b, &a));
    }

    #[test]
    fn overlap_with_wider_channel_uses_narrower() {
        let narrow = Channel::khz125(923_200_000);
        let wide = Channel {
            center_hz: 923_200_000,
            bw: Bandwidth::Khz500,
        };
        // Narrow channel fully inside wide one.
        assert_eq!(overlap_ratio(&narrow, &wide), 1.0);
    }

    #[test]
    fn standard_grid_counts_match_paper() {
        assert_eq!(ChannelGrid::standard(916_800_000, 1_600_000).count, 8);
        assert_eq!(ChannelGrid::standard(916_800_000, 4_800_000).count, 24);
        assert_eq!(oracle_capacity(4_800_000), 144);
        assert_eq!(oracle_capacity(1_600_000), 48);
    }

    #[test]
    fn only_whole_channel_slots_count_toward_capacity() {
        assert_eq!(channels_in_spectrum(199_999), 0);
        assert_eq!(channels_in_spectrum(1_799_999), 8);
        assert_eq!(oracle_capacity(1_799_999), 48);
        assert_eq!(oracle_capacity(0), 0);
    }

    #[test]
    fn standard_grid_channels_disjoint() {
        let g = ChannelGrid::standard(916_800_000, 1_600_000);
        let chans = g.channels();
        for i in 0..chans.len() {
            for j in (i + 1)..chans.len() {
                assert!(!chans[i].overlaps(&chans[j]));
            }
        }
    }

    #[test]
    fn overlapping_grid_adjacent_overlap() {
        let g = ChannelGrid::overlapping(916_800_000, 1_600_000, 0.4);
        let r = overlap_ratio(&g.channel(0), &g.channel(1));
        assert!((r - 0.4).abs() < 0.01, "{r}");
        // More channels fit than in the standard grid.
        assert!(g.count > 8);
    }

    #[test]
    fn overlapping_grid_zero_overlap_is_contiguous() {
        let g = ChannelGrid::overlapping(916_800_000, 1_600_000, 0.0);
        assert_eq!(g.spacing_hz, 125_000);
        assert_eq!(overlap_ratio(&g.channel(0), &g.channel(1)), 0.0);
    }

    #[test]
    fn grid_span_within_spectrum() {
        for overlap in [0.0, 0.2, 0.4, 0.6] {
            let g = ChannelGrid::overlapping(916_800_000, 1_600_000, overlap);
            assert!(g.span_hz() <= 1_600_000.0 + 1.0, "overlap={overlap}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Overlap is symmetric, bounded in [0,1], and 1 only for
        /// co-centered equal-width channels.
        #[test]
        fn overlap_properties(a_off in 0u32..2_000_000, b_off in 0u32..2_000_000) {
            let a = Channel::khz125(915_000_000 + a_off);
            let b = Channel::khz125(915_000_000 + b_off);
            let r_ab = overlap_ratio(&a, &b);
            let r_ba = overlap_ratio(&b, &a);
            prop_assert!((r_ab - r_ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&r_ab));
            if r_ab == 1.0 {
                prop_assert_eq!(a.center_hz, b.center_hz);
            }
        }

        /// Overlapping grids always stay within the requested spectrum
        /// and deliver at least the non-overlapping channel count.
        #[test]
        fn grid_spans(overlap in 0.0f64..0.9, spectrum in 1u32..5) {
            let spectrum_hz = spectrum * 1_600_000;
            let g = ChannelGrid::overlapping(915_000_000, spectrum_hz, overlap);
            prop_assert!(g.span_hz() <= spectrum_hz as f64 + 1.0);
            let baseline = ChannelGrid::overlapping(915_000_000, spectrum_hz, 0.0);
            prop_assert!(g.count >= baseline.count);
        }
    }
}
