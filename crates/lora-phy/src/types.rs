//! Core LoRa modulation types: spreading factors, bandwidths, data rates,
//! coding rates and transmit power.
//!
//! The paper's capacity arguments hinge on the *orthogonality* of data
//! rates: six spreading factors per 125 kHz channel can be received
//! concurrently, so the theoretical capacity of a spectrum slice is
//! `6 × number_of_channels` (e.g. 24 channels in 4.8 MHz ⇒ 144 concurrent
//! users, §5.1.1).

use serde::{Deserialize, Serialize};

/// LoRa spreading factor (chirp length exponent). SF7 is the fastest /
/// shortest-range setting; SF12 the slowest / longest-range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpreadingFactor {
    SF7,
    SF8,
    SF9,
    SF10,
    SF11,
    SF12,
}

impl SpreadingFactor {
    /// All spreading factors, fastest first.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::SF7,
        SpreadingFactor::SF8,
        SpreadingFactor::SF9,
        SpreadingFactor::SF10,
        SpreadingFactor::SF11,
        SpreadingFactor::SF12,
    ];

    /// The numeric spreading factor (7..=12).
    pub const fn value(self) -> u32 {
        match self {
            SpreadingFactor::SF7 => 7,
            SpreadingFactor::SF8 => 8,
            SpreadingFactor::SF9 => 9,
            SpreadingFactor::SF10 => 10,
            SpreadingFactor::SF11 => 11,
            SpreadingFactor::SF12 => 12,
        }
    }

    /// Construct from the numeric value 7..=12.
    pub fn from_value(v: u32) -> Option<SpreadingFactor> {
        Self::ALL.into_iter().find(|sf| sf.value() == v)
    }

    /// Chips per symbol, `2^SF`.
    pub const fn chips_per_symbol(self) -> u32 {
        1 << self.value()
    }

    /// Whether the LoRa low-data-rate optimization is mandated for this
    /// SF at the given bandwidth (symbol time ≥ 16 ms).
    pub fn low_data_rate_optimize(self, bw: Bandwidth) -> bool {
        // T_sym = 2^SF / BW; 16 ms threshold per Semtech AN1200.13.
        self.chips_per_symbol() as u64 * 1_000 >= 16 * bw.hz() as u64
    }
}

/// LoRa channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Bandwidth {
    /// 125 kHz — the standard LoRaWAN uplink bandwidth.
    Khz125,
    /// 250 kHz.
    Khz250,
    /// 500 kHz — used on the US915 "8th" uplink channel.
    Khz500,
}

impl Bandwidth {
    /// Bandwidth in Hertz.
    pub const fn hz(self) -> u32 {
        match self {
            Bandwidth::Khz125 => 125_000,
            Bandwidth::Khz250 => 250_000,
            Bandwidth::Khz500 => 500_000,
        }
    }
}

/// Forward error correction coding rate, 4/(4+cr) with `cr` in 1..=4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodingRate {
    Cr4_5,
    Cr4_6,
    Cr4_7,
    Cr4_8,
}

impl CodingRate {
    /// The denominator increment (1 for 4/5 … 4 for 4/8).
    pub const fn cr(self) -> u32 {
        match self {
            CodingRate::Cr4_5 => 1,
            CodingRate::Cr4_6 => 2,
            CodingRate::Cr4_7 => 3,
            CodingRate::Cr4_8 => 4,
        }
    }
}

/// LoRaWAN data rate index, DR0..=DR5, following the EU868-style mapping
/// the paper uses (DR5 = SF7 = smallest cell, DR0 = SF12 = largest cell;
/// see Fig. 6d/e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DataRate {
    DR0,
    DR1,
    DR2,
    DR3,
    DR4,
    DR5,
}

impl DataRate {
    /// All data rates, longest-range (DR0/SF12) first.
    pub const ALL: [DataRate; 6] = [
        DataRate::DR0,
        DataRate::DR1,
        DataRate::DR2,
        DataRate::DR3,
        DataRate::DR4,
        DataRate::DR5,
    ];

    /// Numeric index 0..=5.
    pub const fn index(self) -> usize {
        match self {
            DataRate::DR0 => 0,
            DataRate::DR1 => 1,
            DataRate::DR2 => 2,
            DataRate::DR3 => 3,
            DataRate::DR4 => 4,
            DataRate::DR5 => 5,
        }
    }

    /// Construct from the numeric index.
    pub fn from_index(i: usize) -> Option<DataRate> {
        Self::ALL.get(i).copied()
    }

    /// Spreading factor for this data rate (125 kHz uplink mapping).
    pub const fn spreading_factor(self) -> SpreadingFactor {
        match self {
            DataRate::DR0 => SpreadingFactor::SF12,
            DataRate::DR1 => SpreadingFactor::SF11,
            DataRate::DR2 => SpreadingFactor::SF10,
            DataRate::DR3 => SpreadingFactor::SF9,
            DataRate::DR4 => SpreadingFactor::SF8,
            DataRate::DR5 => SpreadingFactor::SF7,
        }
    }

    /// Uplink bandwidth for this data rate (125 kHz for DR0..=DR5).
    pub const fn bandwidth(self) -> Bandwidth {
        Bandwidth::Khz125
    }
}

/// Transmit power in dBm. LoRaWAN end devices typically range from
/// 2 dBm to 20 dBm in 2 dB steps.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct TxPowerDbm(pub f64);

impl TxPowerDbm {
    /// The maximum EIRP LoRaWAN allows in most regions.
    pub const MAX: TxPowerDbm = TxPowerDbm(20.0);
    /// The lowest commonly supported step.
    pub const MIN: TxPowerDbm = TxPowerDbm(2.0);

    /// Clamp into the supported device range, snapping to 2 dB steps.
    pub fn quantized(self) -> TxPowerDbm {
        let clamped = self.0.clamp(Self::MIN.0, Self::MAX.0);
        TxPowerDbm((clamped / 2.0).round() * 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_values_roundtrip() {
        for sf in SpreadingFactor::ALL {
            assert_eq!(SpreadingFactor::from_value(sf.value()), Some(sf));
        }
        assert_eq!(SpreadingFactor::from_value(6), None);
        assert_eq!(SpreadingFactor::from_value(13), None);
    }

    #[test]
    fn chips_per_symbol_doubles() {
        assert_eq!(SpreadingFactor::SF7.chips_per_symbol(), 128);
        assert_eq!(SpreadingFactor::SF12.chips_per_symbol(), 4096);
    }

    #[test]
    fn ldro_only_for_slow_sf() {
        use Bandwidth::*;
        assert!(!SpreadingFactor::SF7.low_data_rate_optimize(Khz125));
        assert!(!SpreadingFactor::SF10.low_data_rate_optimize(Khz125));
        assert!(SpreadingFactor::SF11.low_data_rate_optimize(Khz125));
        assert!(SpreadingFactor::SF12.low_data_rate_optimize(Khz125));
        // At 500 kHz even SF12 is fast enough.
        assert!(!SpreadingFactor::SF12.low_data_rate_optimize(Khz500));
    }

    #[test]
    fn dr_sf_bijection() {
        for dr in DataRate::ALL {
            assert_eq!(dr.spreading_factor().value() as usize, 12 - dr.index());
            assert_eq!(DataRate::from_index(dr.index()), Some(dr));
        }
        assert_eq!(DataRate::from_index(6), None);
    }

    #[test]
    fn dr_ordering_matches_range_ordering() {
        // Lower DR ⇒ higher SF ⇒ longer range.
        assert!(DataRate::DR0 < DataRate::DR5);
        assert!(DataRate::DR0.spreading_factor() > DataRate::DR5.spreading_factor());
    }

    #[test]
    fn tx_power_quantization() {
        assert_eq!(TxPowerDbm(13.2).quantized().0, 14.0);
        assert_eq!(TxPowerDbm(30.0).quantized().0, 20.0);
        assert_eq!(TxPowerDbm(-5.0).quantized().0, 2.0);
        assert_eq!(TxPowerDbm(11.0).quantized().0, 12.0);
    }

    #[test]
    fn coding_rate_values() {
        assert_eq!(CodingRate::Cr4_5.cr(), 1);
        assert_eq!(CodingRate::Cr4_8.cr(), 4);
    }
}
