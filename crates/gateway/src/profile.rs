//! COTS gateway hardware profiles — the Table 4 matrix.
//!
//! "None of these gateways has sufficient decoders to fully support the
//! theoretical capacity of their operating channels" (§3.2): theoretical
//! capacity is 6 orthogonal data rates per Rx chain, but the decoder
//! pool is far smaller.

use serde::{Deserialize, Serialize};

/// Semtech baseband chipset families found in COTS gateways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Chipset {
    /// First-generation concentrator (8 decoders).
    SX1301,
    /// Second-generation concentrator (16 decoders).
    SX1302,
    /// SX1302 variant with fine timestamping.
    SX1303,
    /// Cost-reduced SX1301 derivative.
    SX1308,
}

/// Hardware capabilities of a COTS gateway model (one Table 4 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayProfile {
    /// Vendor name as listed in Table 4.
    pub manufacturer: &'static str,
    /// Product model name.
    pub model: &'static str,
    /// Baseband concentrator chipset.
    pub chipset: Chipset,
    /// Maximum instantaneous Rx spectrum (radio bandwidth B_j), Hz.
    pub rx_spectrum_hz: u32,
    /// Multi-SF Rx chains (the paper's "8" in "8+1") — also the maximum
    /// number of concurrently monitored 125 kHz channels, P_j.
    pub multi_sf_chains: usize,
    /// Extra single-SF / FSK chains (the "+1").
    pub extra_chains: usize,
    /// Hardware packet decoders (modem paths), C_j.
    pub decoders: usize,
}

impl GatewayProfile {
    /// Theoretical concurrent-packet capacity of the Rx spectrum: six
    /// orthogonal data rates per chain (Table 4's "Theory Capacity":
    /// 9 chains ⇒ 54, 18 chains ⇒ 108).
    pub fn theoretical_capacity(&self) -> usize {
        (self.multi_sf_chains + self.extra_chains) * 6
    }

    /// The RAK7268CV2 the paper uses for its §3.1 case study.
    pub fn rak7268cv2() -> &'static GatewayProfile {
        COTS_PROFILES
            .iter()
            .find(|p| p.model == "RAK7268CV2")
            .expect("RAK7268CV2 present in the profile table")
    }

    /// A Table-4 profile by model name.
    #[cfg(test)]
    pub fn by_model(model: &str) -> Option<&'static GatewayProfile> {
        COTS_PROFILES.iter().find(|p| p.model == model)
    }
}

/// The COTS gateway matrix of Table 4.
pub static COTS_PROFILES: &[GatewayProfile] = &[
    GatewayProfile {
        manufacturer: "Dragino",
        model: "LPS8N",
        chipset: Chipset::SX1302,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 16,
    },
    GatewayProfile {
        manufacturer: "Dragino",
        model: "LPS8V2",
        chipset: Chipset::SX1302,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 16,
    },
    GatewayProfile {
        manufacturer: "RAKwireless",
        model: "RAK7246G",
        chipset: Chipset::SX1308,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 8,
    },
    GatewayProfile {
        manufacturer: "RAKwireless",
        model: "RAK7268CV2",
        chipset: Chipset::SX1302,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 16,
    },
    GatewayProfile {
        manufacturer: "RAKwireless",
        model: "RAK7289CV2",
        chipset: Chipset::SX1303,
        rx_spectrum_hz: 3_200_000,
        multi_sf_chains: 16,
        extra_chains: 2,
        decoders: 32,
    },
    GatewayProfile {
        manufacturer: "Kerlink",
        model: "Wirnet iBTS",
        chipset: Chipset::SX1301,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 8,
    },
    GatewayProfile {
        manufacturer: "Kerlink",
        model: "Wirnet iFemtoCell",
        chipset: Chipset::SX1301,
        rx_spectrum_hz: 1_600_000,
        multi_sf_chains: 8,
        extra_chains: 1,
        decoders: 8,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_theory_capacities() {
        let p = GatewayProfile::rak7268cv2();
        assert_eq!(p.theoretical_capacity(), 54);
        assert_eq!(p.decoders, 16);
        let rak7289 = GatewayProfile::by_model("RAK7289CV2").unwrap();
        assert_eq!(rak7289.theoretical_capacity(), 108);
        assert_eq!(rak7289.decoders, 32);
    }

    #[test]
    fn every_profile_decoder_starved() {
        // The §3.2 observation that motivates the whole paper.
        for p in COTS_PROFILES {
            assert!(
                p.decoders < p.theoretical_capacity(),
                "{} {} has enough decoders?!",
                p.manufacturer,
                p.model
            );
        }
    }

    #[test]
    fn sx1301_family_has_8_decoders() {
        for p in COTS_PROFILES {
            if matches!(p.chipset, Chipset::SX1301 | Chipset::SX1308) {
                assert_eq!(p.decoders, 8, "{}", p.model);
            }
        }
    }

    #[test]
    fn lookup_by_model() {
        assert!(GatewayProfile::by_model("LPS8N").is_some());
        assert!(GatewayProfile::by_model("definitely-not-a-gateway").is_none());
    }
}
