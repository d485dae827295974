//! On-air time of LoRa packets, from the Semtech modem design equations
//! (SX1276 datasheet §4.1.1.7 / AN1200.13).
//!
//! Airtime drives everything in the capacity study: a decoder is occupied
//! from *lock-on* (end of preamble) until the end of the payload, so the
//! preamble duration and payload duration are exposed separately.

use crate::types::{Bandwidth, CodingRate, SpreadingFactor};

/// Parameters of one LoRa transmission, sufficient to compute airtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketParams {
    pub sf: SpreadingFactor,
    pub bw: Bandwidth,
    pub cr: CodingRate,
    /// PHY payload length in bytes (LoRaWAN MHDR..MIC).
    pub payload_len: usize,
    /// Number of programmed preamble symbols (LoRaWAN default: 8).
    pub preamble_symbols: u32,
    /// Explicit header present (LoRaWAN uplinks: yes).
    pub explicit_header: bool,
    /// CRC appended (LoRaWAN uplinks: yes).
    pub crc: bool,
}

impl PacketParams {
    /// Standard LoRaWAN uplink packet parameters: 8-symbol preamble,
    /// explicit header, CRC on, CR 4/5.
    pub fn lorawan_uplink(sf: SpreadingFactor, bw: Bandwidth, payload_len: usize) -> Self {
        PacketParams {
            sf,
            bw,
            cr: CodingRate::Cr4_5,
            payload_len,
            preamble_symbols: 8,
            explicit_header: true,
            crc: true,
        }
    }

    /// Symbol duration in microseconds: `2^SF / BW`.
    pub fn symbol_time_us(&self) -> f64 {
        self.sf.chips_per_symbol() as f64 * 1e6 / self.bw.hz() as f64
    }

    /// Number of payload symbols, per the Semtech equation.
    pub fn payload_symbols(&self) -> u32 {
        let sf = self.sf.value() as i64;
        let pl = self.payload_len as i64;
        let ih = if self.explicit_header { 0 } else { 1 };
        let crc = if self.crc { 1 } else { 0 };
        let de = if self.sf.low_data_rate_optimize(self.bw) {
            1
        } else {
            0
        };
        let numer = 8 * pl - 4 * sf + 28 + 16 * crc - 20 * ih;
        let denom = 4 * (sf - 2 * de);
        let ceil = if numer > 0 {
            (numer + denom - 1) / denom
        } else {
            0
        };
        8 + (ceil.max(0) as u32) * (4 + self.cr.cr())
    }

    /// Full airtime breakdown.
    pub fn airtime(&self) -> Airtime {
        let t_sym = self.symbol_time_us();
        // Preamble: programmed symbols + 4.25 sync/SFD symbols.
        let preamble_us = (self.preamble_symbols as f64 + 4.25) * t_sym;
        let payload_us = self.payload_symbols() as f64 * t_sym;
        Airtime {
            preamble_us: preamble_us.round() as u64,
            payload_us: payload_us.round() as u64,
        }
    }
}

/// Airtime of a LoRa packet, split at the lock-on instant.
///
/// A COTS gateway *locks on* to a packet when the preamble finishes
/// (§3.1, Scheme (b) experiment), then holds a decoder for the remaining
/// `payload_us` (header + payload + CRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Airtime {
    /// Preamble duration (programmed symbols + 4.25 sync symbols), µs.
    pub preamble_us: u64,
    /// Duration from lock-on to end of packet, µs.
    pub payload_us: u64,
}

impl Airtime {
    /// Total on-air time in microseconds.
    pub fn total_us(&self) -> u64 {
        self.preamble_us + self.payload_us
    }

    /// Gateway lock-on instant (preamble end) of a transmission that
    /// starts at `start_us`. This is the packet's FCFS dispatch point
    /// and the `t_us` of its lock-on / decoder-acquire trace events.
    pub fn lock_on_at(&self, start_us: u64) -> u64 {
        start_us + self.preamble_us
    }

    /// Airtime-end instant of a transmission that starts at `start_us`
    /// — the decoder-release / packet-outcome point of its trace.
    pub fn end_at(&self, start_us: u64) -> u64 {
        start_us + self.total_us()
    }
}

/// Convenience: airtime of a LoRaWAN uplink with the given payload.
pub fn lorawan_uplink_airtime(sf: SpreadingFactor, payload_len: usize) -> Airtime {
    PacketParams::lorawan_uplink(sf, Bandwidth::Khz125, payload_len).airtime()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Bandwidth::*, SpreadingFactor::*};

    /// Reference airtimes cross-checked against the Semtech LoRa airtime
    /// calculator for a 23-byte PHY payload (10-byte app payload + 13-byte
    /// LoRaWAN overhead), 8-symbol preamble, CR 4/5, CRC, explicit header.
    #[test]
    fn matches_semtech_calculator_sf7() {
        let a = PacketParams::lorawan_uplink(SF7, Khz125, 23).airtime();
        // Calculator: preamble 12.544 ms, 48 payload symbols, total 61.696 ms.
        assert_eq!(a.preamble_us, 12_544);
        assert_eq!(a.total_us(), 61_696);
        assert_eq!(a.lock_on_at(1_000), 13_544);
        assert_eq!(a.end_at(1_000), 62_696);
    }

    #[test]
    fn matches_semtech_calculator_sf12() {
        let a = PacketParams::lorawan_uplink(SF12, Khz125, 23).airtime();
        // Calculator: preamble 401.408 ms, 33 payload symbols (LDRO on),
        // total 1482.752 ms.
        assert_eq!(a.preamble_us, 401_408);
        assert_eq!(a.total_us(), 1_482_752);
    }

    #[test]
    fn sf10_no_ldro() {
        let a = PacketParams::lorawan_uplink(SF10, Khz125, 23).airtime();
        // Calculator: 370.688 ms total.
        assert_eq!(a.total_us(), 370_688);
    }

    #[test]
    fn a_payload_shorter_than_one_block_takes_the_eight_symbol_floor() {
        // Implicit header, no CRC, nothing to send: the Semtech
        // numerator goes negative and only the 8 base symbols remain.
        let mut p = PacketParams::lorawan_uplink(SF12, Khz125, 0);
        p.explicit_header = false;
        p.crc = false;
        assert_eq!(p.payload_symbols(), 8);
        // Each further block costs 4 + CR symbols (CR 4/5: five).
        p.payload_len = 6;
        assert_eq!(p.payload_symbols(), 8 + 5);
    }

    #[test]
    fn airtime_monotone_in_payload() {
        for sf in SpreadingFactor::ALL {
            let mut prev = 0;
            for len in 0..=64 {
                let t = PacketParams::lorawan_uplink(sf, Khz125, len)
                    .airtime()
                    .total_us();
                assert!(t >= prev, "airtime decreased at sf={sf:?} len={len}");
                prev = t;
            }
        }
    }

    #[test]
    fn airtime_monotone_in_sf() {
        let mut prev = 0;
        for sf in SpreadingFactor::ALL {
            let t = lorawan_uplink_airtime(sf, 10).total_us();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn wider_bandwidth_is_faster() {
        let narrow = PacketParams::lorawan_uplink(SF9, Khz125, 23).airtime();
        let wide = PacketParams::lorawan_uplink(SF9, Khz500, 23).airtime();
        assert!(wide.total_us() < narrow.total_us());
    }

    #[test]
    fn implicit_header_shortens() {
        let mut p = PacketParams::lorawan_uplink(SF8, Khz125, 23);
        let explicit = p.airtime().total_us();
        p.explicit_header = false;
        assert!(p.airtime().total_us() < explicit);
    }

    #[test]
    fn preamble_scales_with_symbols() {
        let mut p = PacketParams::lorawan_uplink(SF7, Khz125, 23);
        let base = p.airtime().preamble_us;
        p.preamble_symbols = 16;
        assert_eq!(
            p.airtime().preamble_us,
            base + 8 * p.symbol_time_us() as u64
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Airtime is positive, preamble < total, and monotone in
        /// payload for every (SF, BW, CR) combination.
        #[test]
        fn airtime_sane(
            sf_idx in 0usize..6,
            bw_idx in 0usize..3,
            cr_idx in 0usize..4,
            len in 0usize..256,
        ) {
            let sf = SpreadingFactor::ALL[sf_idx];
            let bw = [Bandwidth::Khz125, Bandwidth::Khz250, Bandwidth::Khz500][bw_idx];
            let cr = [CodingRate::Cr4_5, CodingRate::Cr4_6, CodingRate::Cr4_7, CodingRate::Cr4_8][cr_idx];
            let mut p = PacketParams::lorawan_uplink(sf, bw, len);
            p.cr = cr;
            let a = p.airtime();
            prop_assert!(a.preamble_us > 0);
            prop_assert!(a.payload_us > 0);
            prop_assert!(a.total_us() == a.preamble_us + a.payload_us);
            let mut bigger = p;
            bigger.payload_len = len + 16;
            prop_assert!(bigger.airtime().total_us() >= a.total_us());
        }

        /// A slower coding rate never shortens a packet.
        #[test]
        fn coding_rate_monotone(len in 0usize..128) {
            let mut prev = 0;
            for cr in [CodingRate::Cr4_5, CodingRate::Cr4_6, CodingRate::Cr4_7, CodingRate::Cr4_8] {
                let mut p = PacketParams::lorawan_uplink(SpreadingFactor::SF9, Bandwidth::Khz125, len);
                p.cr = cr;
                let t = p.airtime().total_us();
                prop_assert!(t >= prev);
                prev = t;
            }
        }
    }
}
