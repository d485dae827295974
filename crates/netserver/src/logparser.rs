//! The AlphaWAN log parser (§4.3.3).
//!
//! "Gateways send the data packets from end devices, along with metadata
//! like receiving channel, timestamp, and SNR, to ChirpStack where the
//! metadata is stored in operational logs. The log parser interprets the
//! metadata from all gateways to extract information such as user
//! traffic and user-gateway link profiles for the CP input."

use lora_mac::device::DevAddr;
use lora_phy::channel::Channel;
use lora_phy::types::DataRate;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One uplink log entry as stored by the server (one per gateway copy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkLog {
    pub dev_addr: DevAddr,
    pub gw_id: usize,
    pub channel: Channel,
    pub dr: DataRate,
    pub snr_db: f64,
    pub timestamp_us: u64,
}

/// Link profile of one device: which gateways hear it and how well.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Best SNR observed per gateway id.
    pub best_snr_per_gw: HashMap<usize, f64>,
    /// Uplinks observed (deduplicated by timestamp bucket).
    pub uplinks: u64,
}

impl LinkProfile {
    /// The single best gateway, if any.
    pub fn best_gateway(&self) -> Option<(usize, f64)> {
        self.best_snr_per_gw
            .iter()
            .map(|(&g, &s)| (g, s))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

/// Parses operational logs into link profiles, the CP input's
/// reachability half; [`crate::estimator::TrafficEstimator`] buckets
/// the same logs into traffic windows.
#[derive(Debug, Default)]
pub struct LogParser {
    profiles: HashMap<DevAddr, LinkProfile>,
}

impl LogParser {
    /// Parser for a deployment whose traffic windows are `window_us`
    /// wide (must be positive; the windows themselves are the
    /// estimator's).
    pub fn new(window_us: u64) -> LogParser {
        assert!(window_us > 0);
        LogParser {
            profiles: HashMap::new(),
        }
    }

    /// Ingest one log entry.
    pub fn ingest(&mut self, log: &UplinkLog) {
        let p = self.profiles.entry(log.dev_addr).or_default();
        let e = p
            .best_snr_per_gw
            .entry(log.gw_id)
            .or_insert(f64::NEG_INFINITY);
        if log.snr_db > *e {
            *e = log.snr_db;
        }
        p.uplinks += 1;
    }

    /// Link profile of a device.
    pub fn profile(&self, dev: DevAddr) -> Option<&LinkProfile> {
        self.profiles.get(&dev)
    }

    /// All devices seen.
    pub fn devices(&self) -> Vec<DevAddr> {
        let mut v: Vec<DevAddr> = self.profiles.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::types::DataRate::*;

    /// The gateways that hear a device, ascending.
    fn reachable_gateways(prof: &LinkProfile) -> Vec<usize> {
        let mut v: Vec<usize> = prof.best_snr_per_gw.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn log(dev: u32, gw: usize, snr: f64, t: u64) -> UplinkLog {
        UplinkLog {
            dev_addr: DevAddr(dev),
            gw_id: gw,
            channel: Channel::khz125(920_000_000),
            dr: DR3,
            snr_db: snr,
            timestamp_us: t,
        }
    }

    #[test]
    fn profile_tracks_best_snr() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(1, 0, -5.0, 10));
        p.ingest(&log(1, 0, -2.0, 20));
        p.ingest(&log(1, 1, -9.0, 30));
        let prof = p.profile(DevAddr(1)).unwrap();
        assert_eq!(prof.best_snr_per_gw[&0], -2.0);
        assert_eq!(reachable_gateways(prof), vec![0, 1]);
        assert_eq!(prof.best_gateway(), Some((0, -2.0)));
        assert_eq!(prof.uplinks, 3);
    }

    #[test]
    fn devices_sorted() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(5, 0, 0.0, 0));
        p.ingest(&log(2, 0, 0.0, 0));
        assert_eq!(p.devices(), vec![DevAddr(2), DevAddr(5)]);
    }

    #[test]
    fn empty_parser_safe() {
        let p = LogParser::new(1_000);
        assert!(p.devices().is_empty());
        assert!(p.profile(DevAddr(1)).is_none());
    }

    #[test]
    fn weaker_copy_never_lowers_the_best_snr() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(1, 4, -2.0, 10));
        p.ingest(&log(1, 4, -5.0, 20));
        p.ingest(&log(1, 4, -3.5, 30));
        let prof = p.profile(DevAddr(1)).unwrap();
        assert_eq!(prof.best_snr_per_gw[&4], -2.0);
        assert_eq!(reachable_gateways(prof), vec![4]);
    }

    #[test]
    fn equal_snr_best_gateway_is_the_lowest_id() {
        // Whatever order the map iterates in, a tie resolves the same
        // way — the downlink planner relies on this being stable.
        for order in [[7, 3, 5], [3, 5, 7], [5, 7, 3]] {
            let mut p = LogParser::new(1_000_000);
            for gw in order {
                p.ingest(&log(1, gw, -4.0, 0));
            }
            assert_eq!(
                p.profile(DevAddr(1)).unwrap().best_gateway(),
                Some((3, -4.0))
            );
        }
    }

    #[test]
    fn profiles_are_kept_per_device() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(1, 0, 1.0, 0));
        p.ingest(&log(2, 1, 2.0, 0));
        p.ingest(&log(2, 2, 3.0, 0));
        assert_eq!(reachable_gateways(p.profile(DevAddr(1)).unwrap()), vec![0]);
        assert_eq!(
            reachable_gateways(p.profile(DevAddr(2)).unwrap()),
            vec![1, 2]
        );
        assert_eq!(p.profile(DevAddr(1)).unwrap().uplinks, 1);
        assert_eq!(p.profile(DevAddr(2)).unwrap().uplinks, 2);
    }

    #[test]
    fn empty_profile_has_no_best_gateway() {
        let prof = LinkProfile::default();
        assert!(reachable_gateways(&prof).is_empty());
        assert_eq!(prof.best_gateway(), None);
    }

    #[test]
    #[should_panic]
    fn zero_width_window_is_rejected() {
        LogParser::new(0);
    }
}
