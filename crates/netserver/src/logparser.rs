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
    /// Gateways that hear this device at all.
    pub fn reachable_gateways(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.best_snr_per_gw.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The single best gateway, if any.
    pub fn best_gateway(&self) -> Option<(usize, f64)> {
        self.best_snr_per_gw
            .iter()
            .map(|(&g, &s)| (g, s))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

/// Parses operational logs into CP input.
#[derive(Debug, Default)]
pub struct LogParser {
    profiles: HashMap<DevAddr, LinkProfile>,
    /// Per-device per-window uplink counts; window id = t / window_us.
    window_us: u64,
    window_counts: HashMap<u64, u64>,
}

impl LogParser {
    /// Parser with the given traffic-window width.
    pub fn new(window_us: u64) -> LogParser {
        assert!(window_us > 0);
        LogParser {
            profiles: HashMap::new(),
            window_us,
            window_counts: HashMap::new(),
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
        *self
            .window_counts
            .entry(log.timestamp_us / self.window_us)
            .or_insert(0) += 1;
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

    /// (window id, uplink count) pairs, sorted by window.
    pub fn traffic_windows(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.window_counts.iter().map(|(&w, &c)| (w, c)).collect();
        v.sort_unstable();
        v
    }

    /// Mean number of gateways that hear each device — the paper's
    /// Fig. 6b metric ("each user connects to seven gateways on
    /// average" without ADR).
    pub fn mean_gateways_per_device(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        self.profiles
            .values()
            .map(|p| p.best_snr_per_gw.len() as f64)
            .sum::<f64>()
            / self.profiles.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::types::DataRate::*;

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
        assert_eq!(prof.reachable_gateways(), vec![0, 1]);
        assert_eq!(prof.best_gateway(), Some((0, -2.0)));
        assert_eq!(prof.uplinks, 3);
    }

    #[test]
    fn traffic_windows_bucketized() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(1, 0, 0.0, 100));
        p.ingest(&log(2, 0, 0.0, 999_999));
        p.ingest(&log(3, 0, 0.0, 1_000_000));
        let w = p.traffic_windows();
        assert_eq!(w, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn mean_gateways_per_device() {
        let mut p = LogParser::new(1_000_000);
        p.ingest(&log(1, 0, 0.0, 0));
        p.ingest(&log(1, 1, 0.0, 0));
        p.ingest(&log(2, 0, 0.0, 0));
        assert!((p.mean_gateways_per_device() - 1.5).abs() < 1e-12);
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
        assert_eq!(p.mean_gateways_per_device(), 0.0);
        assert!(p.traffic_windows().is_empty());
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
        assert_eq!(prof.reachable_gateways(), vec![4]);
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
        assert_eq!(p.profile(DevAddr(1)).unwrap().reachable_gateways(), vec![0]);
        assert_eq!(
            p.profile(DevAddr(2)).unwrap().reachable_gateways(),
            vec![1, 2]
        );
        assert_eq!(p.profile(DevAddr(1)).unwrap().uplinks, 1);
        assert_eq!(p.profile(DevAddr(2)).unwrap().uplinks, 2);
    }

    #[test]
    fn windows_follow_the_configured_width_and_skip_idle_ones() {
        let mut p = LogParser::new(250_000);
        for t in [0, 249_999, 250_000, 750_000] {
            p.ingest(&log(1, 0, 0.0, t));
        }
        // Window 2 saw nothing and is not listed.
        assert_eq!(p.traffic_windows(), vec![(0, 2), (1, 1), (3, 1)]);
    }

    #[test]
    fn empty_profile_has_no_best_gateway() {
        let prof = LinkProfile::default();
        assert!(prof.reachable_gateways().is_empty());
        assert_eq!(prof.best_gateway(), None);
    }

    #[test]
    #[should_panic]
    fn zero_width_window_is_rejected() {
        LogParser::new(0);
    }
}
