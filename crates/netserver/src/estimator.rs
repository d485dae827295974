//! The AlphaWAN traffic estimator (§4.3.3).
//!
//! "This module combines data across gateways to restore the actual
//! traffic patterns of end nodes. Representative traffic data from
//! different time windows are selected as input for the CP problem
//! solver" — and per §4.3.1, AlphaWAN "aggressively uses samples with
//! high capacity demand to train the problem solver", so the computed
//! plan holds up under peak load rather than average load.

use lora_mac::device::DevAddr;
use std::collections::HashMap;

/// Per-device traffic rates within one time window (the CP input `U`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSample {
    pub window: u64,
    /// Uplinks per device in this window.
    pub per_device: HashMap<DevAddr, u64>,
}

impl TrafficSample {
    /// Total uplinks in the window — the "capacity demand".
    pub fn demand(&self) -> u64 {
        self.per_device.values().sum()
    }
}

/// Collects per-window, per-device traffic and selects representative
/// high-demand samples.
#[derive(Debug)]
pub struct TrafficEstimator {
    window_us: u64,
    windows: HashMap<u64, HashMap<DevAddr, u64>>,
}

impl TrafficEstimator {
    pub fn new(window_us: u64) -> TrafficEstimator {
        assert!(window_us > 0);
        TrafficEstimator {
            window_us,
            windows: HashMap::new(),
        }
    }

    /// Record one *deduplicated* uplink.
    pub fn record(&mut self, dev: DevAddr, timestamp_us: u64) {
        *self
            .windows
            .entry(timestamp_us / self.window_us)
            .or_default()
            .entry(dev)
            .or_insert(0) += 1;
    }

    /// Number of windows with any traffic.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The `k` highest-demand windows, highest first — the samples fed
    /// to the CP solver.
    pub fn peak_samples(&self, k: usize) -> Vec<TrafficSample> {
        let mut samples: Vec<TrafficSample> = self
            .windows
            .iter()
            .map(|(&w, per)| TrafficSample {
                window: w,
                per_device: per.clone(),
            })
            .collect();
        samples.sort_by(|a, b| b.demand().cmp(&a.demand()).then(a.window.cmp(&b.window)));
        samples.truncate(k);
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_selection_orders_by_demand() {
        let mut e = TrafficEstimator::new(1_000_000);
        // Window 0: 1 uplink; window 1: 3; window 2: 2.
        e.record(DevAddr(1), 0);
        for t in [1_000_000, 1_100_000, 1_200_000] {
            e.record(DevAddr(2), t);
        }
        e.record(DevAddr(1), 2_000_000);
        e.record(DevAddr(3), 2_500_000);
        let peaks = e.peak_samples(2);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].window, 1);
        assert_eq!(peaks[0].demand(), 3);
        assert_eq!(peaks[1].window, 2);
    }

    #[test]
    fn per_device_counts() {
        let mut e = TrafficEstimator::new(1_000);
        e.record(DevAddr(7), 100);
        e.record(DevAddr(7), 200);
        e.record(DevAddr(8), 300);
        let peaks = e.peak_samples(1);
        assert_eq!(peaks[0].per_device[&DevAddr(7)], 2);
        assert_eq!(peaks[0].per_device[&DevAddr(8)], 1);
    }

    #[test]
    fn ties_broken_by_window_id() {
        let mut e = TrafficEstimator::new(1_000);
        e.record(DevAddr(1), 5_000); // window 5
        e.record(DevAddr(1), 2_000); // window 2
        let peaks = e.peak_samples(2);
        assert_eq!(peaks[0].window, 2);
        assert_eq!(peaks[1].window, 5);
    }

    #[test]
    fn asking_for_more_than_available() {
        let mut e = TrafficEstimator::new(1_000);
        e.record(DevAddr(1), 0);
        assert_eq!(e.peak_samples(10).len(), 1);
        assert_eq!(e.window_count(), 1);
    }

    #[test]
    fn empty_estimator_yields_nothing() {
        let e = TrafficEstimator::new(1_000);
        assert_eq!(e.window_count(), 0);
        assert!(e.peak_samples(3).is_empty());
    }

    #[test]
    fn zero_samples_requested_is_empty() {
        let mut e = TrafficEstimator::new(1_000);
        e.record(DevAddr(1), 0);
        assert!(e.peak_samples(0).is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let mut e = TrafficEstimator::new(1_000);
        e.record(DevAddr(1), 999); // window 0
        e.record(DevAddr(1), 1_000); // window 1
        e.record(DevAddr(1), 1_999); // window 1
        let windows: Vec<(u64, u64)> = e
            .peak_samples(usize::MAX)
            .iter()
            .map(|s| (s.window, s.demand()))
            .collect();
        assert_eq!(windows, vec![(1, 2), (0, 1)]);
    }

    #[test]
    fn sampling_is_repeatable_and_demand_sums_devices() {
        let mut e = TrafficEstimator::new(1_000);
        for (dev, t) in [(1, 10), (2, 20), (2, 30), (3, 1_500), (1, 2_100)] {
            e.record(DevAddr(dev), t);
        }
        let first = e.peak_samples(3);
        assert_eq!(first, e.peak_samples(3), "sampling does not consume");
        for s in &first {
            assert_eq!(s.demand(), s.per_device.values().sum::<u64>());
        }
        assert_eq!(first[0].demand(), 3);
    }

    #[test]
    #[should_panic]
    fn zero_width_window_is_rejected() {
        TrafficEstimator::new(0);
    }
}
