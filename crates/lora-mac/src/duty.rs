//! Duty-cycle governor.
//!
//! LoRaWAN end devices in the ISM bands must keep their transmit duty
//! cycle under a regulatory limit (1% in the paper's experiments). The
//! standard implementation is a per-(sub-)band *off-period*: after a
//! transmission of airtime `T`, the device stays silent for
//! `T · (1/duty − 1)`. This is what spreads user transmissions over
//! time and turns "maximum concurrent users" into "maximum connected
//! users × 100" in the paper's capacity accounting.

/// Tracks duty-cycle compliance for one device (single band).
#[derive(Debug, Clone)]
pub struct DutyCycleGovernor {
    /// Allowed duty cycle, e.g. 0.01.
    duty: f64,
    /// Earliest time (µs) the next transmission may start.
    next_allowed_us: u64,
}

impl DutyCycleGovernor {
    /// New governor with the given duty-cycle fraction (0 < duty ≤ 1).
    pub fn new(duty: f64) -> DutyCycleGovernor {
        assert!(duty > 0.0 && duty <= 1.0, "duty cycle must be in (0,1]");
        DutyCycleGovernor {
            duty,
            next_allowed_us: 0,
        }
    }

    /// The configured duty-cycle fraction.
    pub fn duty(&self) -> f64 {
        self.duty
    }

    /// Whether a transmission may start at `now_us`.
    pub fn may_transmit(&self, now_us: u64) -> bool {
        now_us >= self.next_allowed_us
    }

    /// Earliest permitted start time for the next transmission.
    pub fn next_allowed_us(&self) -> u64 {
        self.next_allowed_us
    }

    /// Record a transmission starting at `start_us` lasting
    /// `airtime_us`; updates the off-period. Returns `false` (and
    /// records nothing) if the transmission violates the duty cycle.
    pub fn record(&mut self, start_us: u64, airtime_us: u64) -> bool {
        if !self.may_transmit(start_us) {
            return false;
        }
        let off = (airtime_us as f64 * (1.0 / self.duty - 1.0)).ceil() as u64;
        self.next_allowed_us = start_us + airtime_us + off;
        true
    }

    /// Long-run maximum transmissions per hour for a fixed airtime.
    pub fn max_tx_per_hour(&self, airtime_us: u64) -> f64 {
        3_600e6 * self.duty / airtime_us as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_percent_enforces_99x_offtime() {
        let mut g = DutyCycleGovernor::new(0.01);
        assert!(g.record(0, 1_000_000)); // 1 s airtime
        assert_eq!(g.next_allowed_us(), 100_000_000); // 1 s + 99 s off
        assert!(!g.may_transmit(99_999_999));
        assert!(g.may_transmit(100_000_000));
    }

    #[test]
    fn violation_rejected_and_state_unchanged() {
        let mut g = DutyCycleGovernor::new(0.01);
        assert!(g.record(0, 1_000_000));
        let next = g.next_allowed_us();
        assert!(!g.record(50_000_000, 1_000_000));
        assert_eq!(g.next_allowed_us(), next);
    }

    #[test]
    fn full_duty_never_blocks() {
        let mut g = DutyCycleGovernor::new(1.0);
        assert!(g.record(0, 5_000_000));
        assert!(g.may_transmit(5_000_000));
        assert!(g.record(5_000_000, 5_000_000));
    }

    #[test]
    fn max_tx_rate_matches_paper_scale() {
        // SF7, 23-byte packet ≈ 61.7 ms ⇒ at 1% duty ≈ 5.8 packets/min.
        let g = DutyCycleGovernor::new(0.01);
        let per_hour = g.max_tx_per_hour(61_696);
        assert!((per_hour - 583.5).abs() < 1.0, "{per_hour}");
    }

    #[test]
    #[should_panic]
    fn zero_duty_is_invalid() {
        DutyCycleGovernor::new(0.0);
    }

    #[test]
    fn long_run_duty_respected() {
        // Simulate greedy transmission attempts; achieved duty ≤ 1%.
        let mut g = DutyCycleGovernor::new(0.01);
        let airtime = 370_688u64; // SF10 23B
        let horizon = 10_000_000_000u64; // 10 000 s
        let mut now = 0;
        let mut on_air = 0u64;
        while now < horizon {
            if g.may_transmit(now) {
                g.record(now, airtime);
                on_air += airtime;
                now += airtime;
            } else {
                now = g.next_allowed_us();
            }
        }
        let duty = on_air as f64 / horizon as f64;
        assert!(duty <= 0.0101, "achieved duty {duty}");
        assert!(duty >= 0.0095, "governor too conservative: {duty}");
    }

    #[test]
    fn fresh_governor_allows_immediately() {
        let g = DutyCycleGovernor::new(0.01);
        assert_eq!(g.duty(), 0.01);
        assert_eq!(g.next_allowed_us(), 0);
        assert!(g.may_transmit(0));
    }

    #[test]
    fn ten_percent_enforces_9x_offtime() {
        let mut g = DutyCycleGovernor::new(0.1);
        assert!(g.record(2_000_000, 100_000));
        assert_eq!(g.next_allowed_us(), 3_000_000); // 0.1 s on + 0.9 s off
    }

    #[test]
    fn fractional_off_period_rounds_up() {
        // 1 µs at 30 % duty owes 2.33 µs of silence: the governor
        // waits 3, never less than the regulation asks.
        let mut g = DutyCycleGovernor::new(0.3);
        assert!(g.record(0, 1));
        assert_eq!(g.next_allowed_us(), 4);
    }

    #[test]
    #[should_panic(expected = "duty cycle must be in (0,1]")]
    fn duty_above_one_is_invalid() {
        DutyCycleGovernor::new(1.5);
    }
}
