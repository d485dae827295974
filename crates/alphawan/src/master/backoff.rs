//! Exponential backoff with deterministic jitter for Master reconnects.
//!
//! Jitter is derived from a seeded hash of the attempt number rather
//! than ambient randomness so a reconnect sequence is replayable in
//! fault-injection tests: the same policy yields the same delays.

use std::time::Duration;

/// Reconnect policy: exponential backoff, jittered, bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the second attempt (the first is immediate).
    pub initial: Duration,
    /// Cap on any single delay.
    pub max: Duration,
    /// Growth factor per attempt (≥ 1.0).
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Total connection attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            initial: Duration::from_millis(100),
            max: Duration::from_secs(10),
            multiplier: 2.0,
            jitter: 0.2,
            max_attempts: 6,
            seed: 0,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// A fast policy for tests (millisecond-scale delays).
    #[cfg(test)]
    pub(crate) fn fast_for_tests() -> BackoffPolicy {
        BackoffPolicy {
            initial: Duration::from_millis(5),
            max: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.2,
            max_attempts: 5,
            seed: 42,
        }
    }

    /// Delay to wait *after* failed attempt number `attempt` (0-based).
    /// Deterministic: the same `(policy, attempt)` always yields the
    /// same delay.
    pub fn delay_after(&self, attempt: u32) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt as i32);
        let base = base.min(self.max.as_secs_f64());
        let unit = (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64((base * factor).clamp(0.0, self.max.as_secs_f64()))
    }

    /// The jittered delay sequence for all attempts, for inspection.
    pub fn delays(&self) -> Vec<Duration> {
        (0..self.max_attempts.saturating_sub(1))
            .map(|a| self.delay_after(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_up_to_cap() {
        let p = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(p.delay_after(0), Duration::from_millis(100));
        assert_eq!(p.delay_after(1), Duration::from_millis(200));
        assert_eq!(p.delay_after(2), Duration::from_millis(400));
        assert_eq!(p.delay_after(20), Duration::from_secs(10)); // capped
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = BackoffPolicy::default();
        for attempt in 0..10 {
            let d = p.delay_after(attempt);
            assert_eq!(d, p.delay_after(attempt), "replayable");
            let base = 0.1 * 2f64.powi(attempt as i32);
            let base = base.min(10.0);
            let lo = base * (1.0 - p.jitter) - 1e-9;
            let hi = (base * (1.0 + p.jitter)).min(10.0) + 1e-9;
            let secs = d.as_secs_f64();
            assert!(
                secs >= lo && secs <= hi,
                "attempt {attempt}: {secs} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let a = BackoffPolicy {
            seed: 1,
            ..BackoffPolicy::default()
        };
        let b = BackoffPolicy {
            seed: 2,
            ..BackoffPolicy::default()
        };
        assert_ne!(a.delays(), b.delays());
    }

    #[test]
    fn delays_len_matches_attempts() {
        let p = BackoffPolicy {
            max_attempts: 4,
            ..BackoffPolicy::default()
        };
        assert_eq!(p.delays().len(), 3); // no delay after the last attempt
        let one = BackoffPolicy {
            max_attempts: 1,
            ..BackoffPolicy::default()
        };
        assert!(one.delays().is_empty());
    }
}
