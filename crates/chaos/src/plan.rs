//! Fault plans: pure data describing what fails and when.
//!
//! A [`FaultPlan`] is the unit of replay — serialize it next to the
//! workload seed and a chaos run can be reproduced exactly. Times are
//! microseconds on the injected component's timeline (simulation time
//! for `sim` runs, µs since proxy start for the socket proxies).

use serde::{Deserialize, Serialize};

/// A window-scoped fault. `start_us..end_us` is half-open; use
/// `u64::MAX` as `end_us` for "until the end of the run".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Gateway is down (crash + reboot window): detects nothing,
    /// receptions in flight at crash onset are lost.
    GatewayCrash {
        /// Index of the crashed gateway.
        gateway: usize,
        /// Crash onset, µs.
        start_us: u64,
        /// End of the reboot window, µs (exclusive).
        end_us: u64,
    },
    /// `decoders` of the gateway's pool are stuck (partial hardware
    /// failure): the gateway stays up with reduced admission capacity.
    DecoderLockup {
        /// Index of the affected gateway.
        gateway: usize,
        /// How many decoders are stuck for the window.
        decoders: usize,
        /// Lockup onset, µs.
        start_us: u64,
        /// End of the lockup, µs (exclusive).
        end_us: u64,
    },
    /// Backhaul datagrams are independently lost with `probability`.
    BackhaulLoss {
        /// Per-datagram loss probability in `[0, 1]`.
        probability: f64,
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs (exclusive).
        end_us: u64,
    },
    /// Backhaul datagrams are delayed `base_us` plus uniform jitter in
    /// `[0, jitter_us)`.
    BackhaulDelay {
        /// Fixed delay component, µs.
        base_us: u64,
        /// Uniform jitter bound, µs (delay ∈ `base..base+jitter`).
        jitter_us: u64,
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs (exclusive).
        end_us: u64,
    },
    /// Backhaul datagrams are duplicated with `probability` (the copy
    /// trails the original by `lag_us`).
    BackhaulDuplicate {
        /// Per-datagram duplication probability in `[0, 1]`.
        probability: f64,
        /// How far the duplicate trails the original, µs.
        lag_us: u64,
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs (exclusive).
        end_us: u64,
    },
    /// Backhaul datagrams are held back `hold_us` with `probability`,
    /// letting later datagrams overtake them.
    BackhaulReorder {
        /// Per-datagram hold-back probability in `[0, 1]`.
        probability: f64,
        /// How long a held datagram is delayed, µs.
        hold_us: u64,
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs (exclusive).
        end_us: u64,
    },
}

impl FaultSpec {
    /// The fault's active window, `start_us..end_us`.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            FaultSpec::GatewayCrash {
                start_us, end_us, ..
            }
            | FaultSpec::DecoderLockup {
                start_us, end_us, ..
            }
            | FaultSpec::BackhaulLoss {
                start_us, end_us, ..
            }
            | FaultSpec::BackhaulDelay {
                start_us, end_us, ..
            }
            | FaultSpec::BackhaulDuplicate {
                start_us, end_us, ..
            }
            | FaultSpec::BackhaulReorder {
                start_us, end_us, ..
            } => (start_us, end_us),
        }
    }

    fn probability(&self) -> Option<f64> {
        match *self {
            FaultSpec::BackhaulLoss { probability, .. }
            | FaultSpec::BackhaulDuplicate { probability, .. }
            | FaultSpec::BackhaulReorder { probability, .. } => Some(probability),
            _ => None,
        }
    }
}

/// A deterministic, replayable fault schedule description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all per-event fault decisions. Two runs with the same
    /// plan (seed included) make identical decisions.
    pub seed: u64,
    /// The faults to inject, in no particular order.
    pub faults: Vec<FaultSpec>,
}

/// Why a plan was rejected at compile time.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A probability outside `[0, 1]`.
    BadProbability(f64),
    /// A window with `start_us > end_us`.
    BadWindow {
        /// The offending window start, µs.
        start_us: u64,
        /// The offending window end, µs.
        end_us: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            PlanError::BadWindow { start_us, end_us } => {
                write!(f, "fault window {start_us}..{end_us} is inverted")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// A plan that injects nothing (the chaos-overhead baseline).
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Check every fault's parameters.
    pub fn validate(&self) -> Result<(), PlanError> {
        for fault in &self.faults {
            let (start_us, end_us) = fault.window();
            if start_us > end_us {
                return Err(PlanError::BadWindow { start_us, end_us });
            }
            if let Some(p) = fault.probability() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(PlanError::BadProbability(p));
                }
            }
        }
        Ok(())
    }

    /// Serialize to JSON (for storing plans next to experiment configs).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("FaultPlan serializes")
    }

    /// Parse a JSON plan.
    pub fn from_json(s: &str) -> Result<FaultPlan, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 99,
            faults: vec![
                FaultSpec::GatewayCrash {
                    gateway: 0,
                    start_us: 1_000,
                    end_us: 5_000,
                },
                FaultSpec::DecoderLockup {
                    gateway: 1,
                    decoders: 8,
                    start_us: 0,
                    end_us: u64::MAX,
                },
                FaultSpec::BackhaulLoss {
                    probability: 0.25,
                    start_us: 0,
                    end_us: u64::MAX,
                },
                FaultSpec::BackhaulDelay {
                    base_us: 20_000,
                    jitter_us: 5_000,
                    start_us: 0,
                    end_us: 1_000_000,
                },
                FaultSpec::BackhaulDuplicate {
                    probability: 0.1,
                    lag_us: 3_000,
                    start_us: 0,
                    end_us: u64::MAX,
                },
                FaultSpec::BackhaulReorder {
                    probability: 0.2,
                    hold_us: 50_000,
                    start_us: 0,
                    end_us: u64::MAX,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validation_accepts_sample() {
        assert_eq!(sample_plan().validate(), Ok(()));
        assert_eq!(FaultPlan::empty(0).validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_probability() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::BackhaulLoss {
                probability: 1.5,
                start_us: 0,
                end_us: 1,
            }],
        };
        assert_eq!(plan.validate(), Err(PlanError::BadProbability(1.5)));
    }

    #[test]
    fn validation_rejects_inverted_window() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::GatewayCrash {
                gateway: 0,
                start_us: 10,
                end_us: 5,
            }],
        };
        assert_eq!(
            plan.validate(),
            Err(PlanError::BadWindow {
                start_us: 10,
                end_us: 5
            })
        );
    }

    #[test]
    fn plan_errors_name_the_offending_value() {
        assert_eq!(
            PlanError::BadProbability(1.5).to_string(),
            "probability 1.5 outside [0, 1]"
        );
        assert_eq!(
            PlanError::BadWindow {
                start_us: 10,
                end_us: 5
            }
            .to_string(),
            "fault window 10..5 is inverted"
        );
    }

    #[test]
    fn garbage_json_is_an_error() {
        assert!(FaultPlan::from_json("{not json").is_err());
        assert!(FaultPlan::from_json("{\"seed\": 1}").is_err());
    }

    #[test]
    fn a_plan_naming_clock_drift_is_refused() {
        // Nothing applied a drift: the sim and the UDP proxy ignored it.
        let json = r#"{"seed":1,"faults":[{"ClockDrift":{"gateway":0,"ppm":40.0}}]}"#;
        assert!(FaultPlan::from_json(json).is_err());
        let valid =
            r#"{"seed":1,"faults":[{"GatewayCrash":{"gateway":0,"start_us":0,"end_us":1}}]}"#;
        assert!(
            FaultPlan::from_json(valid).is_ok(),
            "the plan shape is right"
        );
    }
}
