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
    /// The gateway's timestamp counter drifts by `ppm` parts-per-million
    /// (positive = fast clock). Perturbs reported `tmst` values, not
    /// radio reception.
    ClockDrift {
        /// Index of the drifting gateway.
        gateway: usize,
        /// Drift rate, parts-per-million (positive = fast clock).
        ppm: f64,
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
    /// The fault's active window, where applicable.
    pub fn window(&self) -> Option<(u64, u64)> {
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
            } => Some((start_us, end_us)),
            FaultSpec::ClockDrift { .. } => None,
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
    /// Clock drift beyond ±100 000 ppm (10%) — almost certainly a
    /// units mistake.
    BadDrift(f64),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            PlanError::BadWindow { start_us, end_us } => {
                write!(f, "fault window {start_us}..{end_us} is inverted")
            }
            PlanError::BadDrift(ppm) => write!(f, "clock drift {ppm} ppm exceeds ±100000"),
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
            if let Some((start_us, end_us)) = fault.window() {
                if start_us > end_us {
                    return Err(PlanError::BadWindow { start_us, end_us });
                }
            }
            if let Some(p) = fault.probability() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(PlanError::BadProbability(p));
                }
            }
            if let FaultSpec::ClockDrift { ppm, .. } = *fault {
                if !ppm.is_finite() || ppm.abs() > 100_000.0 {
                    return Err(PlanError::BadDrift(ppm));
                }
            }
        }
        Ok(())
    }

    /// Announce the plan to an observability sink: one
    /// [`obs::ObsEvent::FaultActivated`] per fault, in plan order, so
    /// an event stream records which failures were scheduled against
    /// the run it describes. Backhaul faults, which have no gateway
    /// target, carry `gw: -1`; [`FaultSpec::ClockDrift`]
    /// has no window and reports `0..u64::MAX`.
    pub fn observe(&self, sink: &mut dyn obs::ObsSink) {
        if !sink.enabled() {
            return;
        }
        for fault in &self.faults {
            let kind = match fault {
                FaultSpec::GatewayCrash { .. } => obs::FaultKind::GatewayCrash,
                FaultSpec::DecoderLockup { .. } => obs::FaultKind::DecoderLockup,
                FaultSpec::ClockDrift { .. } => obs::FaultKind::ClockDrift,
                FaultSpec::BackhaulLoss { .. } => obs::FaultKind::BackhaulLoss,
                FaultSpec::BackhaulDelay { .. } => obs::FaultKind::BackhaulDelay,
                FaultSpec::BackhaulDuplicate { .. } => obs::FaultKind::BackhaulDuplicate,
                FaultSpec::BackhaulReorder { .. } => obs::FaultKind::BackhaulReorder,
            };
            let gw = match *fault {
                FaultSpec::GatewayCrash { gateway, .. }
                | FaultSpec::DecoderLockup { gateway, .. }
                | FaultSpec::ClockDrift { gateway, .. } => gateway as i64,
                _ => -1,
            };
            let (start_us, end_us) = fault.window().unwrap_or((0, u64::MAX));
            sink.record(&obs::ObsEvent::FaultActivated {
                kind,
                gw,
                start_us,
                end_us,
            });
        }
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
                FaultSpec::ClockDrift {
                    gateway: 2,
                    ppm: -40.0,
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
    fn validation_rejects_absurd_drift() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::ClockDrift {
                gateway: 0,
                ppm: 1e9,
            }],
        };
        assert!(matches!(plan.validate(), Err(PlanError::BadDrift(_))));
    }

    #[test]
    fn drift_must_be_finite() {
        for ppm in [f64::NAN, f64::INFINITY, -100_000.5] {
            let plan = FaultPlan {
                seed: 0,
                faults: vec![FaultSpec::ClockDrift { gateway: 0, ppm }],
            };
            assert!(
                matches!(plan.validate(), Err(PlanError::BadDrift(_))),
                "{ppm}"
            );
        }
        let edge = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::ClockDrift {
                gateway: 0,
                ppm: -100_000.0,
            }],
        };
        assert_eq!(edge.validate(), Ok(()));
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
        assert_eq!(
            PlanError::BadDrift(2e5).to_string(),
            "clock drift 200000 ppm exceeds ±100000"
        );
    }

    #[test]
    fn observe_emits_one_event_per_fault() {
        use obs::{FaultKind, ObsEvent, VecSink};
        let plan = sample_plan();
        let mut sink = VecSink::new();
        plan.observe(&mut sink);
        assert_eq!(sink.events().len(), plan.faults.len());
        // Spot-check the three target conventions: gateway-scoped,
        // windowless clock drift, and target-less backhaul faults.
        assert_eq!(
            sink.events()[0],
            ObsEvent::FaultActivated {
                kind: FaultKind::GatewayCrash,
                gw: 0,
                start_us: 1_000,
                end_us: 5_000,
            }
        );
        assert_eq!(
            sink.events()[2],
            ObsEvent::FaultActivated {
                kind: FaultKind::ClockDrift,
                gw: 2,
                start_us: 0,
                end_us: u64::MAX,
            }
        );
        assert!(matches!(
            sink.events()[3],
            ObsEvent::FaultActivated {
                kind: FaultKind::BackhaulLoss,
                gw: -1,
                ..
            }
        ));
    }

    #[test]
    fn observe_names_every_fault_kind_in_plan_order() {
        use obs::{FaultKind, ObsEvent, VecSink};
        let plan = sample_plan();
        let mut sink = VecSink::new();
        plan.observe(&mut sink);
        let kinds: Vec<(FaultKind, i64)> = sink
            .events()
            .iter()
            .map(|e| match *e {
                ObsEvent::FaultActivated { kind, gw, .. } => (kind, gw),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                (FaultKind::GatewayCrash, 0),
                (FaultKind::DecoderLockup, 1),
                (FaultKind::ClockDrift, 2),
                (FaultKind::BackhaulLoss, -1),
                (FaultKind::BackhaulDelay, -1),
                (FaultKind::BackhaulDuplicate, -1),
                (FaultKind::BackhaulReorder, -1),
            ]
        );
    }

    #[test]
    fn garbage_json_is_an_error() {
        assert!(FaultPlan::from_json("{not json").is_err());
        assert!(FaultPlan::from_json("{\"seed\": 1}").is_err());
    }
}
