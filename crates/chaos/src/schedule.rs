//! Compiled fault schedules: point-in-time queries over a [`FaultPlan`].
//!
//! Compilation validates the plan once and splits it by fault domain so
//! queries on the simulation hot path are cheap linear scans over only
//! the relevant windows. All answers are pure functions of the query
//! arguments and the plan — see [`crate::rng`] for how per-datagram
//! decisions stay order-independent.

use crate::plan::{FaultPlan, FaultSpec, PlanError};
use crate::rng;

#[derive(Debug, Clone, Copy)]
struct CrashWindow {
    gateway: usize,
    start_us: u64,
    end_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct LockupWindow {
    gateway: usize,
    decoders: usize,
    start_us: u64,
    end_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct LossWindow {
    probability: f64,
    start_us: u64,
    end_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct DelayWindow {
    base_us: u64,
    jitter_us: u64,
    start_us: u64,
    end_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct DupWindow {
    probability: f64,
    lag_us: u64,
    start_us: u64,
    end_us: u64,
}

#[derive(Debug, Clone, Copy)]
struct ReorderWindow {
    probability: f64,
    hold_us: u64,
    start_us: u64,
    end_us: u64,
}

/// What happens to one datagram crossing a faulty backhaul.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Dropped on the floor.
    Drop,
    /// Delivered after `delay_us`; `copies > 1` means duplicates follow,
    /// each `copy_lag_us` after the previous copy.
    Deliver {
        /// Delivery latency of the first copy, µs.
        delay_us: u64,
        /// Total copies delivered (1 = no duplication).
        copies: u32,
        /// Gap between consecutive copies, µs.
        copy_lag_us: u64,
    },
}

impl DatagramFate {
    /// Arrival times (µs) for a datagram sent at `sent_us`, oldest
    /// first. Empty when dropped.
    pub fn arrivals(&self, sent_us: u64) -> Vec<u64> {
        match *self {
            DatagramFate::Drop => Vec::new(),
            DatagramFate::Deliver {
                delay_us,
                copies,
                copy_lag_us,
            } => {
                let first = sent_us.saturating_add(delay_us);
                (0..copies as u64)
                    .map(|i| first.saturating_add(i * copy_lag_us))
                    .collect()
            }
        }
    }
}

fn in_window(t_us: u64, start_us: u64, end_us: u64) -> bool {
    start_us <= t_us && t_us < end_us
}

/// A validated, query-ready fault schedule. Compile once per run with
/// [`FaultSchedule::compile`]; share by reference everywhere faults are
/// consulted.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    crashes: Vec<CrashWindow>,
    lockups: Vec<LockupWindow>,
    losses: Vec<LossWindow>,
    delays: Vec<DelayWindow>,
    dups: Vec<DupWindow>,
    reorders: Vec<ReorderWindow>,
}

impl FaultSchedule {
    /// Validate `plan` and compile it into a schedule.
    pub fn compile(plan: &FaultPlan) -> Result<FaultSchedule, PlanError> {
        plan.validate()?;
        let mut s = FaultSchedule {
            seed: plan.seed,
            crashes: Vec::new(),
            lockups: Vec::new(),
            losses: Vec::new(),
            delays: Vec::new(),
            dups: Vec::new(),
            reorders: Vec::new(),
        };
        for fault in &plan.faults {
            match *fault {
                FaultSpec::GatewayCrash {
                    gateway,
                    start_us,
                    end_us,
                } => {
                    s.crashes.push(CrashWindow {
                        gateway,
                        start_us,
                        end_us,
                    });
                }
                FaultSpec::DecoderLockup {
                    gateway,
                    decoders,
                    start_us,
                    end_us,
                } => {
                    s.lockups.push(LockupWindow {
                        gateway,
                        decoders,
                        start_us,
                        end_us,
                    });
                }
                FaultSpec::BackhaulLoss {
                    probability,
                    start_us,
                    end_us,
                } => {
                    s.losses.push(LossWindow {
                        probability,
                        start_us,
                        end_us,
                    });
                }
                FaultSpec::BackhaulDelay {
                    base_us,
                    jitter_us,
                    start_us,
                    end_us,
                } => {
                    s.delays.push(DelayWindow {
                        base_us,
                        jitter_us,
                        start_us,
                        end_us,
                    });
                }
                FaultSpec::BackhaulDuplicate {
                    probability,
                    lag_us,
                    start_us,
                    end_us,
                } => {
                    s.dups.push(DupWindow {
                        probability,
                        lag_us,
                        start_us,
                        end_us,
                    });
                }
                FaultSpec::BackhaulReorder {
                    probability,
                    hold_us,
                    start_us,
                    end_us,
                } => {
                    s.reorders.push(ReorderWindow {
                        probability,
                        hold_us,
                        start_us,
                        end_us,
                    });
                }
            }
        }
        Ok(s)
    }

    /// The plan's decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if no fault of any domain is scheduled.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.lockups.is_empty() && !self.has_backhaul_faults()
    }

    /// True if any backhaul fault (loss/delay/dup/reorder) is scheduled.
    pub fn has_backhaul_faults(&self) -> bool {
        !(self.losses.is_empty()
            && self.delays.is_empty()
            && self.dups.is_empty()
            && self.reorders.is_empty())
    }

    // ---- gateway domain -------------------------------------------------

    /// Is `gw` inside a crash window at `t_us`?
    pub fn gateway_down_at(&self, gw: usize, t_us: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.gateway == gw && in_window(t_us, c.start_us, c.end_us))
    }

    /// Does any crash window of `gw` overlap `[from_us, to_us]`? Exact
    /// even for crash windows shorter than the queried span.
    pub fn gateway_down_within(&self, gw: usize, from_us: u64, to_us: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.gateway == gw && c.start_us <= to_us && from_us < c.end_us)
    }

    /// Locked decoders at `gw` at `t_us` (sum over active lock-ups;
    /// callers clamp to pool capacity).
    pub fn locked_decoders_at(&self, gw: usize, t_us: u64) -> usize {
        self.lockups
            .iter()
            .filter(|l| l.gateway == gw && in_window(t_us, l.start_us, l.end_us))
            .map(|l| l.decoders)
            .sum()
    }

    // ---- backhaul domain ------------------------------------------------

    /// Fate of the `seq`-th datagram on a faulty link at `t_us`. The
    /// decision hashes `(seed, domain, seq)` — it does not depend on the
    /// fates of other datagrams or on query order.
    pub fn datagram_fate(&self, seq: u64, t_us: u64) -> DatagramFate {
        for w in &self.losses {
            if in_window(t_us, w.start_us, w.end_us)
                && rng::decision_unit(self.seed, rng::DOMAIN_LOSS, seq) < w.probability
            {
                return DatagramFate::Drop;
            }
        }
        let mut delay_us = 0u64;
        for w in &self.delays {
            if in_window(t_us, w.start_us, w.end_us) {
                let jitter = if w.jitter_us == 0 {
                    0
                } else {
                    rng::decision_word(self.seed, rng::DOMAIN_JITTER, seq) % w.jitter_us
                };
                delay_us = delay_us.saturating_add(w.base_us).saturating_add(jitter);
            }
        }
        for w in &self.reorders {
            if in_window(t_us, w.start_us, w.end_us)
                && rng::decision_unit(self.seed, rng::DOMAIN_REORDER, seq) < w.probability
            {
                delay_us = delay_us.saturating_add(w.hold_us);
            }
        }
        let mut copies = 1u32;
        let mut copy_lag_us = 0u64;
        for w in &self.dups {
            if in_window(t_us, w.start_us, w.end_us)
                && rng::decision_unit(self.seed, rng::DOMAIN_DUP, seq) < w.probability
            {
                copies += 1;
                copy_lag_us = copy_lag_us.max(w.lag_us);
            }
        }
        DatagramFate::Deliver {
            delay_us,
            copies,
            copy_lag_us,
        }
    }
}

impl sim::faults::InfraFaults for FaultSchedule {
    fn gateway_down(&self, gw: usize, t_us: u64) -> bool {
        self.gateway_down_at(gw, t_us)
    }

    // Exact window overlap, not just endpoint checks: a crash window
    // strictly inside a long reception still kills it.
    fn gateway_down_during(&self, gw: usize, from_us: u64, to_us: u64) -> bool {
        self.gateway_down_within(gw, from_us, to_us)
    }

    fn locked_decoders(&self, gw: usize, t_us: u64) -> usize {
        self.locked_decoders_at(gw, t_us)
    }

    fn gateway_ever_down(&self, gw: usize) -> bool {
        self.gateway_down_within(gw, 0, u64::MAX)
    }

    fn decoder_lockups_possible(&self, gw: usize) -> bool {
        self.lockups.iter().any(|l| l.gateway == gw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::faults::InfraFaults;

    fn schedule(faults: Vec<FaultSpec>) -> FaultSchedule {
        FaultSchedule::compile(&FaultPlan { seed: 7, faults }).unwrap()
    }

    #[test]
    fn empty_plan_compiles_to_empty_schedule() {
        let s = FaultSchedule::compile(&FaultPlan::empty(1)).unwrap();
        assert!(s.is_empty());
        assert!(!s.gateway_down_at(0, 0));
        assert_eq!(s.locked_decoders_at(0, 0), 0);
        assert_eq!(
            s.datagram_fate(0, 0),
            DatagramFate::Deliver {
                delay_us: 0,
                copies: 1,
                copy_lag_us: 0
            }
        );
    }

    #[test]
    fn invalid_plan_rejected_at_compile() {
        let bad = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::BackhaulLoss {
                probability: -0.1,
                start_us: 0,
                end_us: 1,
            }],
        };
        assert!(FaultSchedule::compile(&bad).is_err());
    }

    #[test]
    fn crash_window_is_half_open() {
        let s = schedule(vec![FaultSpec::GatewayCrash {
            gateway: 2,
            start_us: 100,
            end_us: 200,
        }]);
        assert!(!s.gateway_down_at(2, 99));
        assert!(s.gateway_down_at(2, 100));
        assert!(s.gateway_down_at(2, 199));
        assert!(!s.gateway_down_at(2, 200));
        assert!(!s.gateway_down_at(1, 150)); // other gateway unaffected
    }

    #[test]
    fn down_during_catches_interior_windows() {
        // Crash window strictly inside the queried reception span: the
        // default endpoint check would miss it; the override must not.
        let s = schedule(vec![FaultSpec::GatewayCrash {
            gateway: 0,
            start_us: 100,
            end_us: 200,
        }]);
        assert!(s.gateway_down_during(0, 50, 300));
        assert!(s.gateway_down_during(0, 150, 160));
        assert!(!s.gateway_down_during(0, 0, 50));
        assert!(!s.gateway_down_during(0, 200, 300));
    }

    #[test]
    fn a_query_touching_a_crash_start_overlaps_it() {
        let s = schedule(vec![FaultSpec::GatewayCrash {
            gateway: 1,
            start_us: 100,
            end_us: 200,
        }]);
        // The queried span is closed, the crash window half-open.
        assert!(s.gateway_down_within(1, 50, 100));
        assert!(s.gateway_down_within(1, 199, 400));
        assert!(!s.gateway_down_within(1, 200, 400));
        assert!(!s.gateway_down_within(0, 0, u64::MAX), "other gateway");
        let f: &dyn InfraFaults = &s;
        assert!(f.gateway_ever_down(1) && !f.gateway_ever_down(0));
    }

    #[test]
    fn lockups_sum_over_overlapping_windows() {
        let s = schedule(vec![
            FaultSpec::DecoderLockup {
                gateway: 0,
                decoders: 3,
                start_us: 0,
                end_us: 100,
            },
            FaultSpec::DecoderLockup {
                gateway: 0,
                decoders: 2,
                start_us: 50,
                end_us: 150,
            },
        ]);
        assert_eq!(s.locked_decoders_at(0, 10), 3);
        assert_eq!(s.locked_decoders_at(0, 60), 5);
        assert_eq!(s.locked_decoders_at(0, 120), 2);
        assert_eq!(s.locked_decoders_at(0, 150), 0);
        assert_eq!(s.locked_decoders_at(1, 60), 0);
    }

    #[test]
    fn datagram_fate_matches_probabilities() {
        let s = schedule(vec![FaultSpec::BackhaulLoss {
            probability: 0.3,
            start_us: 0,
            end_us: u64::MAX,
        }]);
        let dropped = (0..10_000)
            .filter(|&seq| s.datagram_fate(seq, 0) == DatagramFate::Drop)
            .count();
        assert!((2_700..3_300).contains(&dropped), "{dropped}");
    }

    #[test]
    fn datagram_fate_is_replayable_and_window_scoped() {
        let s = schedule(vec![FaultSpec::BackhaulDelay {
            base_us: 1_000,
            jitter_us: 500,
            start_us: 100,
            end_us: 200,
        }]);
        let inside = s.datagram_fate(9, 150);
        assert_eq!(inside, s.datagram_fate(9, 150));
        match inside {
            DatagramFate::Deliver {
                delay_us,
                copies: 1,
                copy_lag_us: 0,
            } => {
                assert!((1_000..1_500).contains(&delay_us), "{delay_us}");
            }
            other => panic!("unexpected fate {other:?}"),
        }
        assert_eq!(
            s.datagram_fate(9, 250),
            DatagramFate::Deliver {
                delay_us: 0,
                copies: 1,
                copy_lag_us: 0
            }
        );
    }

    #[test]
    fn duplication_adds_lagged_copies() {
        let s = schedule(vec![FaultSpec::BackhaulDuplicate {
            probability: 1.0,
            lag_us: 42,
            start_us: 0,
            end_us: u64::MAX,
        }]);
        let fate = s.datagram_fate(3, 0);
        assert_eq!(
            fate,
            DatagramFate::Deliver {
                delay_us: 0,
                copies: 2,
                copy_lag_us: 42
            }
        );
        assert_eq!(fate.arrivals(100), [100, 142]);
        assert!(DatagramFate::Drop.arrivals(100).is_empty());
    }

    #[test]
    fn arrivals_saturate_at_the_end_of_time() {
        let fate = DatagramFate::Deliver {
            delay_us: u64::MAX - 15,
            copies: 3,
            copy_lag_us: 10,
        };
        assert_eq!(fate.arrivals(10), [u64::MAX - 5, u64::MAX, u64::MAX]);
    }

    #[test]
    fn overlapping_backhaul_windows_stack() {
        let (start_us, end_us) = (0, u64::MAX);
        let s = schedule(vec![
            FaultSpec::BackhaulDelay {
                base_us: 100,
                jitter_us: 0,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulDelay {
                base_us: 20,
                jitter_us: 0,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulReorder {
                probability: 1.0,
                hold_us: 3,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulDuplicate {
                probability: 1.0,
                lag_us: 7,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulDuplicate {
                probability: 1.0,
                lag_us: 40,
                start_us,
                end_us,
            },
        ]);
        // Delays and holds add; each duplicating window adds a copy and
        // the copies trail by the longest lag.
        assert_eq!(
            s.datagram_fate(5, 0),
            DatagramFate::Deliver {
                delay_us: 123,
                copies: 3,
                copy_lag_us: 40
            }
        );
    }

    #[test]
    fn a_lost_datagram_is_neither_delayed_nor_duplicated() {
        let s = schedule(vec![
            FaultSpec::BackhaulDuplicate {
                probability: 1.0,
                lag_us: 7,
                start_us: 0,
                end_us: u64::MAX,
            },
            FaultSpec::BackhaulLoss {
                probability: 1.0,
                start_us: 0,
                end_us: u64::MAX,
            },
        ]);
        assert!((0..100).all(|seq| s.datagram_fate(seq, 0) == DatagramFate::Drop));
    }

    #[test]
    fn reordering_lets_later_datagrams_overtake() {
        let s = schedule(vec![FaultSpec::BackhaulReorder {
            probability: 0.5,
            hold_us: 1_000_000,
            start_us: 0,
            end_us: u64::MAX,
        }]);
        // With a huge hold, any held datagram arrives after every
        // unheld successor sent within the hold window.
        let mut arrivals = Vec::new();
        for seq in 0..100u64 {
            let sent = seq * 1_000;
            for a in s.datagram_fate(seq, sent).arrivals(sent) {
                arrivals.push((a, seq));
            }
        }
        arrivals.sort();
        let order: Vec<u64> = arrivals.iter().map(|&(_, seq)| seq).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(order, sorted, "some datagrams overtook others");
    }

    #[test]
    fn schedules_compiled_from_one_plan_agree() {
        let plan = FaultPlan {
            seed: 11,
            faults: vec![
                FaultSpec::BackhaulLoss {
                    probability: 0.3,
                    start_us: 0,
                    end_us: u64::MAX,
                },
                FaultSpec::BackhaulDelay {
                    base_us: 500,
                    jitter_us: 300,
                    start_us: 0,
                    end_us: u64::MAX,
                },
            ],
        };
        let a = FaultSchedule::compile(&plan).unwrap();
        let b = FaultSchedule::compile(&FaultPlan::from_json(&plan.to_json()).unwrap()).unwrap();
        for seq in 0..500 {
            assert_eq!(a.datagram_fate(seq, seq * 7), b.datagram_fate(seq, seq * 7));
        }
    }

    #[test]
    fn backhaul_faults_are_told_from_gateway_faults() {
        let gateway_only = schedule(vec![FaultSpec::DecoderLockup {
            gateway: 0,
            decoders: 1,
            start_us: 0,
            end_us: 1,
        }]);
        assert!(!gateway_only.is_empty());
        assert!(!gateway_only.has_backhaul_faults());
        let (start_us, end_us) = (5, 6);
        for fault in [
            FaultSpec::BackhaulLoss {
                probability: 0.0,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulDelay {
                base_us: 0,
                jitter_us: 0,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulDuplicate {
                probability: 0.0,
                lag_us: 0,
                start_us,
                end_us,
            },
            FaultSpec::BackhaulReorder {
                probability: 0.0,
                hold_us: 0,
                start_us,
                end_us,
            },
        ] {
            let s = schedule(vec![fault]);
            assert!(s.has_backhaul_faults() && !s.is_empty(), "{s:?}");
        }
    }

    #[test]
    fn infra_faults_impl_delegates() {
        let s = schedule(vec![
            FaultSpec::GatewayCrash {
                gateway: 0,
                start_us: 100,
                end_us: 200,
            },
            FaultSpec::DecoderLockup {
                gateway: 1,
                decoders: 4,
                start_us: 0,
                end_us: 50,
            },
        ]);
        let f: &dyn InfraFaults = &s;
        assert!(f.gateway_down(0, 150));
        assert!(f.gateway_down_during(0, 50, 300));
        assert_eq!(f.locked_decoders(1, 10), 4);
    }
}
