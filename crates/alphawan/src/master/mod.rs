//! The AlphaWAN Master node — inter-network channel planning
//! (Strategy ⑧, §4.3.2).
//!
//! "AlphaWAN shifts the responsibilities of channel division and
//! maintenance from individual operators to a centralized Master node.
//! The Master estimates the maximum number of networks coexisting in a
//! region and selects a frequency misalignment to divide the LoRaWAN
//! spectrum into frequency-overlapping sub-channels. … Different
//! operators receive unique channel plans to minimize potential
//! inter-network interference."
//!
//! [`divider`] implements the spectrum carving; [`MasterNode`] is the
//! in-process registry/assignment state machine; [`proto`] +
//! [`server`] + [`MasterClient`] expose it over the TCP protocol the
//! paper implements ("data exchanges implemented via TCP"). [`backoff`]
//! and [`resilient`] harden the client side against control-plane
//! faults: jittered exponential reconnects and cached-plan degradation
//! when the Master partitions.

pub mod backoff;
pub mod client;
pub mod divider;
pub mod proto;
pub mod resilient;
pub mod server;

pub use backoff::BackoffPolicy;
pub use client::MasterClient;
pub use resilient::{PlanSource, ResilientMasterClient};
pub use server::{MasterServer, ServerEvent, ServerObserver};

use divider::ChannelDivider;
use lora_phy::channel::Channel;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A spectrum region managed by the Master.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    pub band_low_hz: u32,
    pub spectrum_hz: u32,
    /// Expected maximum number of coexisting networks.
    pub expected_networks: usize,
}

/// Errors the Master can return to an operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MasterError {
    UnknownOperator,
    /// All misaligned plans in the region are taken.
    RegionFull,
    AlreadyAssigned,
}

impl std::fmt::Display for MasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterError::UnknownOperator => write!(f, "operator not registered"),
            MasterError::RegionFull => write!(f, "no free misaligned channel plan in region"),
            MasterError::AlreadyAssigned => write!(f, "operator already holds an assignment"),
        }
    }
}

impl std::error::Error for MasterError {}

/// A plan assignment with its lease bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Assignment {
    slot: usize,
    /// Last renewal instant, ms of Master-local monotonic time.
    renewed_at_ms: u64,
}

/// The Master's in-memory state: registered operators and their channel
/// assignments ("an up-to-date record of channel occupancy in the
/// area"). Assignments are *leases*: an operator that stops renewing —
/// a decommissioned network, a crashed server — frees its plan for
/// newcomers once the configured lease TTL elapses.
#[derive(Debug)]
pub struct MasterNode {
    region: RegionSpec,
    divider: ChannelDivider,
    /// operator name → operator id.
    operators: HashMap<String, usize>,
    /// operator id → lease.
    assignments: HashMap<usize, Assignment>,
    next_id: usize,
    /// Master-local clock, ms (advanced by the caller/server).
    now_ms: u64,
    /// Lease time-to-live; 0 disables expiry.
    lease_ttl_ms: u64,
}

impl MasterNode {
    pub fn new(region: RegionSpec) -> MasterNode {
        MasterNode {
            divider: ChannelDivider::for_region(&region),
            region,
            operators: HashMap::new(),
            assignments: HashMap::new(),
            next_id: 0,
            now_ms: 0,
            lease_ttl_ms: 0,
        }
    }

    /// Change the lease TTL on a running node (e.g. through
    /// [`crate::master::server::MasterServer::node`]).
    pub fn set_lease_ttl_ms(&mut self, ttl_ms: u64) {
        self.lease_ttl_ms = ttl_ms;
    }

    /// Advance the Master's clock and expire stale leases.
    pub fn tick(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        if self.lease_ttl_ms == 0 {
            return;
        }
        let deadline = self.now_ms.saturating_sub(self.lease_ttl_ms);
        self.assignments.retain(|_, a| a.renewed_at_ms >= deadline);
    }

    pub fn region(&self) -> RegionSpec {
        self.region
    }

    pub fn divider(&self) -> &ChannelDivider {
        &self.divider
    }

    /// Register an operator (idempotent by name); returns its id.
    pub fn register(&mut self, name: &str) -> usize {
        if let Some(&id) = self.operators.get(name) {
            return id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.operators.insert(name.to_string(), id);
        id
    }

    /// Assign the operator the next free misaligned channel plan.
    /// Re-requesting renews the operator's lease and re-delivers the
    /// same plan ("heartbeat").
    pub fn request_channels(&mut self, operator_id: usize) -> Result<Vec<Channel>, MasterError> {
        if !self.operators.values().any(|&id| id == operator_id) {
            return Err(MasterError::UnknownOperator);
        }
        let now_ms = self.now_ms;
        if let Some(a) = self.assignments.get_mut(&operator_id) {
            a.renewed_at_ms = now_ms;
            return Ok(self.divider.plan(a.slot));
        }
        let taken: std::collections::HashSet<usize> =
            self.assignments.values().map(|a| a.slot).collect();
        let slot = (0..self.divider.slots())
            .find(|s| !taken.contains(s))
            .ok_or(MasterError::RegionFull)?;
        self.assignments.insert(
            operator_id,
            Assignment {
                slot,
                renewed_at_ms: now_ms,
            },
        );
        Ok(self.divider.plan(slot))
    }

    /// Release an operator's assignment.
    pub fn release(&mut self, operator_id: usize) -> Result<(), MasterError> {
        self.assignments
            .remove(&operator_id)
            .map(|_| ())
            .ok_or(MasterError::UnknownOperator)
    }

    /// Current occupancy: (operator id, plan slot) pairs.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> =
            self.assignments.iter().map(|(&o, a)| (o, a.slot)).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::overlap_ratio;
    use lora_phy::interference::DETECTION_OVERLAP_THRESHOLD;

    fn region() -> RegionSpec {
        RegionSpec {
            band_low_hz: 923_200_000,
            spectrum_hz: 1_600_000,
            expected_networks: 3,
        }
    }

    #[test]
    fn registration_idempotent() {
        let mut m = MasterNode::new(region());
        let a = m.register("op-a");
        let b = m.register("op-b");
        assert_ne!(a, b);
        assert_eq!(m.register("op-a"), a);
    }

    #[test]
    fn distinct_plans_per_operator() {
        let mut m = MasterNode::new(region());
        let a = m.register("op-a");
        let b = m.register("op-b");
        let plan_a = m.request_channels(a).unwrap();
        let plan_b = m.request_channels(b).unwrap();
        assert_ne!(plan_a, plan_b);
        // Re-request returns the same plan.
        assert_eq!(m.request_channels(a).unwrap(), plan_a);
    }

    #[test]
    fn plans_mutually_misaligned_below_detection() {
        let mut m = MasterNode::new(region());
        let ids: Vec<usize> = (0..3).map(|i| m.register(&format!("op-{i}"))).collect();
        let plans: Vec<Vec<Channel>> = ids
            .iter()
            .map(|&id| m.request_channels(id).unwrap())
            .collect();
        for x in 0..plans.len() {
            for y in (x + 1)..plans.len() {
                for ca in &plans[x] {
                    for cb in &plans[y] {
                        let rho = overlap_ratio(ca, cb);
                        assert!(
                            rho < DETECTION_OVERLAP_THRESHOLD,
                            "plans {x} and {y} collide: overlap {rho}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn region_fills_up() {
        let mut m = MasterNode::new(region());
        for i in 0..3 {
            let id = m.register(&format!("op-{i}"));
            assert!(m.request_channels(id).is_ok());
        }
        let extra = m.register("op-late");
        assert_eq!(m.request_channels(extra), Err(MasterError::RegionFull));
        // Releasing one slot admits the latecomer.
        let first = m.register("op-0");
        m.release(first).unwrap();
        assert!(m.request_channels(extra).is_ok());
    }

    #[test]
    fn unknown_operator_rejected() {
        let mut m = MasterNode::new(region());
        assert_eq!(m.request_channels(99), Err(MasterError::UnknownOperator));
        assert_eq!(m.release(99), Err(MasterError::UnknownOperator));
    }

    #[test]
    fn leases_expire_without_heartbeat() {
        let mut m = MasterNode::new(region());
        m.set_lease_ttl_ms(10_000);
        let a = m.register("op-a");
        let b = m.register("op-b");
        m.request_channels(a).unwrap();
        m.tick(5_000);
        // op-a heartbeats; op-b joins late.
        m.request_channels(a).unwrap();
        m.request_channels(b).unwrap();
        // At t=16s, op-a's lease (renewed at 5s) has expired; op-b's
        // (granted at 5s)... also expired. Renew only b at 12s first.
        m.tick(12_000);
        m.request_channels(b).unwrap();
        m.tick(16_000);
        let occ = m.occupancy();
        assert_eq!(occ.len(), 1, "{occ:?}");
        assert_eq!(occ[0].0, b);
        // The freed slot is reassignable.
        let c = m.register("op-c");
        assert!(m.request_channels(c).is_ok());
    }

    #[test]
    fn heartbeat_preserves_the_same_plan() {
        let mut m = MasterNode::new(region());
        m.set_lease_ttl_ms(1_000);
        let a = m.register("op-a");
        let plan1 = m.request_channels(a).unwrap();
        m.tick(900);
        let plan2 = m.request_channels(a).unwrap();
        m.tick(1_800);
        let plan3 = m.request_channels(a).unwrap();
        assert_eq!(plan1, plan2);
        assert_eq!(plan2, plan3, "continuous heartbeats keep the lease alive");
    }

    #[test]
    fn zero_ttl_never_expires() {
        let mut m = MasterNode::new(region());
        let a = m.register("op-a");
        m.request_channels(a).unwrap();
        m.tick(u64::MAX / 2);
        assert_eq!(m.occupancy().len(), 1);
    }

    #[test]
    fn occupancy_reflects_state() {
        let mut m = MasterNode::new(region());
        let a = m.register("a");
        let b = m.register("b");
        m.request_channels(b).unwrap();
        m.request_channels(a).unwrap();
        let occ = m.occupancy();
        assert_eq!(occ.len(), 2);
        assert!(occ.contains(&(a, 1)));
        assert!(occ.contains(&(b, 0)));
    }
}
