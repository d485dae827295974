//! # chaos — deterministic fault injection and resilience layer
//!
//! The paper's evaluation assumes healthy infrastructure; real global
//! IoT deployments see gateways power-cycle and backhauls drop and
//! reorder datagrams. This crate injects those failures
//! **deterministically** so resilience claims are testable:
//!
//! * [`plan`] — [`FaultPlan`]: a pure-data, serde-loadable description
//!   of what fails and when. Plans are replayable: the same plan over
//!   the same workload produces byte-identical metrics;
//! * [`schedule`] — [`FaultSchedule`]: a compiled plan answering
//!   point-in-time queries. Implements [`sim::faults::InfraFaults`] so
//!   [`sim::world::SimWorld::run_with_faults`] can consult it, and
//!   derives per-datagram backhaul fates ([`DatagramFate`]) from a
//!   seeded hash (no shared RNG state, so query order never changes
//!   outcomes);
//! * [`udp_proxy`] — [`ChaosUdpProxy`]: a real-socket UDP proxy that
//!   applies the same fault model between a live packet forwarder
//!   (`gateway::forwarder`) and `svc`'s `netserverd`.
//!
//! Two fault domains, one schedule:
//!
//! | domain        | faults                                     | injects into |
//! |---------------|--------------------------------------------|--------------|
//! | gateway       | crash/restart windows, decoder lock-ups    | `gateway::pool`, `sim::world` |
//! | backhaul      | datagram loss, latency/jitter, duplication, reordering | `netserverd` ↔ `gateway::forwarder` |

#![deny(missing_docs)]

pub mod plan;
pub mod rng;
pub mod schedule;
pub mod udp_proxy;

pub use plan::{FaultPlan, FaultSpec, PlanError};
pub use schedule::{DatagramFate, FaultSchedule};
pub use udp_proxy::ChaosUdpProxy;
