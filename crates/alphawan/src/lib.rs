//! # alphawan — the paper's core contribution
//!
//! AlphaWAN augments a standard LoRaWAN stack with two primitives
//! (§4.3):
//!
//! 1. **Intra-network channel planning** ([`cp`], [`planner`]): a joint
//!    optimization of gateway channel sets and per-node channel /
//!    data-rate / Tx-power assignments, minimizing decoder-contention
//!    risk (the NP-hard CP problem of §4.3.1, solved with an
//!    evolutionary algorithm seeded by a greedy constructor). This
//!    packages Strategies ① (fewer channels per gateway), ②
//!    (heterogeneous configurations) and ⑦ (contention management).
//! 2. **Inter-network channel planning** ([`master`]): a centralized
//!    Master node that divides the shared spectrum into
//!    frequency-misaligned sub-channel plans, one per operator, so the
//!    radios' frequency selectivity physically isolates coexisting
//!    networks (Strategy ⑧). Operators talk to the Master over a
//!    length-prefixed JSON TCP protocol, as in the paper's
//!    implementation.
//!
//! [`strategy`] documents the full Table 1 strategy space; [`upgrade`]
//! orchestrates a capacity upgrade end-to-end and accounts its latency
//! (Fig. 17); [`operators`] carries the Table 2 industry snapshot.

pub mod cp;
pub mod master;
pub mod operators;
pub mod planner;
pub mod strategy;
pub mod upgrade;

pub use cp::anneal::{anneal, AnnealConfig, AnnealSolver};
pub use cp::eval::{EvalContext, Genome, IncrementalEval, Scratch};
pub use cp::ga::{GaConfig, GaSolver, SolverStats};
pub use cp::greedy::greedy_plan;
pub use cp::{CpProblem, CpSolution, GatewayLimits};
pub use master::divider::ChannelDivider;
pub use master::server::MasterServer;
pub use master::{MasterClient, MasterNode};
pub use planner::{IntraNetworkPlanner, PlanOutcome};
pub use strategy::{Strategy, STRATEGIES};
pub use upgrade::{CapacityUpgrade, UpgradeLatency};
