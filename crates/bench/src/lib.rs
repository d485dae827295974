//! # bench — the experiment harness
//!
//! One module per table/figure of the paper (see [`experiments`]), run
//! by name through the `all_experiments` binary, plus the `tracectl`
//! event-stream inspector. This library holds the shared scenario
//! builders and the plain-text/CSV reporting helpers. Speed is not
//! measured here: the repo benchmark (`benchmark/`) does that.
//!
//! Run a single experiment:
//! ```text
//! cargo run --release -p bench --bin all_experiments -- fig12a_gateways
//! ```
//! or everything at once, rewriting the golden CSVs in `results/`
//! (see [`Table::emit`]):
//! ```text
//! cargo run --release -p bench --bin all_experiments
//! ```
//! Add `--obs-out results/out` to also capture the run's event stream
//! for `tracectl` (see [`obs_session`] and `docs/OBSERVABILITY.md`).

#![deny(missing_docs)]

pub mod experiments;
pub mod obs_session;
pub mod report;
pub mod scenario;
pub mod sweep;

/// The repository's `EXPERIMENTS.md`, mounted as rustdoc so its
/// ```rust blocks compile and run as doctests (`cargo test -p bench
/// --doc`) — the runnable guide cannot silently rot.
#[doc = include_str!("../../../EXPERIMENTS.md")]
pub mod guide {}

pub use report::Table;
pub use scenario::{
    adr_data_rate, apply_group_tpc, balanced_orthogonal_assignments, capacity_probe,
    coordinated_schedule, orthogonal_assignments, planned_assignments, subtopology, NetworkSpec,
    WorldBuilder, PAYLOAD_LEN,
};
pub use sweep::SweepRunner;
