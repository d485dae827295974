//! # sim — deterministic discrete-event LoRaWAN simulator
//!
//! Drives the `gateway` reception model over a statistical radio medium
//! to reproduce the paper's experiments at laptop scale:
//!
//! * [`engine`] — event scheduling with deterministic tie-breaking:
//!   the spec's binary-heap queue and the engine's time wheel;
//! * [`topology`] — node/gateway placement, link-loss matrices (with
//!   frozen shadowing so runs are reproducible) and the CP reach matrix;
//! * [`traffic`] — workload generators: the paper's micro-slotted
//!   concurrent bursts (§3.1), duty-cycled periodic traffic (§5.2.1) and
//!   trace-driven long-term load (Appendix D);
//! * [`world`] — the simulation world, its per-packet records and loss
//!   classification (the paper's taxonomy);
//! * [`shard`] — the one engine every run executes on: medium
//!   arbitration (capture, cross-SF rejection, partial-overlap
//!   interference), gateway event delivery and any-gateway reception,
//!   chunk-fed over independent spectrum shards (a single shard runs
//!   inline on the calling thread);
//! * [`mod@reference`] — the executable specification the engine is held
//!   to, record for record;
//! * [`metrics`] — PRR, throughput, loss breakdowns and the
//!   "maximum concurrent users" capacity probe used throughout §5;
//! * [`faults`] — the infrastructure-fault hook the `chaos` crate plugs
//!   into, so gateway crashes and decoder lock-ups can be injected into
//!   a run without `sim` depending on the fault-injection layer.
//!
//! Attach an [`obs`] sink with [`world::SimWorld::set_obs_sink`] to
//! stream typed events (lock-ons, decoder churn, per-packet outcomes)
//! out of a run; see `docs/OBSERVABILITY.md`.

#![deny(missing_docs)]

mod accum;
pub mod downlink;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod reference;
mod runctx;
pub mod shard;
pub mod topology;
pub mod trace;
pub mod traffic;
pub mod world;

pub use downlink::{evaluate_downlinks, DownlinkTx};
pub use engine::{Event, EventQueue};
pub use faults::{InfraFaults, NoFaults};
pub use metrics::{LossBreakdown, NetSummary, RunMetrics, RunSummary};
pub use shard::{ShardOpts, ShardRunStats, StreamedRun};
pub use topology::{LossMatrix, Pos, Topology};
pub use trace::{TracePool, TraceRecord};
pub use traffic::{
    collect_chunks, concurrent_burst, duty_cycled, end_aligned_burst, BurstScheme, ChunkSource,
    DutyCycleStream, SliceChunks, TxPlan,
};
pub use world::{LossCause, PacketRecord, SimRunStats, SimWorld, Transmission};
