//! # obs — structured observability for the AlphaWAN reproduction
//!
//! The paper's entire argument rests on *when* decoders are occupied
//! (FCFS lock-on dispatch and decoder contention, §3.1), yet aggregate
//! metrics only say how a run *ended*. This crate records the
//! load-bearing moments as typed events so a decoder-pool occupancy
//! timeline, a per-packet dispatch trace, or a Master retry history can
//! be reconstructed after the fact:
//!
//! * [`event`] — the event taxonomy: packet lock-on, decoder
//!   acquire/release, pool-full drops, steal refusals (FCFS never
//!   preempts), dedup outcomes, Master RPC attempts and cache
//!   degradation, and fault-plan activations;
//! * [`sink`] — the zero-alloc-on-hot-path [`ObsSink`] trait with
//!   [`NullSink`] (free), [`VecSink`] (in-memory), [`JsonlSink`] (one
//!   JSON object per line) and [`SharedSink`] (one sink, many owners);
//! * [`metrics`] — a dependency-free registry of counters, gauges and
//!   fixed-bucket histograms, which the service daemons render on
//!   `/metrics`, and the [`proc_mem`] probe;
//! * [`trace`] — per-transmission [`trace::TraceId`]s threaded through
//!   every packet-lifecycle event, the [`TraceAnalyzer`] that joins an
//!   event stream back into causal per-packet timelines with
//!   decoder-contention attribution (blocker→victim pairs for every
//!   pool-full drop), event and outcome counts, per-gateway peak
//!   occupancy, and Chrome trace-event export for Perfetto — the one
//!   fold of a recorded stream;
//! * [`heartbeat`] — per-shard [`Heartbeat`]s for streamed runs.
//!
//! Events are plain `Copy` data and every sink implementation is
//! deterministic: a fixed-seed run produces a byte-identical JSONL
//! stream on every execution, which the workspace integration tests
//! assert.

#![deny(missing_docs)]

pub mod event;
pub mod heartbeat;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use event::{DedupKind, FaultKind, LossKind, ObsEvent, PlanServed, SolverKind, SvcConn};
pub use heartbeat::{Heartbeat, HeartbeatWriter};
pub use metrics::{proc_mem, Histogram, ProcMem, Registry};
pub use sink::{JsonlSink, NullSink, ObsSink, SharedSink, VecSink};
pub use trace::{
    chrome_trace, control_trace, packet_trace, ChromeTrace, ContentionReport, PacketTimeline,
    TraceAnalyzer, TraceId, TraceReport,
};
