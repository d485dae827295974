//! Socket daemons for the AlphaWAN service plane.
//!
//! The rest of the workspace exercises the paper's network server and
//! Master in-process; this crate runs them as real daemons — the
//! deployment shape of Fig. 1, where gateways backhaul over UDP to a
//! network server and operators fetch channel plans from a cloud
//! Master over TCP:
//!
//! * [`netserverd`] — UDP ingest speaking the Semtech forwarder
//!   protocol: one thread receives, acknowledges and deduplicates
//!   ([`runtime`]).
//! * [`masterd`] — the TCP channel-plan daemon wrapping
//!   [`alphawan::master::MasterServer`].
//! * [`loadgen`] — a gateway-fleet load generator replaying
//!   [`bench::scenario`] worlds against a live socket. It times
//!   nothing: the repo benchmark is what measures speed.
//!
//! Everything is plain `std` threads and blocking sockets — no async
//! runtime. The workloads here are a handful of long-lived
//! connections plus one UDP firehose; thread-per-socket gives the same
//! throughput as an executor without importing one, and keeps the
//! failure mode (a blocked thread) observable with a debugger. Both
//! daemons export Prometheus-format metrics over a plaintext TCP
//! endpoint ([`endpoint`]).

#![deny(missing_docs)]

pub mod endpoint;
pub mod loadgen;
pub mod masterd;
mod mmsg;
pub mod netserverd;
pub mod runtime;

pub use endpoint::{http_get, HttpEndpoint, HttpHandler};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use masterd::{MasterConfig, MasterDaemon};
pub use netserverd::{NetServerConfig, NetServerDaemon};
pub use runtime::{
    render_decisions, replay_decisions, replay_divergence, Decision, LatencyQuantiles,
};
