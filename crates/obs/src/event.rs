//! The event taxonomy: one variant per load-bearing moment of a run.
//!
//! Events are small `Copy` values — no strings, no heap — so emitting
//! one on the simulation hot path costs a branch and a few stores.
//! Identifiers are numeric (`tx` is the simulator-global transmission
//! id, `gw` the gateway index, `dev` a raw DevAddr) and times are
//! simulation microseconds, matching the `sim` crate throughout.
//!
//! Packet-lifecycle events additionally carry a `trace` — the
//! [`TraceId`](crate::trace::TraceId) minted once per uplink
//! transmission and threaded as a plain `u64` through every layer the
//! packet touches. Unlike `tx` (which restarts at 0 every run), a
//! trace id is unique across all runs of one world, so a multi-run
//! JSONL file still reconstructs into unambiguous per-packet timelines;
//! a stream that appends several worlds re-mints them per world (see
//! [`packet_trace`](crate::trace::packet_trace)). `trace == 0` means
//! "untraced" (events emitted by call sites that predate tracing, or
//! streams from older binaries — deserialization defaults the field to
//! 0).
//!
//! Serialization uses serde's external enum tagging, so a JSONL stream
//! reads as `{"DecoderAcquired":{"t_us":…,"gw":…,…}}` — one
//! self-describing object per line. The taxonomy is documented for
//! consumers in `docs/OBSERVABILITY.md`; adding a variant or a
//! defaulted field is a backwards-compatible schema change (readers
//! ignore unknown tags, old streams parse with the default); removing
//! or renaming one breaks every reader of recorded streams.

use serde::{Deserialize, Serialize};

/// Why a lost packet was lost — the paper's Fig. 4 taxonomy, mirrored
/// here so `obs` does not depend on `sim` (the dependency points the
/// other way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LossKind {
    /// Own-network packets exhausted the decoder pool.
    DecoderIntra,
    /// Foreign-network packets held the decoders (Fig. 3e/f).
    DecoderInter,
    /// Same-channel same-SF collision within the network.
    ChannelIntra,
    /// Same-channel same-SF collision with a coexisting network.
    ChannelInter,
    /// Below-threshold SNR, cross-SF interference, out of range.
    Other,
    /// Injected infrastructure fault (chaos layer).
    Infrastructure,
}

/// Server-side deduplication outcome (mirrors
/// `netserver::dedup::DedupOutcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DedupKind {
    /// First copy of the frame: processed.
    New,
    /// Another gateway's copy of an already-processed frame.
    Duplicate,
    /// Delayed past the dedup window (faulty backhaul): dropped.
    Late,
}

/// Which fault domain a [`ObsEvent::FaultActivated`] window belongs to
/// (mirrors `chaos::FaultSpec` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Gateway down (crash + reboot window).
    GatewayCrash,
    /// Part of a gateway's decoder pool stuck.
    DecoderLockup,
    /// Gateway timestamp counter drift.
    ClockDrift,
    /// Backhaul datagram loss.
    BackhaulLoss,
    /// Backhaul datagram delay.
    BackhaulDelay,
    /// Backhaul datagram duplication.
    BackhaulDuplicate,
    /// Backhaul datagram reordering.
    BackhaulReorder,
}

/// Where a Master-assigned channel plan came from (mirrors
/// `alphawan::master::PlanSource`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanServed {
    /// Fetched from the Master on this call.
    Fresh,
    /// Served from the local cache while the Master was unreachable —
    /// the degraded-operation signal.
    Cached,
}

/// Which transport surface a service daemon accepted a peer on
/// (mirrors the `svc` crate's daemons without depending on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SvcConn {
    /// UDP ingest: first datagram seen from a new gateway EUI.
    Udp,
    /// TCP: an accepted plan-server or metrics connection.
    Tcp,
}

/// Which CP search algorithm produced a [`ObsEvent::SolverRun`]
/// (mirrors `alphawan::cp` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// The §4.3.1 evolutionary solver (`GaSolver`).
    Ga,
    /// The simulated-annealing ablation solver (`AnnealSolver`).
    Anneal,
}

/// One observed moment. See the module docs for identifier, trace and
/// time conventions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// One gateway's static identity, announced once per run before any
    /// packet event, so stream consumers can attribute decoder holds to
    /// the *gateway's* network (foreign vs own) without out-of-band
    /// configuration. Config-plane: no timestamp, no trace.
    GatewayInfo {
        /// Gateway index.
        gw: u32,
        /// Operator/network that deployed this gateway.
        network: u32,
        /// Decoder pool hardware capacity.
        capacity: u32,
    },
    /// A transmission's first preamble symbol went on air (medium
    /// arbitration registers it as a potential interferer).
    TxStart {
        /// Event time, simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Transmission id.
        tx: u64,
        /// Sending node index.
        node: u64,
        /// Sender's operator/network id.
        network: u32,
    },
    /// A transmission's preamble completed — the FCFS dispatch instant
    /// at every gateway (§3.1 insight 1). Emitted once per
    /// transmission; per-gateway admission outcomes follow as decoder
    /// events.
    PacketLockOn {
        /// Lock-on time, simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Transmission id.
        tx: u64,
        /// Sending node index.
        node: u64,
        /// Sender's operator/network id.
        network: u32,
    },
    /// A gateway assigned a decoder to the packet.
    DecoderAcquired {
        /// Acquisition time, simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Gateway index.
        gw: u32,
        /// Transmission id now holding the decoder.
        tx: u64,
        /// Pool occupancy *after* this acquisition.
        in_use: u32,
        /// Pool hardware capacity.
        capacity: u32,
    },
    /// A gateway released the decoder a packet was holding.
    DecoderReleased {
        /// Release time (the packet's airtime end), simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Gateway index.
        gw: u32,
        /// Transmission id that held the decoder.
        tx: u64,
        /// Pool occupancy *after* this release.
        in_use: u32,
    },
    /// A detected packet found every decoder busy and was dropped — the
    /// decoder-contention loss.
    PoolFullDrop {
        /// Drop time (lock-on instant), simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Gateway index.
        gw: u32,
        /// Dropped transmission id.
        tx: u64,
        /// Decoders locked up by fault injection at that instant.
        locked: u32,
    },
    /// A pool-full drop happened while foreign-network packets held
    /// decoders: preemption would have saved the packet, but FCFS
    /// dispatch never steals a busy decoder (§3.1). Always paired with
    /// a [`ObsEvent::PoolFullDrop`] at the same instant.
    StealRefused {
        /// Drop time, simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Gateway index.
        gw: u32,
        /// Dropped transmission id.
        tx: u64,
        /// Foreign-held decoders at that instant.
        foreign_held: u32,
    },
    /// Final per-packet verdict after medium arbitration: delivered to
    /// at least one own-network gateway, or lost with a cause.
    PacketOutcome {
        /// The transmission's airtime end, simulation µs.
        t_us: u64,
        /// Per-transmission trace id (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Transmission id.
        tx: u64,
        /// Whether any own-network gateway received it.
        delivered: bool,
        /// Loss cause when not delivered.
        cause: Option<LossKind>,
    },
    /// The network server classified an uplink copy.
    Dedup {
        /// The copy's reception timestamp, µs.
        t_us: u64,
        /// Trace id of the uplink transmission this copy carries
        /// (threaded through the forwarder codec; 0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Raw DevAddr of the frame.
        dev: u32,
        /// Frame counter.
        fcnt: u32,
        /// Reporting gateway id.
        gw: u32,
        /// Classification.
        outcome: DedupKind,
    },
    /// One Master TCP connect attempt (inside the retry loop).
    MasterConnectAttempt {
        /// Control-plane trace of the plan request driving this
        /// connect sequence (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// 0-based attempt number within this retry sequence.
        attempt: u32,
        /// Whether the TCP connect succeeded.
        ok: bool,
        /// Backoff delay scheduled *after* this attempt, µs (0 when no
        /// further attempt follows).
        backoff_us: u64,
    },
    /// A Master RPC failed on an established session and the session is
    /// being re-established (the resilient client's transport retry).
    MasterRpcRetry {
        /// Control-plane trace of the plan request being retried
        /// (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// How many sessions this client has established so far.
        reconnects: u64,
    },
    /// The resilient client served a channel plan.
    MasterPlanServed {
        /// Control-plane trace of this plan request — shared with the
        /// connect attempts and RPC retries it caused (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Fresh from the Master, or degraded to the local cache.
        source: PlanServed,
        /// Number of channels in the served plan.
        channels: u32,
    },
    /// One complete CP-solver search finished (a Master plan request,
    /// a capacity upgrade, or a bench invocation). Control-plane: no
    /// simulation timestamp; `wall_us` is host wall-clock time.
    SolverRun {
        /// Control-plane trace of the plan request that ran the solver
        /// (0 = untraced, e.g. direct bench invocations).
        #[serde(default)]
        trace: u64,
        /// Which search algorithm ran.
        solver: SolverKind,
        /// Problem size: node count.
        nodes: u32,
        /// Problem size: gateway count.
        gateways: u32,
        /// Objective evaluations performed across the whole search.
        evaluations: u64,
        /// Generations (GA) or iterations (annealing) executed.
        generations: u32,
        /// Scoring worker threads used (1 = serial).
        workers: u32,
        /// Host wall-clock duration of the search, µs.
        wall_us: u64,
    },
    /// A service daemon accepted a new peer. Control-plane: `wall_us`
    /// is host wall-clock time since daemon start, not simulation
    /// time.
    SvcAccept {
        /// Host wall-clock µs since daemon start.
        wall_us: u64,
        /// Transport surface the peer arrived on.
        conn: SvcConn,
        /// Peer identity: gateway EUI (UDP) or connection index (TCP).
        peer: u64,
    },
    /// A service daemon ingested one PUSH_DATA datagram (which may
    /// carry many rxpk copies). Control-plane timing like
    /// [`ObsEvent::SvcAccept`]; the per-copy dedup classifications
    /// follow as [`ObsEvent::Dedup`] events from the same thread.
    SvcIngest {
        /// Host wall-clock µs since daemon start.
        wall_us: u64,
        /// Trace of the datagram's first traced rxpk (0 = untraced).
        #[serde(default)]
        trace: u64,
        /// Sending gateway EUI.
        gw: u64,
        /// rxpk copies carried in the datagram.
        pkts: u32,
    },
    /// A fault-plan entry is scheduled against this run (one event per
    /// `FaultSpec`, emitted when the plan is registered with the sink).
    FaultActivated {
        /// Fault domain.
        kind: FaultKind,
        /// Target gateway index, or −1 for faults without one (the
        /// backhaul domain).
        gw: i64,
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs (`u64::MAX` = until the end of the run).
        end_us: u64,
    },
}

impl ObsEvent {
    /// The event's timestamp in simulation microseconds, where one
    /// exists (control-plane events are ordered by emission, not by
    /// simulation time).
    pub fn t_us(&self) -> Option<u64> {
        match *self {
            ObsEvent::TxStart { t_us, .. }
            | ObsEvent::PacketLockOn { t_us, .. }
            | ObsEvent::DecoderAcquired { t_us, .. }
            | ObsEvent::DecoderReleased { t_us, .. }
            | ObsEvent::PoolFullDrop { t_us, .. }
            | ObsEvent::StealRefused { t_us, .. }
            | ObsEvent::PacketOutcome { t_us, .. }
            | ObsEvent::Dedup { t_us, .. } => Some(t_us),
            ObsEvent::GatewayInfo { .. }
            | ObsEvent::MasterConnectAttempt { .. }
            | ObsEvent::MasterRpcRetry { .. }
            | ObsEvent::MasterPlanServed { .. }
            | ObsEvent::SolverRun { .. }
            | ObsEvent::SvcAccept { .. }
            | ObsEvent::SvcIngest { .. }
            | ObsEvent::FaultActivated { .. } => None,
        }
    }

    /// The event's trace id, where one exists and is set (`trace == 0`
    /// means the emitting call site was untraced and reads as `None`).
    pub fn trace(&self) -> Option<u64> {
        let mut ev = *self;
        ev.trace_mut().map(|t| *t).filter(|&t| t != 0)
    }

    /// The event's `trace` field, where the variant has one.
    pub fn trace_mut(&mut self) -> Option<&mut u64> {
        match self {
            ObsEvent::TxStart { trace, .. }
            | ObsEvent::PacketLockOn { trace, .. }
            | ObsEvent::DecoderAcquired { trace, .. }
            | ObsEvent::DecoderReleased { trace, .. }
            | ObsEvent::PoolFullDrop { trace, .. }
            | ObsEvent::StealRefused { trace, .. }
            | ObsEvent::PacketOutcome { trace, .. }
            | ObsEvent::Dedup { trace, .. }
            | ObsEvent::MasterConnectAttempt { trace, .. }
            | ObsEvent::MasterRpcRetry { trace, .. }
            | ObsEvent::MasterPlanServed { trace, .. }
            | ObsEvent::SolverRun { trace, .. }
            | ObsEvent::SvcIngest { trace, .. } => Some(trace),
            ObsEvent::GatewayInfo { .. }
            | ObsEvent::SvcAccept { .. }
            | ObsEvent::FaultActivated { .. } => None,
        }
    }

    /// A stable snake_case name for the variant: the key of
    /// [`TraceReport::events`](crate::trace::TraceReport::events).
    pub fn kind_name(&self) -> &'static str {
        match self {
            ObsEvent::GatewayInfo { .. } => "gateway_info",
            ObsEvent::TxStart { .. } => "tx_start",
            ObsEvent::PacketLockOn { .. } => "packet_lock_on",
            ObsEvent::DecoderAcquired { .. } => "decoder_acquired",
            ObsEvent::DecoderReleased { .. } => "decoder_released",
            ObsEvent::PoolFullDrop { .. } => "pool_full_drop",
            ObsEvent::StealRefused { .. } => "steal_refused",
            ObsEvent::PacketOutcome { .. } => "packet_outcome",
            ObsEvent::Dedup { .. } => "dedup",
            ObsEvent::MasterConnectAttempt { .. } => "master_connect_attempt",
            ObsEvent::MasterRpcRetry { .. } => "master_rpc_retry",
            ObsEvent::MasterPlanServed { .. } => "master_plan_served",
            ObsEvent::SolverRun { .. } => "solver_run",
            ObsEvent::SvcAccept { .. } => "svc_accept",
            ObsEvent::SvcIngest { .. } => "svc_ingest",
            ObsEvent::FaultActivated { .. } => "fault_activated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_json() {
        let events = [
            ObsEvent::GatewayInfo {
                gw: 0,
                network: 1,
                capacity: 16,
            },
            ObsEvent::PacketLockOn {
                t_us: 1_000,
                trace: 0xA1,
                tx: 7,
                node: 3,
                network: 1,
            },
            ObsEvent::DecoderAcquired {
                t_us: 1_000,
                trace: 0xA1,
                gw: 0,
                tx: 7,
                in_use: 4,
                capacity: 16,
            },
            ObsEvent::PacketOutcome {
                t_us: 50_000,
                trace: 0xA1,
                tx: 7,
                delivered: false,
                cause: Some(LossKind::DecoderInter),
            },
            ObsEvent::FaultActivated {
                kind: FaultKind::GatewayCrash,
                gw: 2,
                start_us: 0,
                end_us: u64::MAX,
            },
        ];
        for ev in events {
            let s = serde_json::to_string(&ev).unwrap();
            let back: ObsEvent = serde_json::from_str(&s).unwrap();
            assert_eq!(back, ev, "{s}");
        }
    }

    #[test]
    fn pre_trace_streams_still_parse() {
        // A line written before the trace field existed: the field
        // defaults to 0 and the event reads as untraced.
        let old = r#"{"PacketLockOn":{"t_us":5,"tx":1,"node":0,"network":2}}"#;
        let ev: ObsEvent = serde_json::from_str(old).unwrap();
        assert_eq!(
            ev,
            ObsEvent::PacketLockOn {
                t_us: 5,
                trace: 0,
                tx: 1,
                node: 0,
                network: 2,
            }
        );
        assert_eq!(ev.trace(), None);
    }

    #[test]
    fn timestamps_where_expected() {
        assert_eq!(
            ObsEvent::Dedup {
                t_us: 5,
                trace: 9,
                dev: 1,
                fcnt: 2,
                gw: 0,
                outcome: DedupKind::New,
            }
            .t_us(),
            Some(5)
        );
        assert_eq!(
            ObsEvent::MasterRpcRetry {
                trace: 0,
                reconnects: 1
            }
            .t_us(),
            None,
            "control-plane events carry no simulation clock"
        );
        assert_eq!(
            ObsEvent::GatewayInfo {
                gw: 0,
                network: 1,
                capacity: 16,
            }
            .t_us(),
            None,
            "config-plane events carry no simulation clock"
        );
    }

    #[test]
    fn trace_accessor_treats_zero_as_untraced() {
        let traced = ObsEvent::TxStart {
            t_us: 0,
            trace: 42,
            tx: 0,
            node: 0,
            network: 0,
        };
        assert_eq!(traced.trace(), Some(42));
        let untraced = ObsEvent::PoolFullDrop {
            t_us: 0,
            trace: 0,
            gw: 0,
            tx: 0,
            locked: 0,
        };
        assert_eq!(untraced.trace(), None);
        assert_eq!(
            ObsEvent::FaultActivated {
                kind: FaultKind::ClockDrift,
                gw: 0,
                start_us: 0,
                end_us: 1,
            }
            .trace(),
            None
        );
    }

    #[test]
    fn trace_mut_writes_what_trace_reads() {
        let mut ev = ObsEvent::SvcIngest {
            wall_us: 0,
            trace: 0,
            gw: 1,
            pkts: 2,
        };
        assert_eq!(ev.trace(), None);
        *ev.trace_mut().expect("SvcIngest carries a trace") = 0x5EED;
        assert_eq!(ev.trace(), Some(0x5EED));
        let mut info = ObsEvent::GatewayInfo {
            gw: 0,
            network: 0,
            capacity: 16,
        };
        assert_eq!(info.trace_mut(), None);
    }

    #[test]
    fn kind_names_distinct() {
        let names = [
            ObsEvent::TxStart {
                t_us: 0,
                trace: 0,
                tx: 0,
                node: 0,
                network: 0,
            }
            .kind_name(),
            ObsEvent::MasterRpcRetry {
                trace: 0,
                reconnects: 0,
            }
            .kind_name(),
            ObsEvent::GatewayInfo {
                gw: 0,
                network: 0,
                capacity: 0,
            }
            .kind_name(),
        ];
        assert_ne!(names[0], names[1]);
        assert_ne!(names[1], names[2]);
    }
}
