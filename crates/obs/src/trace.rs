//! Packet-lifecycle tracing: deterministic trace ids, causal timeline
//! reconstruction, decoder-contention attribution, and Chrome
//! trace-event export.
//!
//! The event taxonomy ([`crate::event`]) records *point* moments; this
//! module joins them into causal spans. A [`TraceId`] is minted once
//! per uplink transmission by the simulator and threaded — as a plain
//! `u64`, so the cost when the sink is disabled is one register move —
//! through PHY airtime, gateway lock-on, decoder hold, the forwarder
//! wire format, and server-side dedup. Every event that carries the
//! same id is an edge of one packet's causal graph, including the
//! cross-gateway fan-out when several gateways hear the same
//! transmission.
//!
//! [`TraceAnalyzer`] folds an event stream (typically a JSONL file
//! re-parsed line by line) into per-packet [`PacketTimeline`]s and a
//! [`ContentionReport`]: who held decoder-seconds at which gateway,
//! and — for every [`ObsEvent::PoolFullDrop`] — exactly which packets
//! (the *blockers*) occupied the pool that the dropped packet (the
//! *victim*) needed. Foreign-network decoder-seconds are the paper's
//! Strategy ①/②/⑧ effect size: the occupancy those strategies would
//! displace.
//!
//! The analyzer also checks stream causality ([`CausalityViolation`]):
//! a decoder released before (or without) its acquisition, an acquire
//! for a trace that never locked on, a hold that never ends, a trace
//! that starts over after its verdict. A healthy
//! full-run stream has none; a truncated stream legitimately reports
//! boundary violations for spans cut by its edge.

use crate::event::{DedupKind, LossKind, ObsEvent};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Write};

/// A per-transmission trace identifier.
///
/// Plain `u64` on the wire and in events; this alias documents intent
/// at API boundaries. `0` is the reserved "untraced" sentinel (old
/// streams, call sites that predate tracing); see [`packet_trace`].
pub type TraceId = u64;

/// splitmix64 finalizer: the standard 64-bit avalanche mix. Purely
/// arithmetic, so ids are identical across runs, platforms and builds —
/// the determinism contract extends to trace ids.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mint the trace id for transmission `tx` of run `run_epoch`.
///
/// `tx` ids restart at 0 every run; hashing the run epoch in keeps ids
/// unique across the runs of one world while staying deterministic for
/// a fixed (epoch, tx) pair. Every world starts at epoch 0, so two
/// worlds mint the same ids: a stream that appends several worlds (the
/// bench session does) must re-mint them per world, e.g. as
/// `packet_trace(segment, trace)`. Never returns 0 and never sets the
/// top bit.
pub fn packet_trace(run_epoch: u64, tx: u64) -> TraceId {
    let id = mix(run_epoch ^ mix(tx)) & !(1 << 63);
    if id == 0 {
        // One-in-2^63 collision with the sentinel: remap to a fixed
        // non-zero id rather than branch on every caller.
        0x5EED
    } else {
        id
    }
}

/// One announced gateway: its static identity and its pool's peak
/// occupancy. Every run announces its gateways, so a stream that appends
/// several worlds (or several runs of one world) announces the same
/// gateway index more than once: each [`ObsEvent::GatewayInfo`] opens
/// its own entry, and the packet events that follow it are booked there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayEntry {
    /// Gateway index.
    pub gw: u32,
    /// Operator/network that deployed the gateway; `None` when packet
    /// events named the gateway before any `GatewayInfo` did.
    pub network: Option<u32>,
    /// Pool capacity, from `GatewayInfo` or the latest acquisition.
    pub capacity: u32,
    /// Most decoders in use at once, from the acquisitions' `in_use`.
    pub peak_in_use: u32,
}

/// One decoder occupancy span at one gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderHold {
    /// Gateway index.
    pub gw: u32,
    /// The gateway's entry in [`TraceReport::gateways`].
    pub entry: usize,
    /// Acquisition instant, µs.
    pub start_us: u64,
    /// Release instant, µs; `None` when the stream ended (or was
    /// truncated) before the release.
    pub end_us: Option<u64>,
}

/// A pool-full drop of this packet at one gateway, from the victim's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayDrop {
    /// Gateway index.
    pub gw: u32,
    /// Drop instant, µs.
    pub t_us: u64,
    /// Foreign-held decoders at the instant of the drop (from the
    /// paired [`ObsEvent::StealRefused`]; 0 when none was emitted).
    pub foreign_held: u32,
}

/// A server-side dedup classification of one uplink copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReceipt {
    /// Reporting gateway.
    pub gw: u32,
    /// Reception timestamp, µs.
    pub t_us: u64,
    /// Dedup outcome.
    pub outcome: DedupKind,
}

/// The reconstructed lifecycle of one traced transmission: airtime
/// endpoints, the per-gateway decoder holds and drops (cross-gateway
/// fan-out), the final verdict, and any server-side receipts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PacketTimeline {
    /// The trace id joining all of this packet's events.
    pub trace: TraceId,
    /// Simulator transmission id (not unique across runs).
    pub tx: u64,
    /// Sending node, when a `TxStart`/`PacketLockOn` was seen.
    pub node: Option<u64>,
    /// Sender's network, when known.
    pub network: Option<u32>,
    /// First preamble symbol on air, µs.
    pub start_us: Option<u64>,
    /// Preamble end (the FCFS dispatch instant), µs.
    pub lock_on_us: Option<u64>,
    /// Airtime end / final verdict instant, µs.
    pub outcome_us: Option<u64>,
    /// Final verdict, when a `PacketOutcome` was seen.
    pub delivered: Option<bool>,
    /// Loss cause when not delivered.
    pub cause: Option<LossKind>,
    /// Decoder occupancy spans, one per admitting gateway.
    pub holds: Vec<DecoderHold>,
    /// Pool-full drops, one per refusing gateway.
    pub drops: Vec<GatewayDrop>,
    /// Network-server dedup receipts for this packet's copies.
    pub receipts: Vec<ServerReceipt>,
}

impl PacketTimeline {
    /// Total decoder-µs this packet held across all gateways (spans
    /// without a release contribute nothing).
    pub fn decoder_us(&self) -> u64 {
        self.holds
            .iter()
            .filter_map(|h| Some(h.end_us?.saturating_sub(h.start_us)))
            .sum()
    }
}

/// One packet that occupied a decoder at the instant a victim was
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocker {
    /// The blocker's trace id (0 when the hold was untraced).
    pub trace: TraceId,
    /// The blocker's transmission id.
    pub tx: u64,
    /// The blocker's network, when known.
    pub network: Option<u32>,
    /// When the blocker acquired the decoder it is holding, µs.
    pub held_since_us: u64,
}

/// Full attribution for one pool-full drop: the victim, the gateway,
/// and a snapshot of every packet holding a decoder at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct DropRecord {
    /// Drop instant, µs.
    pub t_us: u64,
    /// Gateway where the drop happened.
    pub gw: u32,
    /// That gateway's network, when a `GatewayInfo` was seen.
    pub gw_network: Option<u32>,
    /// The dropped packet's trace id.
    pub victim_trace: TraceId,
    /// The dropped packet's transmission id.
    pub victim_tx: u64,
    /// The dropped packet's network, when known.
    pub victim_network: Option<u32>,
    /// Every decoder holder at the drop instant, in acquisition order.
    pub blockers: Vec<Blocker>,
}

impl DropRecord {
    /// Blockers whose network differs from the victim's (the
    /// inter-network contention the paper's strategies attack).
    pub fn foreign_blockers(&self) -> impl Iterator<Item = &Blocker> {
        let victim = self.victim_network;
        self.blockers
            .iter()
            .filter(move |b| match (b.network, victim) {
                (Some(b), Some(v)) => b != v,
                _ => false,
            })
    }
}

/// A causal inconsistency in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalityViolation {
    /// A `DecoderAcquired` whose trace never produced a
    /// `PacketLockOn` — an orphan span with no dispatch parent.
    OrphanSpan {
        /// Gateway of the orphan acquisition.
        gw: u32,
        /// Transmission id of the orphan acquisition.
        tx: u64,
        /// The unseen trace.
        trace: TraceId,
        /// Acquisition instant, µs.
        t_us: u64,
    },
    /// A `DecoderReleased` with no matching open `DecoderAcquired`.
    ReleaseWithoutAcquire {
        /// Gateway of the release.
        gw: u32,
        /// Transmission id of the release.
        tx: u64,
        /// Release instant, µs.
        t_us: u64,
    },
    /// A release timestamped before its own acquisition.
    ReleaseBeforeAcquire {
        /// Gateway of the span.
        gw: u32,
        /// Transmission id of the span.
        tx: u64,
        /// Acquisition instant, µs.
        acquired_us: u64,
        /// Release instant, µs (earlier than `acquired_us`).
        released_us: u64,
    },
    /// A `DecoderAcquired` still open when the stream ended.
    HoldNeverReleased {
        /// Gateway of the open span.
        gw: u32,
        /// Transmission id of the open span.
        tx: u64,
        /// Acquisition instant, µs.
        acquired_us: u64,
    },
    /// Two `DecoderAcquired` for the same (gateway, tx) without a
    /// release in between.
    DoubleAcquire {
        /// Gateway of the duplicate acquisition.
        gw: u32,
        /// Transmission id acquired twice.
        tx: u64,
        /// Second acquisition instant, µs.
        t_us: u64,
    },
    /// A lifecycle event for a trace whose `PacketOutcome` was already
    /// seen: two transmissions share one id.
    TraceReused {
        /// The reused trace.
        trace: TraceId,
        /// Transmission id of the later event.
        tx: u64,
        /// Instant of the later event, µs.
        t_us: u64,
    },
}

impl fmt::Display for CausalityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CausalityViolation::OrphanSpan {
                gw,
                tx,
                trace,
                t_us,
            } => write!(
                f,
                "orphan span: decoder acquired at gw {gw} for tx {tx} \
                 (trace {trace:#x}) at {t_us} µs with no prior lock-on"
            ),
            CausalityViolation::ReleaseWithoutAcquire { gw, tx, t_us } => {
                write!(f, "release without acquire: gw {gw} tx {tx} at {t_us} µs")
            }
            CausalityViolation::ReleaseBeforeAcquire {
                gw,
                tx,
                acquired_us,
                released_us,
            } => write!(
                f,
                "release before acquire: gw {gw} tx {tx} released at \
                 {released_us} µs, acquired at {acquired_us} µs"
            ),
            CausalityViolation::HoldNeverReleased {
                gw,
                tx,
                acquired_us,
            } => write!(
                f,
                "hold never released: gw {gw} tx {tx} acquired at {acquired_us} µs"
            ),
            CausalityViolation::DoubleAcquire { gw, tx, t_us } => write!(
                f,
                "double acquire: gw {gw} tx {tx} re-acquired at {t_us} µs \
                 without an intervening release"
            ),
            CausalityViolation::TraceReused { trace, tx, t_us } => write!(
                f,
                "trace reused: trace {trace:#x} seen again for tx {tx} at \
                 {t_us} µs after its outcome"
            ),
        }
    }
}

/// An open decoder hold tracked while scanning the stream.
#[derive(Debug, Clone, Copy)]
struct ActiveHold {
    trace: TraceId,
    network: Option<u32>,
    start_us: u64,
}

/// Streaming reconstruction of causal timelines from an event
/// sequence. Feed events in stream order with
/// [`TraceAnalyzer::observe`], then call [`TraceAnalyzer::into_report`]
/// for the assembled [`TraceReport`].
///
/// Events with `trace == 0` (untraced streams) are still folded into
/// contention accounting — holder identity falls back to the most
/// recent lock-on seen for the same `tx` — but get no per-packet
/// timeline, since `tx` ids collide across runs.
#[derive(Debug, Default)]
pub struct TraceAnalyzer {
    gateways: Vec<GatewayEntry>,
    /// Gateway index → its latest entry in `gateways`.
    entry_of: BTreeMap<u32, usize>,
    events: BTreeMap<&'static str, u64>,
    delivered: u64,
    lost: BTreeMap<Option<LossKind>, u64>,
    dedup: BTreeMap<DedupKind, u64>,
    timelines: BTreeMap<TraceId, PacketTimeline>,
    /// Open holds per gateway entry, keyed by tx (the pool's own key).
    active: BTreeMap<usize, BTreeMap<u64, ActiveHold>>,
    /// Fallback identity for untraced acquires: tx → (trace, network)
    /// of the latest lock-on.
    last_lock_on: BTreeMap<u64, (TraceId, u32)>,
    drops: Vec<DropRecord>,
    violations: Vec<CausalityViolation>,
}

impl TraceAnalyzer {
    /// An empty analyzer.
    pub fn new() -> TraceAnalyzer {
        TraceAnalyzer::default()
    }

    /// The timeline for `trace`, creating it on first touch.
    fn timeline(&mut self, trace: TraceId, tx: u64) -> &mut PacketTimeline {
        self.timelines
            .entry(trace)
            .or_insert_with(|| PacketTimeline {
                trace,
                tx,
                ..PacketTimeline::default()
            })
    }

    /// Report `trace` if its verdict is already in: a lifecycle event
    /// after the outcome means two transmissions share the id.
    fn check_open(&mut self, trace: TraceId, tx: u64, t_us: u64) {
        if self
            .timelines
            .get(&trace)
            .is_some_and(|tl| tl.delivered.is_some())
        {
            self.violations
                .push(CausalityViolation::TraceReused { trace, tx, t_us });
        }
    }

    /// The current entry of gateway `gw`, opening one if no
    /// `GatewayInfo` announced it.
    fn entry(&mut self, gw: u32) -> usize {
        let gateways = &mut self.gateways;
        *self.entry_of.entry(gw).or_insert_with(|| {
            gateways.push(GatewayEntry {
                gw,
                ..GatewayEntry::default()
            });
            gateways.len() - 1
        })
    }

    /// Fold one event into the reconstruction. Events must arrive in
    /// stream order (the order a sink recorded them).
    pub fn observe(&mut self, ev: &ObsEvent) {
        *self.events.entry(ev.kind_name()).or_insert(0) += 1;
        match *ev {
            ObsEvent::GatewayInfo {
                gw,
                network,
                capacity,
            } => {
                self.entry_of.insert(gw, self.gateways.len());
                self.gateways.push(GatewayEntry {
                    gw,
                    network: Some(network),
                    capacity,
                    peak_in_use: 0,
                });
            }
            ObsEvent::TxStart {
                t_us,
                trace,
                tx,
                node,
                network,
            } => {
                if trace != 0 {
                    self.check_open(trace, tx, t_us);
                    let tl = self.timeline(trace, tx);
                    tl.node = Some(node);
                    tl.network = Some(network);
                    tl.start_us = Some(t_us);
                }
            }
            ObsEvent::PacketLockOn {
                t_us,
                trace,
                tx,
                node,
                network,
            } => {
                self.last_lock_on.insert(tx, (trace, network));
                if trace != 0 {
                    self.check_open(trace, tx, t_us);
                    let tl = self.timeline(trace, tx);
                    tl.node = Some(node);
                    tl.network = Some(network);
                    tl.lock_on_us = Some(t_us);
                }
            }
            ObsEvent::DecoderAcquired {
                t_us,
                trace,
                gw,
                tx,
                in_use,
                capacity,
            } => {
                let entry = self.entry(gw);
                let row = &mut self.gateways[entry];
                row.capacity = capacity;
                row.peak_in_use = row.peak_in_use.max(in_use);
                // Resolve the holder's identity: the event's own trace,
                // or (for untraced streams) the latest lock-on for tx.
                let (trace, network) = if trace != 0 {
                    (trace, self.timelines.get(&trace).and_then(|t| t.network))
                } else {
                    match self.last_lock_on.get(&tx) {
                        Some(&(tr, net)) => (tr, Some(net)),
                        None => (0, None),
                    }
                };
                if trace != 0 {
                    self.check_open(trace, tx, t_us);
                    match self.timelines.get(&trace) {
                        Some(tl) if tl.lock_on_us.is_some() => {}
                        _ => self.violations.push(CausalityViolation::OrphanSpan {
                            gw,
                            tx,
                            trace,
                            t_us,
                        }),
                    }
                    self.timeline(trace, tx).holds.push(DecoderHold {
                        gw,
                        entry,
                        start_us: t_us,
                        end_us: None,
                    });
                }
                let open = self.active.entry(entry).or_default().insert(
                    tx,
                    ActiveHold {
                        trace,
                        network,
                        start_us: t_us,
                    },
                );
                if open.is_some() {
                    self.violations
                        .push(CausalityViolation::DoubleAcquire { gw, tx, t_us });
                }
            }
            ObsEvent::DecoderReleased { t_us, gw, tx, .. } => {
                let entry = self.entry(gw);
                match self.active.entry(entry).or_default().remove(&tx) {
                    None => self
                        .violations
                        .push(CausalityViolation::ReleaseWithoutAcquire { gw, tx, t_us }),
                    Some(hold) => {
                        if t_us < hold.start_us {
                            self.violations
                                .push(CausalityViolation::ReleaseBeforeAcquire {
                                    gw,
                                    tx,
                                    acquired_us: hold.start_us,
                                    released_us: t_us,
                                });
                        }
                        if hold.trace != 0 {
                            if let Some(tl) = self.timelines.get_mut(&hold.trace) {
                                if let Some(h) = tl
                                    .holds
                                    .iter_mut()
                                    .rev()
                                    .find(|h| h.entry == entry && h.end_us.is_none())
                                {
                                    h.end_us = Some(t_us);
                                }
                            }
                        }
                    }
                }
            }
            ObsEvent::PoolFullDrop {
                t_us,
                trace,
                gw,
                tx,
                ..
            } => {
                let victim_network = if trace != 0 {
                    self.timelines.get(&trace).and_then(|t| t.network)
                } else {
                    self.last_lock_on.get(&tx).map(|&(_, net)| net)
                };
                let entry = self.entry(gw);
                let blockers: Vec<Blocker> = self
                    .active
                    .get(&entry)
                    .map(|holds| {
                        let mut b: Vec<Blocker> = holds
                            .iter()
                            .map(|(&btx, h)| Blocker {
                                trace: h.trace,
                                tx: btx,
                                network: h.network,
                                held_since_us: h.start_us,
                            })
                            .collect();
                        b.sort_by_key(|b| (b.held_since_us, b.tx));
                        b
                    })
                    .unwrap_or_default();
                self.drops.push(DropRecord {
                    t_us,
                    gw,
                    gw_network: self.gateways[entry].network,
                    victim_trace: trace,
                    victim_tx: tx,
                    victim_network,
                    blockers,
                });
                if trace != 0 {
                    self.check_open(trace, tx, t_us);
                    self.timeline(trace, tx).drops.push(GatewayDrop {
                        gw,
                        t_us,
                        foreign_held: 0,
                    });
                }
            }
            ObsEvent::StealRefused {
                trace,
                gw,
                foreign_held,
                ..
            } => {
                if trace != 0 {
                    if let Some(tl) = self.timelines.get_mut(&trace) {
                        if let Some(d) = tl.drops.iter_mut().rev().find(|d| d.gw == gw) {
                            d.foreign_held = foreign_held;
                        }
                    }
                }
            }
            ObsEvent::PacketOutcome {
                t_us,
                trace,
                tx,
                delivered,
                cause,
            } => {
                if delivered {
                    self.delivered += 1;
                } else {
                    *self.lost.entry(cause).or_insert(0) += 1;
                }
                if trace != 0 {
                    self.check_open(trace, tx, t_us);
                    let tl = self.timeline(trace, tx);
                    tl.outcome_us = Some(t_us);
                    tl.delivered = Some(delivered);
                    tl.cause = cause;
                }
            }
            ObsEvent::Dedup {
                t_us,
                trace,
                gw,
                outcome,
                ..
            } => {
                *self.dedup.entry(outcome).or_insert(0) += 1;
                if trace != 0 {
                    if let Some(tl) = self.timelines.get_mut(&trace) {
                        tl.receipts.push(ServerReceipt { gw, t_us, outcome });
                    }
                }
            }
            // Daemon transport carries no packet lifecycle: only its
            // counts above. The per-copy Dedup events carry the service
            // side of a packet's life.
            ObsEvent::SvcAccept { .. } | ObsEvent::SvcIngest { .. } => {}
        }
    }

    /// [`TraceAnalyzer::observe`] over a whole slice.
    pub fn observe_all(&mut self, events: &[ObsEvent]) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Close the reconstruction: any decoder still held becomes a
    /// [`CausalityViolation::HoldNeverReleased`], and the assembled
    /// report is returned.
    pub fn into_report(mut self) -> TraceReport {
        for (&entry, holds) in &self.active {
            for (&tx, hold) in holds {
                self.violations.push(CausalityViolation::HoldNeverReleased {
                    gw: self.gateways[entry].gw,
                    tx,
                    acquired_us: hold.start_us,
                });
            }
        }
        TraceReport {
            gateways: self.gateways,
            events: self.events,
            delivered: self.delivered,
            lost: self.lost,
            dedup: self.dedup,
            timelines: self.timelines,
            drops: self.drops,
            violations: self.violations,
        }
    }
}

/// The assembled output of a [`TraceAnalyzer`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Gateway entries in announcement order (see [`GatewayEntry`]).
    pub gateways: Vec<GatewayEntry>,
    /// Events folded in, by [`ObsEvent::kind_name`]; their sum is every
    /// event folded in.
    pub events: BTreeMap<&'static str, u64>,
    /// `PacketOutcome`s that delivered.
    pub delivered: u64,
    /// `PacketOutcome`s that lost, by cause.
    pub lost: BTreeMap<Option<LossKind>, u64>,
    /// `Dedup` classifications, by outcome.
    pub dedup: BTreeMap<DedupKind, u64>,
    /// Per-packet timelines, keyed by trace id (sorted, deterministic).
    pub timelines: BTreeMap<TraceId, PacketTimeline>,
    /// Every pool-full drop with its blocker snapshot, in stream order.
    pub drops: Vec<DropRecord>,
    /// Causal inconsistencies found (empty for a healthy full stream).
    pub violations: Vec<CausalityViolation>,
}

/// Decoder occupancy at one gateway, split by holder network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayContention {
    /// Gateway index.
    pub gw: u32,
    /// The gateway's own network, when known.
    pub network: Option<u32>,
    /// Decoder pool capacity (0 when the stream never said).
    pub capacity: u32,
    /// Most decoders in use at once.
    pub peak_in_use: u32,
    /// Decoder-µs held by the gateway's own network.
    pub own_decoder_us: u64,
    /// Decoder-µs held by foreign networks — the occupancy AlphaWAN's
    /// Strategies ①/②/⑧ would displace.
    pub foreign_decoder_us: u64,
    /// Decoder-µs by holder network, sorted by network id.
    pub by_network: Vec<(u32, u64)>,
    /// Decoder-µs from holds whose network could not be resolved.
    pub unattributed_us: u64,
}

/// How often packets of one network blocked packets of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockerVictimPair {
    /// Network holding the decoder.
    pub blocker_network: u32,
    /// Network of the dropped packet.
    pub victim_network: u32,
    /// (blocker, victim-drop) incidences: each drop counts once per
    /// blocker of this network in its snapshot.
    pub incidences: u64,
    /// Distinct drops in which this pair appeared at least once.
    pub drops: u64,
}

/// One packet's share of the contention, for top-K tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockerShare {
    /// The blocker's trace id.
    pub trace: TraceId,
    /// The blocker's transmission id.
    pub tx: u64,
    /// The blocker's network, when known.
    pub network: Option<u32>,
    /// Decoder-µs this packet held at gateways of *other* networks.
    pub foreign_decoder_us: u64,
    /// Pool-full drops whose blocker snapshot includes this packet.
    pub drops_blocked: u64,
}

/// The decoder-contention attribution computed from a [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Per-gateway occupancy split, one row per gateway entry, in
    /// announcement order.
    pub per_gateway: Vec<GatewayContention>,
    /// Blocker→victim network pairs across all pool-full drops, sorted
    /// by descending incidence.
    pub pairs: Vec<BlockerVictimPair>,
    /// Packets ranked by contention caused (drops blocked, then
    /// foreign decoder-µs).
    pub top_blockers: Vec<BlockerShare>,
    /// Total foreign decoder-µs across all gateways: the aggregate
    /// Strategy ①/②/⑧ effect size.
    pub foreign_decoder_us_total: u64,
}

impl TraceReport {
    /// Compute the decoder-contention attribution: per-gateway
    /// decoder-µs split own/foreign, blocker→victim network pairs for
    /// every pool-full drop, and the per-packet top-blocker ranking.
    pub fn contention(&self) -> ContentionReport {
        // Per-gateway-entry, per-holder-network decoder-µs from the
        // timelines' completed holds.
        let mut per_gw: Vec<BTreeMap<Option<u32>, u64>> =
            vec![BTreeMap::new(); self.gateways.len()];
        let mut per_trace_foreign: BTreeMap<TraceId, u64> = BTreeMap::new();
        for tl in self.timelines.values() {
            for h in &tl.holds {
                let Some(end) = h.end_us else { continue };
                let dur = end.saturating_sub(h.start_us);
                *per_gw[h.entry].entry(tl.network).or_insert(0) += dur;
                if let (Some(holder), Some(owner)) = (tl.network, self.gateways[h.entry].network) {
                    if holder != owner {
                        *per_trace_foreign.entry(tl.trace).or_insert(0) += dur;
                    }
                }
            }
        }

        let mut foreign_total = 0u64;
        let per_gateway: Vec<GatewayContention> = self
            .gateways
            .iter()
            .zip(&per_gw)
            .map(|(g, nets)| {
                let mut own = 0u64;
                let mut foreign = 0u64;
                let mut unattributed = 0u64;
                let mut by_network = Vec::new();
                for (&holder, &us) in nets {
                    match (holder, g.network) {
                        (Some(h), Some(n)) if h == n => own += us,
                        (Some(_), Some(_)) => foreign += us,
                        _ => unattributed += us,
                    }
                    if let Some(h) = holder {
                        by_network.push((h, us));
                    }
                }
                foreign_total += foreign;
                GatewayContention {
                    gw: g.gw,
                    network: g.network,
                    capacity: g.capacity,
                    peak_in_use: g.peak_in_use,
                    own_decoder_us: own,
                    foreign_decoder_us: foreign,
                    by_network,
                    unattributed_us: unattributed,
                }
            })
            .collect();

        // Blocker→victim pairs and per-packet blocking counts.
        let mut pair_incidences: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
        let mut drops_blocked: BTreeMap<TraceId, u64> = BTreeMap::new();
        for d in &self.drops {
            let mut pair_seen: Vec<(u32, u32)> = Vec::new();
            for b in &d.blockers {
                if b.trace != 0 {
                    *drops_blocked.entry(b.trace).or_insert(0) += 1;
                }
                if let (Some(bn), Some(vn)) = (b.network, d.victim_network) {
                    let e = pair_incidences.entry((bn, vn)).or_insert((0, 0));
                    e.0 += 1;
                    if !pair_seen.contains(&(bn, vn)) {
                        e.1 += 1;
                        pair_seen.push((bn, vn));
                    }
                }
            }
        }
        let mut pairs: Vec<BlockerVictimPair> = pair_incidences
            .into_iter()
            .map(|((b, v), (inc, drops))| BlockerVictimPair {
                blocker_network: b,
                victim_network: v,
                incidences: inc,
                drops,
            })
            .collect();
        pairs.sort_by(|a, b| {
            b.incidences
                .cmp(&a.incidences)
                .then(a.blocker_network.cmp(&b.blocker_network))
                .then(a.victim_network.cmp(&b.victim_network))
        });

        let mut top_blockers: Vec<BlockerShare> = self
            .timelines
            .values()
            .filter_map(|tl| {
                let foreign = per_trace_foreign.get(&tl.trace).copied().unwrap_or(0);
                let blocked = drops_blocked.get(&tl.trace).copied().unwrap_or(0);
                (foreign > 0 || blocked > 0).then_some(BlockerShare {
                    trace: tl.trace,
                    tx: tl.tx,
                    network: tl.network,
                    foreign_decoder_us: foreign,
                    drops_blocked: blocked,
                })
            })
            .collect();
        top_blockers.sort_by(|a, b| {
            b.drops_blocked
                .cmp(&a.drops_blocked)
                .then(b.foreign_decoder_us.cmp(&a.foreign_decoder_us))
                .then(a.trace.cmp(&b.trace))
        });

        ContentionReport {
            per_gateway,
            pairs,
            top_blockers,
            foreign_decoder_us_total: foreign_total,
        }
    }
}

/// One Chrome trace-event, the JSON array format that `chrome://tracing`
/// and Perfetto load. Only the fields this exporter uses are modeled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name shown on the slice.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Phase: `"X"` complete span, `"i"` instant, `"M"` metadata.
    pub ph: String,
    /// Timestamp, µs.
    pub ts: u64,
    /// Duration for `"X"` spans, µs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    /// Process id (one per gateway, plus the medium and the server).
    pub pid: u32,
    /// Thread id (decoder slot / node / reporting gateway).
    pub tid: u32,
    /// Instant scope (`"t"` = thread) for `"i"` events.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    /// Free-form arguments shown in the event detail pane.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub args: Option<serde::Value>,
}

/// A Chrome trace-event document: `{"traceEvents": [...]}`. The field
/// name is the literal key the Chrome/Perfetto loaders require.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// The event array.
    pub traceEvents: Vec<ChromeEvent>,
}

/// A string `serde::Value`.
fn sval(s: String) -> serde::Value {
    serde::Value::Str(s)
}

/// An object `serde::Value` from (key, value) pairs.
fn oval(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Process id of the shared-medium (airtime) track.
const PID_MEDIUM: u32 = 1;
/// Process id of the network-server (dedup) track.
const PID_SERVER: u32 = 2;
/// First gateway process id; gateway `g` renders as `PID_GW0 + g`.
const PID_GW0: u32 = 10;

/// Chrome trace-event export as a fold over an event stream: each
/// event is written to `out` as soon as it is finished, so what the
/// export holds is the airtime spans still open and the decoder slots
/// in use, not the stream.
///
/// Layout: one process per gateway with one thread per decoder slot
/// (slots are assigned greedily and deterministically in stream
/// order), a "medium" process whose threads are sending nodes
/// (airtime spans from `TxStart` to `PacketOutcome`), and a "network
/// server" process whose threads are reporting gateways (dedup
/// instants). Pool-full drops render as instants on the gateway's
/// slot row just past its capacity. The written document is a
/// [`ChromeTrace`]; a gateway's `process_name` event lands where its
/// `GatewayInfo` is in the stream.
pub struct ChromeExport<W: Write> {
    out: W,
    written: u64,
    capacity_of: BTreeMap<u32, u32>,
    /// Deterministic greedy decoder-slot assignment per gateway.
    free: BTreeMap<u32, BTreeSet<u32>>,
    next_slot: BTreeMap<u32, u32>,
    /// Decoders in use: (gw, tx) → (slot, since, trace).
    slot_of: BTreeMap<(u32, u64), (u32, u64, u64)>,
    /// Open airtime spans: trace → (ts, node, tx, network).
    air: BTreeMap<u64, (u64, u64, u64, u32)>,
}

impl<W: Write> ChromeExport<W> {
    /// Start the document on `out`, with the medium's and the server's
    /// `process_name` events.
    pub fn new(out: W) -> io::Result<ChromeExport<W>> {
        let mut export = ChromeExport {
            out,
            written: 0,
            capacity_of: BTreeMap::new(),
            free: BTreeMap::new(),
            next_slot: BTreeMap::new(),
            slot_of: BTreeMap::new(),
            air: BTreeMap::new(),
        };
        export.out.write_all(b"{\"traceEvents\":[")?;
        export.write(&process_name(PID_MEDIUM, "medium (airtime)"))?;
        export.write(&process_name(PID_SERVER, "network server (dedup)"))?;
        Ok(export)
    }

    /// Append one Chrome event to the array.
    fn write(&mut self, ev: &ChromeEvent) -> io::Result<()> {
        if self.written > 0 {
            self.out.write_all(b",")?;
        }
        let json = serde_json::to_string(ev).map_err(io::Error::other)?;
        self.out.write_all(json.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Fold one stream event, writing what it finishes.
    pub fn observe(&mut self, ev: &ObsEvent) -> io::Result<()> {
        match *ev {
            ObsEvent::GatewayInfo {
                gw,
                network,
                capacity,
            } => {
                self.capacity_of.insert(gw, capacity);
                self.write(&process_name(
                    PID_GW0 + gw,
                    &format!("gateway {gw} (network {network})"),
                ))?;
            }
            ObsEvent::TxStart {
                t_us,
                trace,
                tx,
                node,
                network,
            } => {
                self.air.insert(
                    if trace != 0 { trace } else { tx },
                    (t_us, node, tx, network),
                );
            }
            ObsEvent::PacketOutcome {
                t_us,
                trace,
                tx,
                delivered,
                cause,
            } => {
                if let Some((start, node, tx, network)) =
                    self.air.remove(&(if trace != 0 { trace } else { tx }))
                {
                    let mut args = vec![
                        ("trace", sval(format!("{trace:#x}"))),
                        ("delivered", serde::Value::Bool(delivered)),
                    ];
                    if let Some(c) = cause {
                        args.push(("cause", sval(format!("{c:?}"))));
                    }
                    self.write(&ChromeEvent {
                        name: format!("tx {tx} net {network}"),
                        cat: "air".into(),
                        ph: "X".into(),
                        ts: start,
                        dur: Some(t_us.saturating_sub(start)),
                        pid: PID_MEDIUM,
                        tid: node as u32,
                        s: None,
                        args: Some(oval(args)),
                    })?;
                }
            }
            ObsEvent::DecoderAcquired {
                t_us,
                trace,
                gw,
                tx,
                ..
            } => {
                let slot = match self.free.entry(gw).or_default().pop_first() {
                    Some(s) => s,
                    None => {
                        let n = self.next_slot.entry(gw).or_insert(0);
                        let s = *n;
                        *n += 1;
                        s
                    }
                };
                self.slot_of.insert((gw, tx), (slot, t_us, trace));
            }
            ObsEvent::DecoderReleased { t_us, gw, tx, .. } => {
                if let Some((slot, start, trace)) = self.slot_of.remove(&(gw, tx)) {
                    self.free.entry(gw).or_default().insert(slot);
                    self.write(&ChromeEvent {
                        name: format!("decode tx {tx}"),
                        cat: "decoder".into(),
                        ph: "X".into(),
                        ts: start,
                        dur: Some(t_us.saturating_sub(start)),
                        pid: PID_GW0 + gw,
                        tid: slot,
                        s: None,
                        args: Some(oval(vec![("trace", sval(format!("{trace:#x}")))])),
                    })?;
                }
            }
            ObsEvent::PoolFullDrop {
                t_us,
                trace,
                gw,
                tx,
                locked,
            } => {
                let row = self.capacity_of.get(&gw).copied().unwrap_or(16);
                self.write(&ChromeEvent {
                    name: format!("drop tx {tx}"),
                    cat: "drop".into(),
                    ph: "i".into(),
                    ts: t_us,
                    dur: None,
                    pid: PID_GW0 + gw,
                    tid: row,
                    s: Some("t".into()),
                    args: Some(oval(vec![
                        ("trace", sval(format!("{trace:#x}"))),
                        ("locked", serde::Value::U64(locked as u64)),
                    ])),
                })?;
            }
            ObsEvent::Dedup {
                t_us,
                trace,
                dev,
                fcnt,
                gw,
                outcome,
            } => {
                self.write(&ChromeEvent {
                    name: format!("dedup {outcome:?} dev {dev:#x} fcnt {fcnt}"),
                    cat: "server".into(),
                    ph: "i".into(),
                    ts: t_us,
                    dur: None,
                    pid: PID_SERVER,
                    tid: gw,
                    s: Some("t".into()),
                    args: Some(oval(vec![("trace", sval(format!("{trace:#x}")))])),
                })?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Close the document and flush it: the number of Chrome events
    /// written. Spans still open at the end of the stream are not.
    pub fn finish(mut self) -> io::Result<u64> {
        self.out.write_all(b"]}")?;
        self.out.flush()?;
        Ok(self.written)
    }
}

/// A `process_name` metadata event.
fn process_name(pid: u32, name: &str) -> ChromeEvent {
    ChromeEvent {
        name: "process_name".into(),
        cat: "__metadata".into(),
        ph: "M".into(),
        ts: 0,
        dur: None,
        pid,
        tid: 0,
        s: None,
        args: Some(oval(vec![("name", sval(name.to_string()))])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Chrome export of `events`, as written.
    fn chrome_json(events: &[ObsEvent]) -> String {
        let mut out = Vec::new();
        let mut export = ChromeExport::new(&mut out).unwrap();
        for ev in events {
            export.observe(ev).unwrap();
        }
        let written = export.finish().unwrap();
        let json = String::from_utf8(out).unwrap();
        let doc: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.traceEvents.len() as u64, written);
        json
    }

    /// The Chrome export of `events`, parsed back.
    fn chrome_trace(events: &[ObsEvent]) -> ChromeTrace {
        serde_json::from_str(&chrome_json(events)).unwrap()
    }

    #[test]
    fn trace_ids_deterministic_nonzero_and_tagged() {
        let a = packet_trace(0, 0);
        let b = packet_trace(0, 0);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(a >> 63, 0, "the top bit stays clear");
        assert_ne!(packet_trace(0, 1), a, "distinct tx, distinct id");
        assert_ne!(packet_trace(1, 0), a, "distinct epoch, distinct id");
    }

    #[test]
    fn decoder_time_sums_closed_holds_across_gateways() {
        let hold = |gw, start_us, end_us| DecoderHold {
            gw,
            entry: 0,
            start_us,
            end_us,
        };
        let tl = PacketTimeline {
            holds: vec![
                hold(0, 100, Some(350)),
                hold(3, 120, Some(400)),
                // Cut off by the end of the stream: no span to count.
                hold(5, 130, None),
                // A release logged before its acquire counts as zero.
                hold(6, 500, Some(450)),
            ],
            ..PacketTimeline::default()
        };
        assert_eq!(tl.decoder_us(), 250 + 280);
        assert_eq!(PacketTimeline::default().decoder_us(), 0);
    }

    fn lifecycle(trace: u64, tx: u64, net: u32, gw: u32, t0: u64, t1: u64) -> Vec<ObsEvent> {
        vec![
            ObsEvent::TxStart {
                t_us: t0,
                trace,
                tx,
                node: tx,
                network: net,
            },
            ObsEvent::PacketLockOn {
                t_us: t0 + 10,
                trace,
                tx,
                node: tx,
                network: net,
            },
            ObsEvent::DecoderAcquired {
                t_us: t0 + 10,
                trace,
                gw,
                tx,
                in_use: 1,
                capacity: 2,
            },
            ObsEvent::DecoderReleased {
                t_us: t1,
                trace,
                gw,
                tx,
                in_use: 0,
            },
            ObsEvent::PacketOutcome {
                t_us: t1,
                trace,
                tx,
                delivered: true,
                cause: None,
            },
        ]
    }

    #[test]
    fn reconstructs_timeline_and_attributes_drop() {
        // Gateway 0 belongs to network 1, capacity 2. Two network-2
        // packets fill the pool; a network-1 packet is dropped.
        let b1 = packet_trace(0, 10);
        let b2 = packet_trace(0, 11);
        let victim = packet_trace(0, 12);
        let b1_ev = lifecycle(b1, 10, 2, 0, 100, 5_000);
        let b2_ev = lifecycle(b2, 11, 2, 0, 200, 6_000);
        let mut ev = vec![ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 2,
        }];
        // Both blockers on air and holding decoders…
        ev.extend_from_slice(&b1_ev[..3]);
        ev.extend_from_slice(&b2_ev[..3]);
        // …when the victim locks on and is dropped…
        ev.push(ObsEvent::PacketLockOn {
            t_us: 300,
            trace: victim,
            tx: 12,
            node: 12,
            network: 1,
        });
        ev.push(ObsEvent::PoolFullDrop {
            t_us: 300,
            trace: victim,
            gw: 0,
            tx: 12,
            locked: 0,
        });
        ev.push(ObsEvent::StealRefused {
            t_us: 300,
            trace: victim,
            gw: 0,
            tx: 12,
            foreign_held: 2,
        });
        // …then the blockers finish.
        ev.extend_from_slice(&b1_ev[3..]);
        ev.extend_from_slice(&b2_ev[3..]);
        ev.push(ObsEvent::PacketOutcome {
            t_us: 7_000,
            trace: victim,
            tx: 12,
            delivered: false,
            cause: Some(LossKind::DecoderInter),
        });

        let mut an = TraceAnalyzer::new();
        an.observe_all(&ev);
        let report = an.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        let tl = &report.timelines[&victim];
        assert_eq!(tl.network, Some(1));
        assert_eq!(
            tl.drops,
            vec![GatewayDrop {
                gw: 0,
                t_us: 300,
                foreign_held: 2
            }]
        );
        assert_eq!(tl.delivered, Some(false));

        assert_eq!(report.drops.len(), 1);
        let d = &report.drops[0];
        assert_eq!(d.victim_network, Some(1));
        assert_eq!(d.gw_network, Some(1));
        assert_eq!(d.blockers.len(), 2);
        assert!(
            d.foreign_blockers().count() == 2,
            "both blockers are network 2"
        );

        let c = report.contention();
        // b1 held 110..5000 µs, b2 held 210..6000 µs, both foreign.
        let expect = (5_000 - 110) + (6_000 - 210);
        assert_eq!(c.foreign_decoder_us_total, expect);
        assert_eq!(c.per_gateway.len(), 1);
        assert_eq!(c.per_gateway[0].own_decoder_us, 0);
        assert_eq!(c.per_gateway[0].foreign_decoder_us, expect);
        assert_eq!(
            c.pairs,
            vec![BlockerVictimPair {
                blocker_network: 2,
                victim_network: 1,
                incidences: 2,
                drops: 1,
            }]
        );
        assert_eq!(c.top_blockers.len(), 2);
        assert_eq!(c.top_blockers[0].drops_blocked, 1);
    }

    #[test]
    fn violations_detected() {
        let t = packet_trace(0, 1);
        let mut an = TraceAnalyzer::new();
        // Release with no acquire.
        an.observe(&ObsEvent::DecoderReleased {
            t_us: 5,
            trace: t,
            gw: 0,
            tx: 1,
            in_use: 0,
        });
        // Acquire with no lock-on (orphan), never released.
        let t2 = packet_trace(0, 2);
        an.observe(&ObsEvent::DecoderAcquired {
            t_us: 10,
            trace: t2,
            gw: 1,
            tx: 2,
            in_use: 1,
            capacity: 16,
        });
        let report = an.into_report();
        assert_eq!(report.violations.len(), 3, "{:?}", report.violations);
        assert!(matches!(
            report.violations[0],
            CausalityViolation::ReleaseWithoutAcquire { gw: 0, tx: 1, .. }
        ));
        assert!(matches!(
            report.violations[1],
            CausalityViolation::OrphanSpan { gw: 1, tx: 2, .. }
        ));
        assert!(matches!(
            report.violations[2],
            CausalityViolation::HoldNeverReleased { gw: 1, tx: 2, .. }
        ));
    }

    #[test]
    fn untraced_stream_still_attributes_contention() {
        // trace == 0 everywhere: holder identity falls back to the
        // latest lock-on for the same tx.
        let ev = vec![
            ObsEvent::GatewayInfo {
                gw: 0,
                network: 1,
                capacity: 1,
            },
            ObsEvent::PacketLockOn {
                t_us: 10,
                trace: 0,
                tx: 5,
                node: 0,
                network: 2,
            },
            ObsEvent::DecoderAcquired {
                t_us: 10,
                trace: 0,
                gw: 0,
                tx: 5,
                in_use: 1,
                capacity: 1,
            },
            ObsEvent::PacketLockOn {
                t_us: 20,
                trace: 0,
                tx: 6,
                node: 1,
                network: 1,
            },
            ObsEvent::PoolFullDrop {
                t_us: 20,
                trace: 0,
                gw: 0,
                tx: 6,
                locked: 0,
            },
            ObsEvent::DecoderReleased {
                t_us: 100,
                trace: 0,
                gw: 0,
                tx: 5,
                in_use: 0,
            },
        ];
        let mut an = TraceAnalyzer::new();
        an.observe_all(&ev);
        let report = an.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.drops.len(), 1);
        assert_eq!(report.drops[0].victim_network, Some(1));
        assert_eq!(report.drops[0].blockers.len(), 1);
        assert_eq!(report.drops[0].blockers[0].network, Some(2));
    }

    #[test]
    fn chrome_trace_roundtrips_and_assigns_slots() {
        let mut ev = vec![ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 2,
        }];
        // Interleave the two lifecycles in time order, as a real
        // stream would be: both acquire before either releases.
        let a = lifecycle(packet_trace(0, 0), 0, 1, 0, 0, 1_000);
        let b = lifecycle(packet_trace(0, 1), 1, 2, 0, 50, 2_000);
        ev.extend_from_slice(&a[..3]);
        ev.extend_from_slice(&b[..3]);
        ev.extend_from_slice(&a[3..]);
        ev.extend_from_slice(&b[3..]);
        let doc = chrome_trace(&ev);
        // 3 process_name metadata + 2 air spans + 2 decoder spans.
        assert_eq!(doc.traceEvents.len(), 7);
        let spans: Vec<&ChromeEvent> = doc.traceEvents.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 4);
        // The two holds overlap (10..1000 and 60..2000 µs), so they
        // must land on distinct decoder-slot rows.
        let decoder_tids: Vec<u32> = doc
            .traceEvents
            .iter()
            .filter(|e| e.cat == "decoder")
            .map(|e| e.tid)
            .collect();
        assert_eq!(decoder_tids, vec![0, 1]);

        // Written as the document serializes.
        assert_eq!(serde_json::to_string(&doc).unwrap(), chrome_json(&ev));
    }

    #[test]
    fn the_chrome_export_writes_as_it_goes_and_keeps_only_what_is_open() {
        let mut out = Vec::new();
        let mut export = ChromeExport::new(&mut out).unwrap();
        let a = lifecycle(packet_trace(0, 0), 0, 1, 0, 0, 1_000);
        // Up to the decoder release: one airtime span and one decoder
        // held, nothing finished but the two process names.
        assert!(matches!(a[3], ObsEvent::DecoderReleased { .. }));
        for ev in &a[..3] {
            export.observe(ev).unwrap();
        }
        assert_eq!(
            (export.written, export.air.len(), export.slot_of.len()),
            (2, 1, 1)
        );
        for ev in &a[3..] {
            export.observe(ev).unwrap();
        }
        assert_eq!(
            (export.written, export.air.len(), export.slot_of.len()),
            (4, 0, 0)
        );
        assert_eq!(export.finish().unwrap(), 4);
        let doc: ChromeTrace = serde_json::from_slice(&out).unwrap();
        assert_eq!(doc.traceEvents.len(), 4);
    }

    #[test]
    fn slot_reuse_after_release() {
        let mut ev = vec![];
        ev.extend(lifecycle(packet_trace(0, 0), 0, 1, 0, 0, 1_000));
        // Second packet starts after the first released: reuses slot 0.
        ev.extend(lifecycle(packet_trace(0, 1), 1, 1, 0, 2_000, 3_000));
        let doc = chrome_trace(&ev);
        let decoder_tids: Vec<u32> = doc
            .traceEvents
            .iter()
            .filter(|e| e.cat == "decoder")
            .map(|e| e.tid)
            .collect();
        assert_eq!(decoder_tids, vec![0, 0]);
    }

    #[test]
    fn a_trace_seen_again_after_its_outcome_is_reused() {
        // Two worlds that each start at epoch 0 mint the same id for
        // their tx 0: appended to one stream, the second lifecycle
        // starts after the first one's verdict.
        let trace = packet_trace(0, 0);
        let mut ev = lifecycle(trace, 0, 1, 0, 0, 1_000);
        ev.extend(lifecycle(trace, 0, 1, 0, 0, 1_000));
        let mut an = TraceAnalyzer::new();
        an.observe_all(&ev);
        let report = an.into_report();
        assert_eq!(report.timelines.len(), 1, "the two packets merged");
        // The second TxStart, lock-on, acquire and outcome each report.
        assert_eq!(report.violations.len(), 4, "{:?}", report.violations);
        assert_eq!(
            report.violations[0],
            CausalityViolation::TraceReused {
                trace,
                tx: 0,
                t_us: 0
            }
        );
        // Distinct ids per world: one clean timeline each.
        let mut an = TraceAnalyzer::new();
        an.observe_all(&lifecycle(packet_trace(0, 0), 0, 1, 0, 0, 1_000));
        an.observe_all(&lifecycle(packet_trace(1, 0), 0, 1, 0, 0, 1_000));
        let report = an.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.timelines.len(), 2);
    }

    #[test]
    fn counts_events_outcomes_dedup_and_peak_occupancy() {
        let mut ev = vec![ObsEvent::GatewayInfo {
            gw: 4,
            network: 1,
            capacity: 2,
        }];
        let a = lifecycle(packet_trace(0, 0), 0, 1, 4, 0, 1_000);
        let mut b = lifecycle(packet_trace(0, 1), 1, 1, 4, 50, 2_000);
        if let ObsEvent::DecoderAcquired { in_use, .. } = &mut b[2] {
            *in_use = 2;
        }
        b[4] = ObsEvent::PacketOutcome {
            t_us: 2_000,
            trace: packet_trace(0, 1),
            tx: 1,
            delivered: false,
            cause: Some(LossKind::ChannelIntra),
        };
        ev.extend_from_slice(&a[..3]);
        ev.extend_from_slice(&b[..3]);
        ev.extend_from_slice(&a[3..]);
        ev.extend_from_slice(&b[3..]);
        // Untraced events count too.
        ev.push(ObsEvent::PacketOutcome {
            t_us: 3_000,
            trace: 0,
            tx: 9,
            delivered: false,
            cause: Some(LossKind::ChannelIntra),
        });
        for outcome in [DedupKind::New, DedupKind::Duplicate, DedupKind::New] {
            ev.push(ObsEvent::Dedup {
                t_us: 3_000,
                trace: packet_trace(0, 0),
                dev: 1,
                fcnt: 0,
                gw: 4,
                outcome,
            });
        }
        let mut an = TraceAnalyzer::new();
        an.observe_all(&ev);
        let report = an.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let count = |kind: &str| report.events.get(kind).copied();
        assert_eq!(count("tx_start"), Some(2));
        assert_eq!(count("packet_outcome"), Some(3));
        assert_eq!(count("dedup"), Some(3));
        assert_eq!(count("pool_full_drop"), None);
        assert_eq!(report.events.values().sum::<u64>(), ev.len() as u64);
        assert_eq!(report.delivered, 1);
        assert_eq!(
            report.lost.iter().collect::<Vec<_>>(),
            [(&Some(LossKind::ChannelIntra), &2)]
        );
        assert_eq!(
            report.dedup.iter().collect::<Vec<_>>(),
            [(&DedupKind::New, &2), (&DedupKind::Duplicate, &1)]
        );
        let gw = &report.contention().per_gateway[0];
        assert_eq!((gw.gw, gw.capacity, gw.peak_in_use), (4, 2, 2));
    }

    #[test]
    fn each_announcement_of_a_gateway_is_its_own_entry() {
        // Two worlds appended to one stream, both with a gateway 0: in
        // the first it belongs to network 1, in the second to network 2.
        // The same network-1 packet holds a decoder in each world.
        let mut ev = vec![ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 2,
        }];
        ev.extend(lifecycle(packet_trace(0, 0), 0, 1, 0, 0, 1_000));
        ev.push(ObsEvent::GatewayInfo {
            gw: 0,
            network: 2,
            capacity: 2,
        });
        ev.extend(lifecycle(packet_trace(1, 0), 0, 1, 0, 0, 3_000));
        let mut an = TraceAnalyzer::new();
        an.observe_all(&ev);
        let report = an.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(
            report.gateways,
            [
                GatewayEntry {
                    gw: 0,
                    network: Some(1),
                    capacity: 2,
                    peak_in_use: 1
                },
                GatewayEntry {
                    gw: 0,
                    network: Some(2),
                    capacity: 2,
                    peak_in_use: 1
                },
            ]
        );
        let c = report.contention();
        let split: Vec<(Option<u32>, u64, u64)> = c
            .per_gateway
            .iter()
            .map(|g| (g.network, g.own_decoder_us, g.foreign_decoder_us))
            .collect();
        assert_eq!(split, [(Some(1), 990, 0), (Some(2), 0, 2_990)]);
        assert_eq!(c.foreign_decoder_us_total, 2_990);
    }
}
