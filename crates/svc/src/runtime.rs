//! What `netserverd`'s ingest thread decides with, and what it leaves
//! for others to read.
//!
//! The thread that received a drain's datagrams also decides them: it
//! owns a [`ShardedDeduplicator`] outright — no lock, queue or second
//! thread on the dedup path — and `Decider::decide` offers the
//! drain's keyed uplink copies to it in arrival order, each to the
//! shard its `hash(DevAddr)` names ([`netserver::dedup::shard_of`]),
//! then appends every shard's decisions to that shard's log.
//!
//! Backpressure is one sentence: the thread that is deciding is not
//! reading, so datagrams queue in the kernel socket buffer and are shed
//! there once it overflows. The daemon's own memory is the receive
//! ring, one drain's staged packets and the capped decision logs, which
//! grow a block at a time and never move a block.
//!
//! Correctness contract: a shard's offers are made in arrival order by
//! one thread, so replaying any shard's decision log through a fresh
//! [`Deduplicator`] must reproduce the logged outcomes exactly (the
//! `per_shard_replay_is_exact` property in `netserver::dedup`).
//! [`replay_divergence`] performs that replay and
//! [`render_decisions`] serializes both streams so tests can assert
//! byte-identity.

use lora_mac::device::DevAddr;
use netserver::dedup::{DedupOutcome, DedupStats, Deduplicator, ShardedDeduplicator, UplinkCopy};
use obs::Registry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ingest-latency histogram bounds (µs): a drain's receive call
/// returned → its last decision logged, which is one thread's parse,
/// ACK flush and decide with no queue in between. The head buckets
/// resolve drains of a few packets, the tail buckets catch scheduling
/// stalls under overload.
pub const INGEST_LATENCY_BOUNDS_US: [u64; 13] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Plan-serve latency histogram bounds (µs) for `masterd`.
pub const SERVE_LATENCY_BOUNDS_US: [u64; 8] = [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000];

/// One keyed uplink copy extracted from a PUSH_DATA rxpk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketIn {
    /// Device address the frame came from.
    pub dev: u32,
    /// LoRaWAN frame counter.
    pub fcnt: u16,
    /// Gateway id that heard this copy.
    pub gw: u16,
    /// Reception timestamp (the rxpk `tmst`), µs.
    pub t_us: u64,
    /// Reported SNR of this copy, dB.
    pub snr_db: f32,
    /// Distributed trace id threaded through obs events.
    pub trace: u64,
}

/// One dedup decision, in the exact order the owning shard made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Device address of the judged frame.
    pub dev: u32,
    /// LoRaWAN frame counter of the judged frame.
    pub fcnt: u16,
    /// Gateway whose copy triggered this decision.
    pub gw: u16,
    /// Reception timestamp of that copy, µs.
    pub t_us: u64,
    /// What the dedup state machine decided.
    pub outcome: DedupOutcome,
}

fn outcome_code(o: DedupOutcome) -> u8 {
    match o {
        DedupOutcome::New => 0,
        DedupOutcome::Duplicate => 1,
        DedupOutcome::Late => 2,
    }
}

/// A thread-safe observability fan-in the daemons can emit into.
pub type SharedObs = Arc<Mutex<dyn obs::ObsSink + Send>>;

/// Decisions a [`DecisionLog`] block holds.
const LOG_BLOCK: usize = 1 << 16;

/// One shard's decisions, in blocks each allocated once at full size.
/// The log grows without moving what it holds, so the memory it takes
/// is what it stores: a vector that grows by reallocating copies
/// itself, and where the allocator serves that copy from its heap
/// instead of remapping, old and new are resident at once, which moved
/// the daemon's peak RSS by megabytes from run to run.
#[derive(Default)]
struct DecisionLog {
    /// Full blocks, then the one being filled.
    blocks: Vec<Vec<Decision>>,
}

impl DecisionLog {
    fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * LOG_BLOCK + last.len())
    }

    fn extend(&mut self, mut decisions: &[Decision]) {
        while !decisions.is_empty() {
            let Some(block) = self.blocks.last_mut().filter(|b| b.len() < LOG_BLOCK) else {
                self.blocks.push(Vec::with_capacity(LOG_BLOCK));
                continue;
            };
            let (now, later) = decisions.split_at((LOG_BLOCK - block.len()).min(decisions.len()));
            block.extend_from_slice(now);
            decisions = later;
        }
    }
}

/// What the ingest thread leaves for other threads to read: the
/// per-shard decision logs, how many decisions the log cap kept out,
/// and the dedup records resident.
pub(crate) struct DecisionLogs {
    logs: Vec<Mutex<DecisionLog>>,
    dropped: AtomicU64,
    tracked: AtomicU64,
}

impl DecisionLogs {
    /// Snapshot of every shard's decision log, in shard order.
    pub(crate) fn decisions(&self) -> Vec<Vec<Decision>> {
        self.logs.iter().map(|l| l.lock().blocks.concat()).collect()
    }

    /// Decisions that were made but not logged because a shard's log
    /// hit its cap.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total (DevAddr, FCnt) records resident across shards as of the
    /// last drain — the bounded-memory invariant tests assert on.
    pub(crate) fn tracked(&self) -> u64 {
        self.tracked.load(Ordering::Relaxed)
    }
}

/// What one [`Decider::decide`] call decided, for the registry.
pub(crate) struct Decided {
    outcomes: DedupStats,
    /// Socket receive → the last decision of the drain logged, µs.
    latency_us: u64,
}

impl Decided {
    /// Add the call's outcomes and its ingest latency to `registry`.
    pub(crate) fn publish(&self, registry: &mut Registry) {
        registry.inc("dedup_new_total", self.outcomes.new);
        registry.inc("dedup_duplicate_total", self.outcomes.duplicate);
        registry.inc("dedup_late_total", self.outcomes.late);
        registry.observe(
            "ingest_latency_us",
            &INGEST_LATENCY_BOUNDS_US,
            self.latency_us,
        );
    }
}

/// The dedup shards, owned by the one thread that offers to them.
pub(crate) struct Decider {
    dedup: ShardedDeduplicator,
    /// One call's decisions per shard, on their way to `logs`.
    local: Vec<Vec<Decision>>,
    /// Decision logs stop growing at this many entries per shard (the
    /// prefix property keeps replay exact on a truncated log).
    log_cap: usize,
    logs: Arc<DecisionLogs>,
    sink: Option<SharedObs>,
}

impl Decider {
    /// `shards` deduplicators of a `window_us` window, each with a
    /// decision log of at most `log_cap` entries.
    pub(crate) fn new(
        shards: usize,
        window_us: u64,
        log_cap: usize,
        sink: Option<SharedObs>,
    ) -> Decider {
        Decider {
            dedup: ShardedDeduplicator::new(shards, window_us),
            local: vec![Vec::new(); shards],
            log_cap,
            logs: Arc::new(DecisionLogs {
                logs: (0..shards).map(|_| Mutex::default()).collect(),
                dropped: AtomicU64::new(0),
                tracked: AtomicU64::new(0),
            }),
            sink,
        }
    }

    /// The handle other threads read this decider's logs through.
    pub(crate) fn logs(&self) -> Arc<DecisionLogs> {
        Arc::clone(&self.logs)
    }

    /// Offer `pkts`, received at `recv`, in order, each to its shard,
    /// and log the decisions: made and logged when the call returns.
    pub(crate) fn decide(&mut self, pkts: &[PacketIn], recv: Instant) -> Decided {
        let mut outcomes = DedupStats::default();
        // Locked once for the call, not once a packet.
        let mut sink = self.sink.as_ref().map(|s| s.lock());
        for p in pkts {
            let copy = UplinkCopy {
                dev_addr: DevAddr(p.dev),
                fcnt: p.fcnt,
                gw_id: p.gw as usize,
                snr_db: p.snr_db as f64,
                received_us: p.t_us,
                trace: p.trace,
            };
            let (shard, outcome) = match sink.as_deref_mut() {
                Some(sink) => self.dedup.offer_obs(copy, sink),
                None => self.dedup.offer(copy),
            };
            match outcome {
                DedupOutcome::New => outcomes.new += 1,
                DedupOutcome::Duplicate => outcomes.duplicate += 1,
                DedupOutcome::Late => outcomes.late += 1,
            }
            self.local[shard].push(Decision {
                dev: p.dev,
                fcnt: p.fcnt,
                gw: p.gw,
                t_us: p.t_us,
                outcome,
            });
        }
        drop(sink);
        outcomes.offered = pkts.len() as u64;
        for (local, log) in self.local.iter_mut().zip(&self.logs.logs) {
            if local.is_empty() {
                continue;
            }
            let mut log = log.lock();
            let room = self.log_cap.saturating_sub(log.len()).min(local.len());
            log.extend(&local[..room]);
            let over = (local.len() - room) as u64;
            self.logs.dropped.fetch_add(over, Ordering::Relaxed);
            local.clear();
        }
        let tracked = self.dedup.tracked() as u64;
        self.logs.tracked.store(tracked, Ordering::Relaxed);
        Decided {
            outcomes,
            latency_us: recv.elapsed().as_micros() as u64,
        }
    }
}

/// Serialize per-shard decision logs to a canonical byte stream — the
/// "dedup decision stream" the acceptance test compares byte-for-byte
/// against an in-process replay.
pub fn render_decisions(logs: &[Vec<Decision>]) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::new();
    for (shard, log) in logs.iter().enumerate() {
        for d in log {
            let _ = writeln!(
                out,
                "{shard},{:08x},{},{},{},{}",
                d.dev,
                d.fcnt,
                d.gw,
                d.t_us,
                outcome_code(d.outcome)
            );
        }
    }
    out
}

/// Parse [`render_decisions`] output back into per-shard logs (the
/// `loadgen` binary scrapes `/decisions` and verifies divergence
/// out-of-process). Returns `None` on any malformed line.
pub fn parse_decisions(text: &str) -> Option<Vec<Vec<Decision>>> {
    let mut logs: Vec<Vec<Decision>> = Vec::new();
    for line in text.lines() {
        let mut f = line.split(',');
        let shard: usize = f.next()?.parse().ok()?;
        let dev = u32::from_str_radix(f.next()?, 16).ok()?;
        let fcnt: u16 = f.next()?.parse().ok()?;
        let gw: u16 = f.next()?.parse().ok()?;
        let t_us: u64 = f.next()?.parse().ok()?;
        let outcome = match f.next()? {
            "0" => DedupOutcome::New,
            "1" => DedupOutcome::Duplicate,
            "2" => DedupOutcome::Late,
            _ => return None,
        };
        if f.next().is_some() {
            return None;
        }
        if logs.len() <= shard {
            logs.resize_with(shard + 1, Vec::new);
        }
        logs[shard].push(Decision {
            dev,
            fcnt,
            gw,
            t_us,
            outcome,
        });
    }
    Some(logs)
}

/// Replay each shard's offer stream through a fresh [`Deduplicator`]
/// and rebuild the decision logs the shards *should* have produced.
/// SNR is irrelevant to outcomes (it only picks the best copy), so the
/// replay runs with SNR 0 and is still exact.
pub fn replay_decisions(logs: &[Vec<Decision>], window_us: u64) -> Vec<Vec<Decision>> {
    logs.iter()
        .map(|log| {
            let mut dedup = Deduplicator::new(window_us);
            log.iter()
                .map(|d| {
                    let outcome = dedup.offer(UplinkCopy {
                        dev_addr: DevAddr(d.dev),
                        fcnt: d.fcnt,
                        gw_id: d.gw as usize,
                        snr_db: 0.0,
                        received_us: d.t_us,
                        trace: 0,
                    });
                    Decision { outcome, ..*d }
                })
                .collect()
        })
        .collect()
}

/// Count decisions whose logged outcome differs from the in-process
/// replay. Zero is the shard-equivalence acceptance criterion.
pub fn replay_divergence(logs: &[Vec<Decision>], window_us: u64) -> u64 {
    let replayed = replay_decisions(logs, window_us);
    logs.iter()
        .zip(&replayed)
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netserver::dedup::shard_of;

    fn pkt(dev: u32, fcnt: u16, gw: u16, t_us: u64) -> PacketIn {
        PacketIn {
            dev,
            fcnt,
            gw,
            t_us,
            snr_db: 0.0,
            trace: 0,
        }
    }

    #[test]
    fn decisions_route_by_hash_and_replay_exactly() {
        let mut d = Decider::new(4, 1_000_000, 10_000, None);
        let pkts: Vec<PacketIn> = (0..64u32)
            .map(|i| pkt(i % 8, (i / 8) as u16, (i % 3) as u16, i as u64 * 1_000))
            .collect();
        for drain in pkts.chunks(7) {
            let decided = d.decide(drain, Instant::now());
            assert_eq!(decided.outcomes.offered, drain.len() as u64);
        }
        let logs = d.logs().decisions();
        assert_eq!(logs.iter().map(|l| l.len()).sum::<usize>(), 64);
        // Every decision sits in the shard its DevAddr hashes to.
        for (shard, log) in logs.iter().enumerate() {
            for d in log {
                assert_eq!(shard_of(DevAddr(d.dev), 4), shard);
            }
        }
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
        assert_eq!(
            render_decisions(&logs),
            render_decisions(&replay_decisions(&logs, 1_000_000)),
            "decision stream must be byte-identical to the replay"
        );
    }

    #[test]
    fn duplicate_and_late_outcomes_are_logged() {
        let sink = Arc::new(Mutex::new(obs::VecSink::new()));
        let mut d = Decider::new(1, 1_000_000, 10_000, Some(sink.clone()));
        let mut registry = Registry::new();
        let mut decide = |pkts: &[PacketIn]| d.decide(pkts, Instant::now()).publish(&mut registry);
        decide(&[pkt(1, 0, 0, 1_000), pkt(1, 0, 1, 2_000)]);
        // Advance the high-water mark a full window, then offer a stale
        // copy of an expired frame.
        decide(&[pkt(2, 0, 0, 3_000_000)]);
        decide(&[pkt(1, 0, 2, 1_500)]);
        let logs = d.logs().decisions();
        let outcomes: Vec<DedupOutcome> = logs[0].iter().map(|d| d.outcome).collect();
        assert_eq!(
            outcomes,
            vec![
                DedupOutcome::New,
                DedupOutcome::Duplicate,
                DedupOutcome::New,
                DedupOutcome::Late
            ]
        );
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
        // The sink saw the same decisions, in the order offered.
        let seen: Vec<(u32, obs::DedupKind)> = (sink.lock().events().iter())
            .map(|ev| match ev {
                obs::ObsEvent::Dedup { gw, outcome, .. } => (*gw, *outcome),
                other => panic!("not a dedup event: {other:?}"),
            })
            .collect();
        use obs::DedupKind::{Duplicate, Late, New};
        assert_eq!(seen, [(0, New), (1, Duplicate), (0, New), (2, Late)]);
        let count = |name| registry.counter(name);
        assert_eq!(
            (
                count("dedup_new_total"),
                count("dedup_duplicate_total"),
                count("dedup_late_total")
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn log_cap_keeps_a_replayable_prefix() {
        let mut d = Decider::new(1, 1_000_000, 10, None);
        let pkts: Vec<PacketIn> = (0..25u16).map(|i| pkt(7, i, 0, i as u64 * 100)).collect();
        // The cap falls inside the third call's decisions.
        for drain in pkts.chunks(4) {
            d.decide(drain, Instant::now());
        }
        let logs = d.logs().decisions();
        assert_eq!(logs[0].len(), 10, "log stops at the cap");
        assert_eq!(d.logs().dropped(), 15);
        // The prefix is still exactly replayable.
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
    }

    #[test]
    fn a_log_fills_block_after_block_and_never_moves_one() {
        let decisions: Vec<Decision> = (0..2 * LOG_BLOCK as u32 + 5)
            .map(|i| Decision {
                dev: i,
                fcnt: i as u16,
                gw: 0,
                t_us: i as u64,
                outcome: DedupOutcome::New,
            })
            .collect();
        let mut log = DecisionLog::default();
        let mut placed: Vec<*const Decision> = Vec::new();
        for part in decisions.chunks(LOG_BLOCK / 3 + 1) {
            log.extend(part);
            let now: Vec<*const Decision> = log.blocks.iter().map(|b| b.as_ptr()).collect();
            assert!(now.starts_with(&placed), "a block moved");
            placed = now;
        }
        assert_eq!(log.len(), decisions.len());
        assert_eq!(log.blocks.len(), 3);
        assert!(log.blocks.iter().all(|b| b.capacity() == LOG_BLOCK));
        assert_eq!(log.blocks.concat(), decisions);
    }

    #[test]
    fn registry_sees_latency_histogram() {
        let mut d = Decider::new(2, 1_000_000, 1_000, None);
        let mut reg = Registry::new();
        d.decide(&[pkt(5, 0, 0, 10)], Instant::now())
            .publish(&mut reg);
        assert_eq!(d.logs().tracked(), 1);
        let h = reg.histogram("ingest_latency_us").expect("histogram");
        assert_eq!(h.total(), 1);
        assert_eq!(reg.counter("dedup_new_total"), 1);
    }
}
