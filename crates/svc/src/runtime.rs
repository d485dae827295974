//! What `netserverd`'s ingest thread decides with, and what it leaves
//! for others to read.
//!
//! The thread that received a drain's datagrams also decides them: it
//! owns one [`Deduplicator`] outright — no lock, queue or second thread
//! on the dedup path — and `Decider::decide` offers the drain's keyed
//! uplink copies to it in arrival order, then appends the decisions to
//! the one decision log.
//!
//! Backpressure is one sentence: the thread that is deciding is not
//! reading, so datagrams queue in the kernel socket buffer and are shed
//! there once it overflows. The daemon's own memory is the receive
//! ring, one drain's staged packets and the capped decision log, which
//! grows a block at a time and never moves a block.
//!
//! Correctness contract: the offers are made in arrival order by one
//! thread, so replaying the decision log through a fresh
//! [`Deduplicator`] must reproduce the logged outcomes exactly (the
//! `replaying_the_log_is_exact` property in `netserver::dedup`).
//! [`replay_divergence`] performs that replay and
//! [`render_decisions`] serializes both streams so tests can assert
//! byte-identity.

use lora_mac::device::DevAddr;
use netserver::dedup::{DedupOutcome, DedupStats, Deduplicator, UplinkCopy};
use obs::{Histogram, Registry};
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

/// p50/p95/p99 snapshot of a histogram (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyQuantiles {
    /// Median, µs.
    pub p50: u64,
    /// 95th percentile, µs.
    pub p95: u64,
    /// 99th percentile, µs.
    pub p99: u64,
}

impl LatencyQuantiles {
    /// Snapshot a histogram's quantiles; all-zero with no samples.
    pub fn of(h: &Histogram) -> LatencyQuantiles {
        LatencyQuantiles {
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        }
    }
}

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

/// One dedup decision, in the exact order the ingest thread made it.
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

/// The outcome of each [`outcome_code`].
const OUTCOMES: [DedupOutcome; 3] = [
    DedupOutcome::New,
    DedupOutcome::Duplicate,
    DedupOutcome::Late,
];

/// A thread-safe observability fan-in the daemons can emit into.
pub type SharedObs = Arc<Mutex<dyn obs::ObsSink + Send>>;

/// Decisions a [`DecisionLog`] block holds.
const LOG_BLOCK: usize = 1 << 16;

/// A [`Decision`] as a block keeps it: 12 bytes, with `t_us`'s high
/// word in the block's runs and the outcome in its code bits.
#[derive(Clone, Copy)]
struct Record {
    dev: u32,
    fcnt: u16,
    gw: u16,
    /// `t_us & 0xffff_ffff`.
    t_lo: u32,
}

/// Up to [`LOG_BLOCK`] decisions in 12¼ bytes each: a [`Record`], and
/// two bits of [`outcome_code`]. A block's `t_us` high words are runs:
/// a decision's is the word of the last run that starts at or before
/// it, 0 before the first. Gateway clocks count 32-bit microseconds,
/// so a block has no run at all unless its timestamps are hostile,
/// and a high word that changes on every decision costs 8 more bytes
/// each.
#[derive(Clone)]
struct Block {
    records: Vec<Record>,
    /// Four decisions' codes a byte, the first in the low bits.
    codes: Vec<u8>,
    /// `(first index, t_us >> 32)` where the high word changes.
    runs: Vec<(u32, u32)>,
}

impl Block {
    /// A block whose records and codes never reallocate.
    fn new() -> Block {
        Block {
            records: Vec::with_capacity(LOG_BLOCK),
            codes: Vec::with_capacity(LOG_BLOCK / 4),
            runs: Vec::new(),
        }
    }

    fn push(&mut self, d: &Decision) {
        let i = self.records.len();
        let hi = (d.t_us >> 32) as u32;
        if self.runs.last().map_or(0, |&(_, h)| h) != hi {
            self.runs.push((i as u32, hi));
        }
        if i.is_multiple_of(4) {
            self.codes.push(0);
        }
        self.codes[i / 4] |= outcome_code(d.outcome) << (2 * (i % 4));
        self.records.push(Record {
            dev: d.dev,
            fcnt: d.fcnt,
            gw: d.gw,
            t_lo: d.t_us as u32,
        });
    }

    /// The block's decisions, in the order logged.
    fn decisions(&self) -> impl Iterator<Item = Decision> + '_ {
        let mut runs = self.runs.iter().peekable();
        let mut hi = 0u64;
        self.records.iter().enumerate().map(move |(i, r)| {
            if let Some(&(_, h)) = runs.next_if(|&&(first, _)| first as usize == i) {
                hi = (h as u64) << 32;
            }
            Decision {
                dev: r.dev,
                fcnt: r.fcnt,
                gw: r.gw,
                t_us: hi | r.t_lo as u64,
                outcome: OUTCOMES[((self.codes[i / 4] >> (2 * (i % 4))) & 3) as usize],
            }
        })
    }
}

/// The decisions made, in blocks each allocated once at full size.
/// The log grows without moving what it holds, so the memory it takes
/// is what it stores: a vector that grows by reallocating copies
/// itself, and where the allocator serves that copy from its heap
/// instead of remapping, old and new are resident at once, which moved
/// the daemon's peak RSS by megabytes from run to run.
#[derive(Default, Clone)]
struct DecisionLog {
    /// Full blocks, then the one being filled.
    blocks: Vec<Block>,
}

impl DecisionLog {
    fn len(&self) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * LOG_BLOCK + last.records.len()
        })
    }

    fn extend(&mut self, decisions: &[Decision]) {
        for d in decisions {
            match self.blocks.last_mut() {
                Some(block) if block.records.len() < LOG_BLOCK => block.push(d),
                _ => {
                    let mut block = Block::new();
                    block.push(d);
                    self.blocks.push(block);
                }
            }
        }
    }

    /// Every decision, in the order logged.
    fn decisions(&self) -> impl Iterator<Item = Decision> + '_ {
        self.blocks.iter().flat_map(Block::decisions)
    }
}

/// What the ingest thread leaves for other threads to read: the
/// decision log, how many decisions the log cap kept out, and the
/// dedup records resident.
pub(crate) struct DecisionLogs {
    log: Mutex<DecisionLog>,
    dropped: AtomicU64,
    tracked: AtomicU64,
}

impl DecisionLogs {
    /// Snapshot of the decision log.
    pub(crate) fn decisions(&self) -> Vec<Decision> {
        let log = self.log.lock();
        let mut out = Vec::with_capacity(log.len());
        out.extend(log.decisions());
        out
    }

    /// The decision log in [`render_decisions`]' form, rendered from a
    /// copy of its blocks so that the ingest thread waits only for the
    /// copy.
    pub(crate) fn render(&self) -> Vec<u8> {
        let log = self.log.lock().clone();
        render(log.decisions())
    }

    /// Decisions that were made but not logged because the log hit its
    /// cap.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// (DevAddr, FCnt) records resident as of the last drain — the
    /// bounded-memory invariant tests assert on.
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

/// The deduplicator, owned by the one thread that offers to it.
pub(crate) struct Decider {
    dedup: Deduplicator,
    /// One call's decisions, on their way to `logs`.
    local: Vec<Decision>,
    /// The decision log stops growing at this many entries (the prefix
    /// property keeps replay exact on a truncated log).
    log_cap: usize,
    logs: Arc<DecisionLogs>,
    sink: Option<SharedObs>,
}

impl Decider {
    /// A deduplicator of a `window_us` window, with a decision log of at
    /// most `log_cap` entries.
    pub(crate) fn new(window_us: u64, log_cap: usize, sink: Option<SharedObs>) -> Decider {
        Decider {
            dedup: Deduplicator::new(window_us),
            local: Vec::new(),
            log_cap,
            logs: Arc::new(DecisionLogs {
                log: Mutex::default(),
                dropped: AtomicU64::new(0),
                tracked: AtomicU64::new(0),
            }),
            sink,
        }
    }

    /// The handle other threads read this decider's log through.
    pub(crate) fn logs(&self) -> Arc<DecisionLogs> {
        Arc::clone(&self.logs)
    }

    /// Offer `pkts`, received at `recv`, in order, and log the
    /// decisions: made and logged when the call returns.
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
            let outcome = match sink.as_deref_mut() {
                Some(sink) => self.dedup.offer_obs(copy, sink),
                None => self.dedup.offer(copy),
            };
            match outcome {
                DedupOutcome::New => outcomes.new += 1,
                DedupOutcome::Duplicate => outcomes.duplicate += 1,
                DedupOutcome::Late => outcomes.late += 1,
            }
            self.local.push(Decision {
                dev: p.dev,
                fcnt: p.fcnt,
                gw: p.gw,
                t_us: p.t_us,
                outcome,
            });
        }
        drop(sink);
        outcomes.offered = pkts.len() as u64;
        let mut log = self.logs.log.lock();
        let room = self.log_cap.saturating_sub(log.len()).min(self.local.len());
        log.extend(&self.local[..room]);
        drop(log);
        let over = (self.local.len() - room) as u64;
        self.logs.dropped.fetch_add(over, Ordering::Relaxed);
        self.local.clear();
        let tracked = self.dedup.tracked() as u64;
        self.logs.tracked.store(tracked, Ordering::Relaxed);
        Decided {
            outcomes,
            latency_us: recv.elapsed().as_micros() as u64,
        }
    }
}

/// Serialize a decision log to a canonical byte stream — the "dedup
/// decision stream" the acceptance test compares byte-for-byte against
/// an in-process replay.
pub fn render_decisions(log: &[Decision]) -> Vec<u8> {
    render(log.iter().copied())
}

fn render(decisions: impl Iterator<Item = Decision>) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::new();
    for d in decisions {
        let _ = writeln!(
            out,
            "{:08x},{},{},{},{}",
            d.dev,
            d.fcnt,
            d.gw,
            d.t_us,
            outcome_code(d.outcome)
        );
    }
    out
}

/// Parse [`render_decisions`] output back into a decision log (the
/// `loadgen` binary scrapes `/decisions` and verifies divergence
/// out-of-process). Returns `None` on any malformed line.
pub fn parse_decisions(text: &str) -> Option<Vec<Decision>> {
    text.lines()
        .map(|line| {
            let mut f = line.split(',');
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
            Some(Decision {
                dev,
                fcnt,
                gw,
                t_us,
                outcome,
            })
        })
        .collect()
}

/// Replay a decision log's offer stream through a fresh
/// [`Deduplicator`] and rebuild the log it *should* have produced.
/// SNR is irrelevant to outcomes (it only picks the best copy), so the
/// replay runs with SNR 0 and is still exact.
pub fn replay_decisions(log: &[Decision], window_us: u64) -> Vec<Decision> {
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
}

/// Count decisions whose logged outcome differs from the in-process
/// replay of their log. Zero is the acceptance criterion.
pub fn replay_divergence(logs: &[Vec<Decision>], window_us: u64) -> u64 {
    logs.iter()
        .map(|log| {
            let replayed = replay_decisions(log, window_us);
            log.iter().zip(&replayed).filter(|(x, y)| x != y).count() as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn decisions_are_logged_in_arrival_order_and_replay_exactly() {
        let mut d = Decider::new(1_000_000, 10_000, None);
        let pkts: Vec<PacketIn> = (0..64u32)
            .map(|i| pkt(i % 8, (i / 8) as u16, (i % 3) as u16, i as u64 * 1_000))
            .collect();
        for drain in pkts.chunks(7) {
            let decided = d.decide(drain, Instant::now());
            assert_eq!(decided.outcomes.offered, drain.len() as u64);
        }
        let logs = [d.logs().decisions()];
        let arrived: Vec<(u32, u16, u64)> = pkts.iter().map(|p| (p.dev, p.fcnt, p.t_us)).collect();
        let logged: Vec<(u32, u16, u64)> =
            logs[0].iter().map(|d| (d.dev, d.fcnt, d.t_us)).collect();
        assert_eq!(logged, arrived);
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
        assert_eq!(
            render_decisions(&logs[0]),
            render_decisions(&replay_decisions(&logs[0], 1_000_000)),
            "decision stream must be byte-identical to the replay"
        );
    }

    #[test]
    fn rendered_decisions_parse_back_and_nothing_else_does() {
        let log: Vec<Decision> = [
            DedupOutcome::New,
            DedupOutcome::Duplicate,
            DedupOutcome::Late,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| Decision {
            dev: 0x2601_0000 + i as u32,
            fcnt: 7 * i as u16,
            gw: 3,
            t_us: 1_000_000_000 + i as u64,
            outcome,
        })
        .collect();
        let text = String::from_utf8(render_decisions(&log)).expect("ASCII");
        assert_eq!(text.lines().next(), Some("26010000,0,3,1000000000,0"));
        assert_eq!(parse_decisions(&text), Some(log));
        assert_eq!(parse_decisions(""), Some(Vec::new()));
        // A leading shard column, an unknown outcome, a short line.
        for bad in [
            "0,26010000,0,3,1000000000,0",
            "26010000,0,3,1000000000,3",
            "26010000,0,3",
        ] {
            assert_eq!(parse_decisions(bad), None, "{bad}");
        }
    }

    #[test]
    fn duplicate_and_late_outcomes_are_logged() {
        let sink = Arc::new(Mutex::new(obs::VecSink::new()));
        let mut d = Decider::new(1_000_000, 10_000, Some(sink.clone()));
        let mut registry = Registry::new();
        let mut decide = |pkts: &[PacketIn]| d.decide(pkts, Instant::now()).publish(&mut registry);
        decide(&[pkt(1, 0, 0, 1_000), pkt(1, 0, 1, 2_000)]);
        // Advance the high-water mark a full window, then offer a stale
        // copy of an expired frame.
        decide(&[pkt(2, 0, 0, 3_000_000)]);
        decide(&[pkt(1, 0, 2, 1_500)]);
        let logs = [d.logs().decisions()];
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
        let mut d = Decider::new(1_000_000, 10, None);
        let pkts: Vec<PacketIn> = (0..25u16).map(|i| pkt(7, i, 0, i as u64 * 100)).collect();
        // The cap falls inside the third call's decisions.
        for drain in pkts.chunks(4) {
            d.decide(drain, Instant::now());
        }
        let logs = [d.logs().decisions()];
        assert_eq!(logs[0].len(), 10, "log stops at the cap");
        assert_eq!(d.logs().dropped(), 15);
        // The prefix is still exactly replayable.
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
    }

    /// Where each block's records and codes live.
    fn placement(log: &DecisionLog) -> Vec<(*const Record, *const u8)> {
        (log.blocks.iter())
            .map(|b| (b.records.as_ptr(), b.codes.as_ptr()))
            .collect()
    }

    /// Log `decisions` in parts of the `parts` sizes, taken in turn,
    /// asserting after each that no block moved and every block was
    /// allocated at full size.
    fn log_in_parts(decisions: &[Decision], parts: &[usize]) -> DecisionLog {
        let mut log = DecisionLog::default();
        let mut placed = Vec::new();
        let mut rest = decisions;
        for &n in parts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (part, later) = rest.split_at(n.min(rest.len()));
            log.extend(part);
            rest = later;
            let now = placement(&log);
            assert!(now.starts_with(&placed), "a block moved");
            placed = now;
            assert!(log
                .blocks
                .iter()
                .all(|b| b.records.capacity() == LOG_BLOCK && b.codes.capacity() == LOG_BLOCK / 4));
        }
        log
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
        let log = log_in_parts(&decisions, &[LOG_BLOCK / 3 + 1]);
        assert_eq!(log.len(), decisions.len());
        assert_eq!(log.blocks.len(), 3);
        assert!(
            log.blocks.iter().all(|b| b.runs.is_empty()),
            "32-bit clocks need no run"
        );
        assert!(log.decisions().eq(decisions));
    }

    /// A decision with any `t_us` whose high word is often one of a
    /// few, so that runs both continue and change, also across block
    /// boundaries; any `gw` and any outcome.
    fn any_decision() -> impl Strategy<Value = Decision> {
        let high = (0u8..4, any::<u32>()).prop_map(|(pick, any)| match pick {
            0 => 0,
            1 => 1,
            2 => u32::MAX,
            _ => any,
        });
        (
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            high,
            any::<u32>(),
            0usize..3,
        )
            .prop_map(|(dev, fcnt, gw, high, low, outcome)| Decision {
                dev,
                fcnt,
                gw,
                t_us: (high as u64) << 32 | low as u64,
                outcome: OUTCOMES[outcome],
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        fn the_log_gives_back_every_decision_it_took(
            decisions in collection::vec(any_decision(), 2 * LOG_BLOCK + 1..3 * LOG_BLOCK),
            parts in collection::vec(1usize..LOG_BLOCK, 1..6),
        ) {
            let log = log_in_parts(&decisions, &parts);
            prop_assert_eq!(log.blocks.len(), 3);
            prop_assert_eq!(log.len(), decisions.len());
            prop_assert!(log.decisions().eq(decisions.iter().copied()));
            // A copy decodes alike, and renders as the decisions do.
            let copy = log.clone();
            prop_assert_eq!(render(copy.decisions()), render_decisions(&decisions));
        }
    }

    #[test]
    fn a_log_capped_past_a_block_replays_exactly() {
        // A hostile clock: the high word changes every few packets.
        let cap = LOG_BLOCK + 10;
        let mut d = Decider::new(1_000_000, cap, None);
        let pkts: Vec<PacketIn> = (0..2 * LOG_BLOCK as u64)
            .map(|i| {
                pkt(
                    i as u32 % 97,
                    (i / 97) as u16,
                    (i % 3) as u16,
                    (i / 5) << 32 | i,
                )
            })
            .collect();
        for drain in pkts.chunks(1_000) {
            d.decide(drain, Instant::now());
        }
        let logs = [d.logs().decisions()];
        assert_eq!(logs[0].len(), cap);
        assert_eq!(d.logs().dropped(), (pkts.len() - cap) as u64);
        let logged: Vec<u64> = logs[0].iter().map(|d| d.t_us).collect();
        let sent: Vec<u64> = pkts[..cap].iter().map(|p| p.t_us).collect();
        assert_eq!(logged, sent);
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
        assert_eq!(d.logs().render(), render_decisions(&logs[0]));
    }

    #[test]
    fn registry_sees_latency_histogram() {
        let mut d = Decider::new(1_000_000, 1_000, None);
        let mut reg = Registry::new();
        d.decide(&[pkt(5, 0, 0, 10)], Instant::now())
            .publish(&mut reg);
        assert_eq!(d.logs().tracked(), 1);
        let h = reg.histogram("ingest_latency_us").expect("histogram");
        assert_eq!(h.total(), 1);
        assert_eq!(reg.counter("dedup_new_total"), 1);
    }

    #[test]
    fn quantiles_snapshot() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1u64, 2, 3, 50] {
            h.observe(v);
        }
        let q = LatencyQuantiles::of(&h);
        assert_eq!(q.p50, 10);
        assert_eq!(q.p99, 50);
    }
}
