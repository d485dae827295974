//! The sharded service runtime behind `netserverd`.
//!
//! Receiver threads parse datagrams and route each keyed uplink copy to
//! one of N worker shards by `hash(DevAddr)`
//! ([`netserver::dedup::shard_of`]) over **bounded** channels. A worker
//! owns its shard's [`Deduplicator`] outright — no locks on the dedup
//! hot path — and appends every decision to a shard-local log.
//!
//! Backpressure: the router's `send` blocks when a shard's queue is
//! full, which stalls the receiver; further datagrams then queue in the
//! kernel socket buffer and are shed there once it overflows. The
//! daemon's own memory stays bounded by `shards × capacity` in-flight
//! batches (a batch is one receive drain's share, handed over early
//! once 256 packets are staged, so never more) plus the capped
//! decision log — load shedding happens at the kernel boundary, never
//! by unbounded buffering.
//!
//! Correctness contract: because a shard processes its offers in a
//! single thread, replaying any shard's decision log through a fresh
//! [`Deduplicator`] must reproduce the logged outcomes exactly (the
//! `per_shard_replay_is_exact` property in `netserver::dedup`).
//! [`replay_divergence`] performs that replay and
//! [`render_decisions`] serializes both streams so tests can assert
//! byte-identity.

use lora_mac::device::DevAddr;
use netserver::dedup::{shard_of, DedupOutcome, DedupStats, Deduplicator, UplinkCopy};
use obs::Registry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Ingest-latency histogram bounds (µs): socket receive → dedup
/// decision recorded. Loopback ingest takes 10–40 µs a datagram, so the
/// head buckets resolve queue wait building up below saturation; the
/// tail buckets catch scheduling stalls under overload.
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

/// A batch of copies routed to one shard (the copies of one receive
/// drain that hashed to that shard, in arrival order; the receiver
/// caps how many), stamped with the socket receive instant so the
/// worker can measure ingest latency.
#[derive(Debug)]
pub struct Batch {
    /// The copies routed to this shard.
    pub pkts: Vec<PacketIn>,
    /// The instant the carrying drain's receive call returned.
    pub recv: Instant,
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

struct Shard {
    sender: crossbeam::channel::SyncSender<Batch>,
    log: Arc<Mutex<Vec<Decision>>>,
    tracked: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

/// The pool of dedup worker shards.
pub struct ShardPool {
    shards: Vec<Shard>,
    registry: Arc<Mutex<Registry>>,
    log_cap: usize,
    dropped_log: Arc<AtomicU64>,
}

/// Cloneable routing handle handed to receiver threads.
#[derive(Clone)]
pub struct ShardRouter {
    senders: Vec<crossbeam::channel::SyncSender<Batch>>,
}

impl ShardRouter {
    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// The shard a device address routes to.
    pub fn shard_of(&self, dev: u32) -> usize {
        shard_of(DevAddr(dev), self.senders.len())
    }

    /// Route one batch to a shard, blocking when its queue is full
    /// (this is the backpressure point).
    pub fn send(&self, shard: usize, batch: Batch) {
        // A closed channel only happens during shutdown; drop silently.
        let _ = self.senders[shard].send(batch);
    }
}

impl ShardPool {
    /// Spawn `shards` workers with `capacity`-bounded queues and a
    /// `window_us` dedup window. Decision logs stop growing at
    /// `log_cap` entries per shard (the prefix property keeps replay
    /// exact on a truncated log).
    pub fn new(
        shards: usize,
        capacity: usize,
        window_us: u64,
        log_cap: usize,
        registry: Arc<Mutex<Registry>>,
        sink: Option<SharedObs>,
    ) -> ShardPool {
        assert!(shards > 0, "a shard pool needs at least one worker");
        let dropped_log = Arc::new(AtomicU64::new(0));
        let pool: Vec<Shard> = (0..shards)
            .map(|idx| {
                let (sender, receiver) = crossbeam::channel::bounded::<Batch>(capacity);
                let log = Arc::new(Mutex::new(Vec::new()));
                let tracked = Arc::new(AtomicU64::new(0));
                let worker_log = Arc::clone(&log);
                let worker_tracked = Arc::clone(&tracked);
                let worker_registry = Arc::clone(&registry);
                let worker_dropped = Arc::clone(&dropped_log);
                let worker_sink = sink.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("svc-shard-{idx}"))
                    .spawn(move || {
                        shard_worker(
                            receiver,
                            window_us,
                            log_cap,
                            worker_log,
                            worker_tracked,
                            worker_registry,
                            worker_dropped,
                            worker_sink,
                        )
                    })
                    .expect("spawn shard worker");
                Shard {
                    sender,
                    log,
                    tracked,
                    handle,
                }
            })
            .collect();
        ShardPool {
            shards: pool,
            registry,
            log_cap,
            dropped_log,
        }
    }

    /// Shared handles to the per-shard decision logs (for scrape
    /// endpoints that outlive the pool borrow).
    pub fn decision_handles(&self) -> Vec<Arc<Mutex<Vec<Decision>>>> {
        self.shards.iter().map(|s| Arc::clone(&s.log)).collect()
    }

    /// Shared handles to the per-shard resident-record gauges.
    pub fn tracked_handles(&self) -> Vec<Arc<AtomicU64>> {
        self.shards.iter().map(|s| Arc::clone(&s.tracked)).collect()
    }

    /// A routing handle for receiver threads.
    pub fn router(&self) -> ShardRouter {
        ShardRouter {
            senders: self.shards.iter().map(|s| s.sender.clone()).collect(),
        }
    }

    /// Snapshot of every shard's decision log, in shard order.
    pub fn decisions(&self) -> Vec<Vec<Decision>> {
        self.shards.iter().map(|s| s.log.lock().clone()).collect()
    }

    /// Dedup counters summed across shards (read from the registry the
    /// workers increment).
    pub fn dedup_stats(&self) -> DedupStats {
        let r = self.registry.lock();
        let new = r.counter("dedup_new_total");
        let duplicate = r.counter("dedup_duplicate_total");
        let late = r.counter("dedup_late_total");
        DedupStats {
            offered: new + duplicate + late,
            new,
            duplicate,
            late,
        }
    }

    /// Total (DevAddr, FCnt) records currently resident across shards —
    /// the bounded-memory invariant tests assert on.
    pub fn tracked(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.tracked.load(Ordering::Relaxed))
            .sum()
    }

    /// Decisions that were made but not logged because a shard's log
    /// hit its cap.
    pub fn decisions_dropped(&self) -> u64 {
        self.dropped_log.load(Ordering::Relaxed)
    }

    /// The per-shard decision-log cap.
    pub fn log_cap(&self) -> usize {
        self.log_cap
    }

    /// Close the queues and join every worker. Every [`ShardRouter`]
    /// must be dropped first: a live router keeps the channels open and
    /// the workers running.
    pub fn shutdown(self) {
        for s in self.shards {
            drop(s.sender);
            let _ = s.handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_worker(
    receiver: crossbeam::channel::Receiver<Batch>,
    window_us: u64,
    log_cap: usize,
    log: Arc<Mutex<Vec<Decision>>>,
    tracked: Arc<AtomicU64>,
    registry: Arc<Mutex<Registry>>,
    dropped_log: Arc<AtomicU64>,
    sink: Option<SharedObs>,
) {
    let mut dedup = Deduplicator::new(window_us);
    let mut local: Vec<Decision> = Vec::with_capacity(128);
    while let Ok(batch) = receiver.recv() {
        let _sp = obs::span::enter(obs::span::SpanId::SvcBatch);
        let (mut new, mut dup, mut late) = (0u64, 0u64, 0u64);
        // Sampled once per batch: a sink switched mid-batch is seen
        // from the next one.
        let traced = sink.as_ref().filter(|s| s.lock().enabled());
        for p in &batch.pkts {
            let copy = UplinkCopy {
                dev_addr: DevAddr(p.dev),
                fcnt: p.fcnt,
                gw_id: p.gw as usize,
                snr_db: p.snr_db as f64,
                received_us: p.t_us,
                trace: p.trace,
            };
            let outcome = match traced {
                Some(s) => dedup.offer_obs(copy, &mut *s.lock()),
                None => dedup.offer(copy),
            };
            match outcome {
                DedupOutcome::New => new += 1,
                DedupOutcome::Duplicate => dup += 1,
                DedupOutcome::Late => late += 1,
            }
            local.push(Decision {
                dev: p.dev,
                fcnt: p.fcnt,
                gw: p.gw,
                t_us: p.t_us,
                outcome,
            });
        }
        let latency_us = batch.recv.elapsed().as_micros() as u64;
        {
            let mut l = log.lock();
            let room = log_cap.saturating_sub(l.len());
            if room >= local.len() {
                l.extend_from_slice(&local);
            } else {
                l.extend_from_slice(&local[..room]);
                dropped_log.fetch_add((local.len() - room) as u64, Ordering::Relaxed);
            }
        }
        local.clear();
        tracked.store(dedup.tracked() as u64, Ordering::Relaxed);
        let mut r = registry.lock();
        r.inc("dedup_new_total", new);
        r.inc("dedup_duplicate_total", dup);
        r.inc("dedup_late_total", late);
        r.observe("ingest_latency_us", &INGEST_LATENCY_BOUNDS_US, latency_us);
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

    fn pool(shards: usize) -> (ShardPool, ShardRouter) {
        let registry = Arc::new(Mutex::new(Registry::new()));
        let p = ShardPool::new(shards, 8, 1_000_000, 10_000, registry, None);
        let r = p.router();
        (p, r)
    }

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

    fn drain(p: &ShardPool, want: u64) {
        for _ in 0..200 {
            if p.dedup_stats().offered >= want {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("workers never processed {want} offers");
    }

    #[test]
    fn decisions_route_by_hash_and_replay_exactly() {
        let (p, r) = pool(4);
        for i in 0..64u32 {
            let dev = i % 8;
            let shard = r.shard_of(dev);
            r.send(
                shard,
                Batch {
                    pkts: vec![pkt(dev, (i / 8) as u16, (i % 3) as u16, i as u64 * 1_000)],
                    recv: Instant::now(),
                },
            );
        }
        drain(&p, 64);
        let logs = p.decisions();
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
        drop(r);
        p.shutdown();
    }

    #[test]
    fn duplicate_and_late_outcomes_are_logged() {
        let (p, r) = pool(1);
        let batch = |pkts| Batch {
            pkts,
            recv: Instant::now(),
        };
        r.send(0, batch(vec![pkt(1, 0, 0, 1_000), pkt(1, 0, 1, 2_000)]));
        // Advance the high-water mark a full window, then offer a stale
        // copy of an expired frame.
        r.send(0, batch(vec![pkt(2, 0, 0, 3_000_000)]));
        r.send(0, batch(vec![pkt(1, 0, 2, 1_500)]));
        drain(&p, 4);
        let logs = p.decisions();
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
        let stats = p.dedup_stats();
        assert_eq!((stats.new, stats.duplicate, stats.late), (2, 1, 1));
        drop(r);
        p.shutdown();
    }

    #[test]
    fn log_cap_keeps_a_replayable_prefix() {
        let registry = Arc::new(Mutex::new(Registry::new()));
        let p = ShardPool::new(1, 8, 1_000_000, 10, Arc::clone(&registry), None);
        let r = p.router();
        for i in 0..25u16 {
            r.send(
                0,
                Batch {
                    pkts: vec![pkt(7, i, 0, i as u64 * 100)],
                    recv: Instant::now(),
                },
            );
        }
        drain(&p, 25);
        let logs = p.decisions();
        assert_eq!(logs[0].len(), 10, "log stops at the cap");
        assert_eq!(p.decisions_dropped(), 15);
        // The prefix is still exactly replayable.
        assert_eq!(replay_divergence(&logs, 1_000_000), 0);
        drop(r);
        p.shutdown();
    }

    #[test]
    fn registry_sees_latency_histogram() {
        let registry = Arc::new(Mutex::new(Registry::new()));
        let p = ShardPool::new(2, 8, 1_000_000, 1_000, Arc::clone(&registry), None);
        let r = p.router();
        r.send(
            r.shard_of(5),
            Batch {
                pkts: vec![pkt(5, 0, 0, 10)],
                recv: Instant::now(),
            },
        );
        drain(&p, 1);
        drop(r);
        p.shutdown();
        let reg = registry.lock();
        let h = reg.histogram("ingest_latency_us").expect("histogram");
        assert_eq!(h.total(), 1);
        assert_eq!(reg.counter("dedup_new_total"), 1);
    }
}
