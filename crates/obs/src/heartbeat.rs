//! Live per-shard heartbeats from streamed runs.
//!
//! The per-shard [`Heartbeat`] frame and the rate-limited JSONL
//! [`HeartbeatWriter`] used by streamed million-node runs
//! (`ALPHAWAN_HEARTBEAT`), viewable live with `tracectl tail`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// One per-shard liveness frame from a streamed run: how far the shard
/// has drained, how much work is queued, and its recent throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Shard index.
    pub shard: u32,
    /// Per-shard beat number (increments per emitted beat).
    pub seq: u64,
    /// Wall milliseconds since the writer was created.
    pub wall_ms: u64,
    /// Transmissions fully retired by this shard so far.
    pub txs: u64,
    /// Events emitted by this shard so far.
    pub events: u64,
    /// Events/sec since this shard's previous beat.
    pub events_per_sec: f64,
    /// Shard-local safe frontier, microseconds of simulation time.
    pub frontier_us: u64,
    /// Scheduled events currently queued in the shard.
    pub queue_depth: u64,
    /// Transmissions currently live (slots in use).
    pub live_slots: u64,
}

struct HbShard {
    seq: u64,
    last_emit: Option<Instant>,
    last_events: u64,
    last_at: Instant,
}

struct HbInner {
    out: std::io::BufWriter<std::fs::File>,
    shards: BTreeMap<u32, HbShard>,
    lines: u64,
}

/// Rate-limited JSONL writer for [`Heartbeat`] frames. Shared across
/// shard threads (`&self` methods, internal mutex); each shard is
/// limited to one line per `interval` of wall time (interval zero
/// emits every beat — used by tests). I/O errors are swallowed after
/// the first: heartbeats are best-effort and must never abort a run.
pub struct HeartbeatWriter {
    inner: Mutex<Option<HbInner>>,
    interval: Duration,
    started: Instant,
}

impl HeartbeatWriter {
    /// Create (append) the JSONL file at `path` with per-shard emit
    /// interval `interval_ms`.
    pub fn create(path: &Path, interval_ms: u64) -> std::io::Result<HeartbeatWriter> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(HeartbeatWriter {
            inner: Mutex::new(Some(HbInner {
                out: std::io::BufWriter::new(file),
                shards: BTreeMap::new(),
                lines: 0,
            })),
            interval: Duration::from_millis(interval_ms),
            started: Instant::now(),
        })
    }

    /// Record one beat for `shard`. Emits a JSONL line if the shard's
    /// rate limit allows; suppressed beats are dropped entirely so
    /// `events_per_sec` always spans the gap between emitted lines.
    #[allow(clippy::too_many_arguments)]
    pub fn beat(
        &self,
        shard: u32,
        txs: u64,
        events: u64,
        frontier_us: u64,
        queue_depth: u64,
        live_slots: u64,
    ) {
        let now = Instant::now();
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let Some(inner) = guard.as_mut() else {
            return;
        };
        let started = self.started;
        let st = inner.shards.entry(shard).or_insert_with(|| HbShard {
            seq: 0,
            last_emit: None,
            last_events: 0,
            last_at: started,
        });
        if let Some(last) = st.last_emit {
            if now.duration_since(last) < self.interval {
                return;
            }
        }
        let dt = now.duration_since(st.last_at).as_secs_f64();
        let rate = if dt > 0.0 {
            (events.saturating_sub(st.last_events)) as f64 / dt
        } else {
            0.0
        };
        let hb = Heartbeat {
            shard,
            seq: st.seq,
            wall_ms: now.duration_since(self.started).as_millis() as u64,
            txs,
            events,
            events_per_sec: rate,
            frontier_us,
            queue_depth,
            live_slots,
        };
        st.seq += 1;
        st.last_emit = Some(now);
        st.last_events = events;
        st.last_at = now;
        let ok = serde_json::to_string(&hb)
            .ok()
            .and_then(|line| writeln!(inner.out, "{line}").ok())
            .is_some();
        if ok {
            inner.lines += 1;
        } else {
            *guard = None; // first I/O error disables the writer
        }
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) {
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(inner) = guard.as_mut() {
            let _ = inner.out.flush();
        }
    }

    /// Lines emitted so far (0 after an I/O error disabled the writer).
    pub fn lines(&self) -> u64 {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.as_ref().map(|i| i.lines).unwrap_or(0)
    }
}

impl Drop for HeartbeatWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_writer_emits_jsonl() {
        let dir = std::env::temp_dir().join(format!("hb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let w = HeartbeatWriter::create(&path, 0).unwrap();
            w.beat(0, 10, 100, 5_000, 3, 2);
            w.beat(1, 20, 200, 6_000, 0, 1);
            w.beat(0, 11, 110, 5_500, 2, 1);
            w.flush();
            assert_eq!(w.lines(), 3);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let beats: Vec<Heartbeat> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(beats.len(), 3);
        assert_eq!(beats[0].shard, 0);
        assert_eq!(beats[0].seq, 0);
        assert_eq!(beats[2].shard, 0);
        assert_eq!(beats[2].seq, 1, "per-shard seq");
        assert_eq!(beats[1].queue_depth, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_rate_limit_suppresses_lines() {
        let dir = std::env::temp_dir().join(format!("hb-rl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = HeartbeatWriter::create(&path, 60_000).unwrap();
        for i in 0..100u64 {
            w.beat(0, i, i * 10, i, 0, 0);
        }
        assert_eq!(w.lines(), 1, "only the first beat within the interval");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hb-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn read_beats(path: &Path) -> Vec<Heartbeat> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    #[test]
    fn heartbeat_create_makes_parent_dirs() {
        let dir = scratch("mkdir");
        let path = dir.join("a/b/hb.jsonl");
        {
            let w = HeartbeatWriter::create(&path, 0).unwrap();
            w.beat(3, 1, 2, 3, 4, 5);
        }
        let beats = read_beats(&path);
        assert_eq!(beats.len(), 1);
        assert_eq!(
            (beats[0].shard, beats[0].frontier_us, beats[0].live_slots),
            (3, 3, 5)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_create_appends_to_an_existing_file() {
        let dir = scratch("append");
        let path = dir.join("hb.jsonl");
        for run in 0..2u64 {
            let w = HeartbeatWriter::create(&path, 0).unwrap();
            w.beat(0, run, run, run, 0, 0);
        }
        let beats = read_beats(&path);
        assert_eq!(beats.len(), 2, "a second writer appends, never truncates");
        // Each writer numbers its shards from zero.
        assert!(beats.iter().all(|b| b.seq == 0));
        assert_eq!(beats[1].txs, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_create_fails_on_a_directory() {
        let dir = scratch("isdir");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(HeartbeatWriter::create(&dir, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_rate_limit_is_per_shard() {
        let dir = scratch("per-shard");
        let path = dir.join("hb.jsonl");
        let w = HeartbeatWriter::create(&path, 60_000).unwrap();
        for i in 0..30u64 {
            w.beat((i % 3) as u32, i, i, i, 0, 0);
        }
        assert_eq!(w.lines(), 3, "one shard's limit never silences another");
        drop(w);
        let shards: Vec<u32> = read_beats(&path).iter().map(|b| b.shard).collect();
        assert_eq!(shards, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_rate_is_zero_without_progress() {
        let dir = scratch("rate");
        let path = dir.join("hb.jsonl");
        {
            let w = HeartbeatWriter::create(&path, 0).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            w.beat(0, 1, 500, 10, 0, 0);
            std::thread::sleep(Duration::from_millis(2));
            w.beat(0, 1, 500, 20, 0, 0); // no new events
            std::thread::sleep(Duration::from_millis(2));
            w.beat(0, 1, 400, 30, 0, 0); // a count that went backwards
        }
        let beats = read_beats(&path);
        assert_eq!(beats.len(), 3);
        assert!(
            beats[0].events_per_sec > 0.0,
            "first beat counts from creation"
        );
        assert_eq!(beats[1].events_per_sec, 0.0);
        assert_eq!(beats[2].events_per_sec, 0.0, "saturates, never negative");
        assert!(beats.windows(2).all(|w| w[0].wall_ms <= w[1].wall_ms));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_writer_is_shared_across_threads() {
        let dir = scratch("threads");
        let path = dir.join("hb.jsonl");
        let w = HeartbeatWriter::create(&path, 0).unwrap();
        std::thread::scope(|s| {
            for shard in 0..4u32 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..25u64 {
                        w.beat(shard, i, i * 10, i, 0, 0);
                    }
                });
            }
        });
        assert_eq!(w.lines(), 100);
        drop(w);
        let beats = read_beats(&path);
        assert_eq!(beats.len(), 100, "no line torn or lost");
        for shard in 0..4u32 {
            let seqs: Vec<u64> = beats
                .iter()
                .filter(|b| b.shard == shard)
                .map(|b| b.seq)
                .collect();
            assert_eq!(seqs, (0..25).collect::<Vec<_>>(), "shard {shard}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_json_field_names_are_stable() {
        let hb = Heartbeat {
            shard: 1,
            seq: 2,
            wall_ms: 3,
            txs: 4,
            events: 5,
            events_per_sec: 6.5,
            frontier_us: 7,
            queue_depth: 8,
            live_slots: 9,
        };
        let line = serde_json::to_string(&hb).unwrap();
        for field in [
            "shard",
            "seq",
            "wall_ms",
            "txs",
            "events",
            "events_per_sec",
            "frontier_us",
            "queue_depth",
            "live_slots",
        ] {
            assert!(line.contains(&format!("\"{field}\"")), "{field} in {line}");
        }
        assert_eq!(serde_json::from_str::<Heartbeat>(&line).unwrap(), hb);
    }
}
