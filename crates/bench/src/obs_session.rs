//! Opt-in observability session for experiment binaries.
//!
//! Pass `--obs-out <DIR>` to `all_experiments` and every
//! [`SimWorld`](sim::world::SimWorld) built through
//! [`WorldBuilder::build`](crate::scenario::WorldBuilder::build) streams
//! its [`obs::ObsEvent`]s to `<DIR>/<bin>.events.jsonl` (one file per
//! process, appended across runs in that process). `tracectl` reads it.
//!
//! The stream is a sequence of *segments*, numbered in the order they
//! are recorded: each world sink [`world_sink`] hands out, and each
//! sweep batch [`replay_events`] replays. Every world numbers its runs
//! from epoch 0, so two worlds mint the same packet trace ids; the
//! session re-mints each packet trace from its segment number, and the
//! appended stream keeps one timeline per transmission. Control-plane
//! traces keep their ids.
//!
//! Without the flag the session never initializes: `world_sink()`
//! returns `None`, no sink is attached, and experiments run on the
//! plain (unobserved) path at zero cost. See `docs/OBSERVABILITY.md`
//! for the event taxonomy.

use obs::{JsonlSink, ObsEvent, ObsSink};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

struct Session {
    jsonl: JsonlSink,
    /// Segments handed out so far.
    segments: u64,
}

impl Session {
    fn next_segment(&mut self) -> u64 {
        self.segments += 1;
        self.segments - 1
    }
}

static SESSION: OnceLock<Option<Mutex<Session>>> = OnceLock::new();

/// `--obs-out <DIR>` / `--obs-out=<DIR>` from the process arguments.
fn obs_dir() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--obs-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(v) = a.strip_prefix("--obs-out=") {
            return Some(PathBuf::from(v));
        }
    }
    None
}

fn session() -> Option<&'static Mutex<Session>> {
    SESSION
        .get_or_init(|| {
            let dir = obs_dir()?;
            let bin = std::env::args()
                .next()
                .map(PathBuf::from)
                .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
                .unwrap_or_else(|| "experiment".to_string());
            // Atomic mode: the stream grows at `<name>.partial` and is
            // renamed into place on the first flush, so readers polling
            // the directory never see a torn event file.
            let jsonl = JsonlSink::create_atomic(&dir.join(format!("{bin}.events.jsonl"))).ok()?;
            Some(Mutex::new(Session { jsonl, segments: 0 }))
        })
        .as_ref()
}

fn lock(m: &Mutex<Session>) -> MutexGuard<'_, Session> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether this process was started with an observability directory.
pub fn active() -> bool {
    session().is_some()
}

/// `ev` as segment `segment` of the stream records it: a packet trace
/// is re-minted from the segment and the world's own id.
pub(crate) fn in_segment(mut ev: ObsEvent, segment: u64) -> ObsEvent {
    if let Some(trace) = ev.trace_mut() {
        if *trace != 0 && !obs::trace::is_control(*trace) {
            *trace = obs::packet_trace(segment, *trace);
        }
    }
    ev
}

/// A sink handle for a simulation world — `Some` only when the session
/// is active, so the unobserved hot path stays untouched by default.
/// Each handle is a segment of its own.
pub fn world_sink() -> Option<Box<dyn ObsSink>> {
    let segment = lock(session()?).next_segment();
    Some(Box::new(SegmentSink { segment }))
}

/// Replay a batch of buffered events into the session stream as one
/// segment, in slice order. Parallel sweeps record each job's events
/// into a thread-local buffer and replay the buffers in deterministic
/// job order after the merge, so the session stream stays byte-identical
/// to a serial run at any worker count. No-op when inactive.
pub fn replay_events(events: &[ObsEvent]) {
    if let Some(m) = session() {
        let mut s = lock(m);
        let segment = s.next_segment();
        for ev in events {
            s.jsonl.record(&in_segment(*ev, segment));
        }
        s.jsonl.seal();
    }
}

/// Forwards one segment to the process-wide session; handed to every
/// built [`SimWorld`](sim::world::SimWorld) while the session is active.
/// Flushed at the latest when dropped: the session itself lives in a
/// static, which is never dropped.
struct SegmentSink {
    segment: u64,
}

impl ObsSink for SegmentSink {
    fn enabled(&self) -> bool {
        session().is_some()
    }

    fn record(&mut self, ev: &ObsEvent) {
        if let Some(m) = session() {
            lock(m).jsonl.record(&in_segment(*ev, self.segment));
        }
    }

    /// Flushes the stream; the first flush also renames it out of its
    /// `.partial` name. The handle stays open (same inode), so later
    /// events keep appending to the final path.
    fn flush(&mut self) {
        if let Some(m) = session() {
            lock(m).jsonl.seal();
        }
    }
}

impl Drop for SegmentSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{packet_trace, TraceAnalyzer};

    fn lifecycle(trace: u64) -> Vec<ObsEvent> {
        vec![
            ObsEvent::TxStart {
                t_us: 0,
                trace,
                tx: 0,
                node: 0,
                network: 1,
            },
            ObsEvent::PacketLockOn {
                t_us: 10,
                trace,
                tx: 0,
                node: 0,
                network: 1,
            },
            ObsEvent::PacketOutcome {
                t_us: 100,
                trace,
                tx: 0,
                delivered: true,
                cause: None,
            },
        ]
    }

    #[test]
    fn segments_keep_two_worlds_packets_apart() {
        // Two worlds' first runs mint the same id for their tx 0.
        let world = lifecycle(packet_trace(0, 0));
        let appended = |remint: bool| {
            let mut an = TraceAnalyzer::new();
            for segment in 0..2 {
                for &ev in &world {
                    an.observe(&if remint { in_segment(ev, segment) } else { ev });
                }
            }
            an.into_report()
        };
        let merged = appended(false);
        assert_eq!(merged.timelines.len(), 1);
        assert!(!merged.violations.is_empty(), "the analyzer sees the reuse");
        let apart = appended(true);
        assert_eq!(apart.timelines.len(), 2);
        assert!(apart.violations.is_empty(), "{:?}", apart.violations);
    }

    #[test]
    fn untraced_and_control_traces_keep_their_ids() {
        let control = obs::control_trace(7, 0);
        for trace in [0, control] {
            let ev = ObsEvent::MasterRpcRetry {
                trace,
                reconnects: 1,
            };
            assert_eq!(in_segment(ev, 3), ev);
        }
        let info = ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 16,
        };
        assert_eq!(in_segment(info, 3), info);
        let packet = lifecycle(packet_trace(0, 5))[0];
        assert_ne!(in_segment(packet, 0), packet);
        assert_ne!(in_segment(packet, 0), in_segment(packet, 1));
        assert_eq!(in_segment(packet, 1), in_segment(packet, 1));
    }
}
