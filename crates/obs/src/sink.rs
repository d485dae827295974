//! Event sinks: where [`ObsEvent`]s go.
//!
//! The contract is built for the simulation hot path: call sites guard
//! event construction behind [`ObsSink::enabled`], so an instrumented
//! run with a [`NullSink`] pays one predictable branch per potential
//! event and allocates nothing.
//!
//! Sinks are deliberately single-threaded (`&mut self`); the simulator
//! is deterministic and sequential, and keeping sinks lock-free is part
//! of keeping them free. Share one across owners with [`SharedSink`].

use crate::event::ObsEvent;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// A destination for observability events.
pub trait ObsSink {
    /// Whether this sink wants events at all. Call sites use this to
    /// skip event construction entirely; `false` makes instrumentation
    /// free.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Implementations must be deterministic: the
    /// same event sequence must produce the same observable state
    /// (buffer contents, bytes on disk) on every run.
    fn record(&mut self, ev: &ObsEvent);

    /// Flush any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// The do-nothing sink: reports itself disabled so instrumented call
/// sites skip event construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &ObsEvent) {}
}

/// An unbounded in-memory sink: keeps every event, in order. The
/// natural capture buffer for feeding a
/// [`TraceAnalyzer`](crate::trace::TraceAnalyzer) after a run.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<ObsEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// All recorded events, oldest first.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl ObsSink for VecSink {
    fn record(&mut self, ev: &ObsEvent) {
        self.events.push(*ev);
    }
}

/// A file sink writing one JSON object per line (JSONL). Output is
/// buffered; [`ObsSink::flush`] or drop forces it to disk.
///
/// The byte stream is a pure function of the event sequence — no
/// timestamps of its own, no map iteration — so two same-seed runs
/// produce byte-identical files (asserted by the workspace's
/// `obs_determinism` integration test).
///
/// [`JsonlSink::create_atomic`] opens the file at `<path>.partial` and
/// renames it to the final path on [`JsonlSink::seal`] (or drop): a
/// crashed or aborted run leaves only the clearly-marked partial file,
/// never a truncated artifact at the real path. Sealing keeps the file
/// handle — on POSIX the rename moves the inode, so writes after the
/// seal still land in the final file.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    written: u64,
    /// `Some((partial, final))` until sealed.
    pending_rename: Option<(std::path::PathBuf, std::path::PathBuf)>,
}

/// Suffix appended to a not-yet-sealed atomic file.
pub const PARTIAL_SUFFIX: &str = ".partial";

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            written: 0,
            pending_rename: None,
        })
    }

    /// Create the file at `<path>.partial`; it moves to `path` on the
    /// first [`JsonlSink::seal`] (or on drop). See the type docs.
    pub fn create_atomic(path: &Path) -> std::io::Result<JsonlSink> {
        let mut partial = path.as_os_str().to_owned();
        partial.push(PARTIAL_SUFFIX);
        let partial = std::path::PathBuf::from(partial);
        let mut sink = JsonlSink::create(&partial)?;
        sink.pending_rename = Some((partial, path.to_path_buf()));
        Ok(sink)
    }

    /// Flush and atomically move the `.partial` file to its final path.
    /// Idempotent; a no-op for sinks opened with [`JsonlSink::create`].
    /// Returns whether the file now exists at its final path.
    pub fn seal(&mut self) -> bool {
        let _ = self.out.flush();
        match self.pending_rename.take() {
            None => true,
            Some((partial, final_path)) => match std::fs::rename(&partial, &final_path) {
                Ok(()) => true,
                Err(_) => {
                    self.pending_rename = Some((partial, final_path));
                    false
                }
            },
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl ObsSink for JsonlSink {
    fn record(&mut self, ev: &ObsEvent) {
        // Serialization of a Copy event cannot fail; file trouble is
        // surfaced on flush/drop, not per event.
        if let Ok(line) = serde_json::to_string(ev) {
            let _ = self.out.write_all(line.as_bytes());
            let _ = self.out.write_all(b"\n");
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.seal();
    }
}

/// A shared handle to a sink, so the producer (e.g. a `SimWorld`
/// holding a boxed sink) and the consumer (the harness reading metrics
/// back out) can both reach it. Single-threaded by design, like every
/// sink.
#[derive(Debug)]
pub struct SharedSink<S: ObsSink>(Rc<RefCell<S>>);

impl<S: ObsSink> SharedSink<S> {
    /// Wrap `sink` for shared access.
    pub fn new(sink: S) -> SharedSink<S> {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// A second handle to the same sink.
    pub fn handle(&self) -> SharedSink<S> {
        SharedSink(Rc::clone(&self.0))
    }

    /// Run `f` with shared (read) access to the sink.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.borrow())
    }
}

impl<S: ObsSink> Clone for SharedSink<S> {
    fn clone(&self) -> SharedSink<S> {
        self.handle()
    }
}

impl<S: ObsSink> ObsSink for SharedSink<S> {
    fn enabled(&self) -> bool {
        self.0.borrow().enabled()
    }

    fn record(&mut self, ev: &ObsEvent) {
        self.0.borrow_mut().record(ev);
    }

    fn flush(&mut self) {
        self.0.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> ObsEvent {
        ObsEvent::PacketLockOn {
            t_us: t,
            trace: 0,
            tx: t,
            node: 0,
            network: 1,
        }
    }

    #[test]
    fn null_sink_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(&ev(1)); // harmless
    }

    #[test]
    fn vec_sink_keeps_everything_in_order() {
        let mut v = VecSink::new();
        assert!(v.is_empty());
        for t in 0..5 {
            v.record(&ev(t));
        }
        assert_eq!(v.len(), 5);
        let ts: Vec<u64> = v.events().iter().map(|e| e.t_us().unwrap()).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shared_sink_handles_see_same_buffer() {
        let shared = SharedSink::new(VecSink::new());
        let mut producer: SharedSink<VecSink> = shared.handle();
        producer.record(&ev(9));
        assert_eq!(shared.with(|v| v.len()), 1);
        shared.handle().record(&ev(10));
        assert_eq!(producer.with(|v| v.len()), 2);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("obs_sink_test");
        let path = dir.join("events.jsonl");
        {
            let mut s = JsonlSink::create(&path).unwrap();
            s.record(&ev(1));
            s.record(&ev(2));
            assert_eq!(s.written(), 2);
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{')));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_sink_lives_at_partial_until_sealed() {
        let dir = std::env::temp_dir().join("obs_sink_atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let mut s = JsonlSink::create_atomic(&path).unwrap();
        s.record(&ev(1));
        s.flush();
        assert!(!path.exists(), "final path must not exist before seal");
        assert!(dir.join("events.jsonl.partial").exists());
        assert!(s.seal());
        assert!(path.exists());
        assert!(!dir.join("events.jsonl.partial").exists());
        // Post-seal writes land in the renamed file (same inode).
        s.record(&ev(2));
        s.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_sink_seals_on_drop() {
        let dir = std::env::temp_dir().join("obs_sink_atomic_drop");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        {
            let mut s = JsonlSink::create_atomic(&path).unwrap();
            s.record(&ev(7));
        }
        assert!(path.exists(), "drop seals");
        assert!(!dir.join("events.jsonl.partial").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_lines_parse_back_to_the_events() {
        let dir = std::env::temp_dir().join(format!("obs_sink_parse_{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let events = [
            ev(3),
            ObsEvent::DecoderReleased {
                t_us: 9,
                trace: 4,
                gw: 2,
                tx: 3,
                in_use: 0,
            },
        ];
        {
            let mut s = JsonlSink::create(&path).unwrap();
            for e in &events {
                s.record(e);
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<ObsEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses as an event"))
            .collect();
        assert_eq!(back, events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_bytes_depend_only_on_the_events() {
        let dir = std::env::temp_dir().join(format!("obs_sink_bytes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let write = |name: &str, atomic: bool| {
            let path = dir.join(name);
            let mut s = if atomic {
                JsonlSink::create_atomic(&path).unwrap()
            } else {
                JsonlSink::create(&path).unwrap()
            };
            for t in 0..4 {
                s.record(&ev(t));
            }
            drop(s);
            std::fs::read(&path).unwrap()
        };
        let plain = write("a.jsonl", false);
        assert_eq!(plain, write("b.jsonl", false));
        assert_eq!(
            plain,
            write("c.jsonl", true),
            "atomic sinks write the same bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_create_makes_missing_directories() {
        let dir = std::env::temp_dir().join(format!("obs_sink_mkdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a/b/events.jsonl");
        JsonlSink::create(&path).unwrap().record(&ev(1));
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_create_truncates_a_stale_partial() {
        let dir = std::env::temp_dir().join(format!("obs_sink_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed run left its partial file behind.
        std::fs::write(dir.join("events.jsonl.partial"), "{}\n{}\n{}\n").unwrap();
        {
            let mut s = JsonlSink::create_atomic(&path).unwrap();
            s.record(&ev(5));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "stale lines leaked: {text}");
        assert!(!dir.join("events.jsonl.partial").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_sink_reports_the_inner_sink_enabled() {
        assert!(!SharedSink::new(NullSink).enabled());
        let shared = SharedSink::new(VecSink::new());
        assert!(shared.enabled());
        assert!(shared.handle().enabled(), "every handle agrees");
    }

    #[test]
    fn shared_sink_flush_reaches_the_file() {
        let dir = std::env::temp_dir().join(format!("obs_sink_shared_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let shared = SharedSink::new(JsonlSink::create(&path).unwrap());
        let mut producer = shared.clone();
        producer.record(&ev(1));
        producer.record(&ev(2));
        producer.flush();
        // The file holds both lines while every handle is still alive.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(shared.with(|s| s.written()), 2);
        drop((shared, producer));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_jsonl_create_truncates_and_is_born_sealed() {
        let dir = std::env::temp_dir().join(format!("obs_sink_trunc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        for t in 0..2 {
            let mut s = JsonlSink::create(&path).unwrap();
            assert!(path.exists(), "a plain sink opens at its final path");
            s.record(&ev(t));
            assert!(s.seal(), "sealing a plain sink is a flush");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "create truncates: {text}");
        assert!(!dir.join("events.jsonl.partial").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
