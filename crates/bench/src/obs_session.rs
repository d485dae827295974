//! Opt-in observability session for experiment binaries.
//!
//! Pass `--obs-out <DIR>` to `all_experiments` and the harness
//! switches on event capture for the whole process:
//!
//! * every [`SimWorld`](sim::world::SimWorld) built through
//!   [`WorldBuilder::build`](crate::scenario::WorldBuilder::build)
//!   streams its [`obs::ObsEvent`]s to `<DIR>/<bin>.events.jsonl`
//!   (one file per process, appended across runs in that process);
//! * the same stream feeds an in-process [`obs::MetricsSink`];
//! * every [`Table::emit`](crate::report::Table::emit) writes a
//!   versioned [`obs::RunReport`] to `<DIR>/<csv_name>.obs.json`,
//!   folding in any [`sim::metrics::RunMetrics`] the experiment noted
//!   via [`note_run_metrics`] since the previous report.
//!
//! Without the flag the session never initializes: `world_sink()`
//! returns `None`, no sink is attached, and experiments run on the
//! plain (unobserved) path at zero cost. See `docs/OBSERVABILITY.md`
//! for the event taxonomy and report schema.

use obs::{JsonlSink, MetricsSink, ObsEvent, ObsSink, RunReport};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

struct Session {
    dir: PathBuf,
    jsonl: JsonlSink,
    metrics: MetricsSink,
    run_metrics: Option<serde::Value>,
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
            // renamed into place on the first report/seal, so readers
            // polling the directory never see a torn event file.
            let jsonl = JsonlSink::create_atomic(&dir.join(format!("{bin}.events.jsonl"))).ok()?;
            Some(Mutex::new(Session {
                dir,
                jsonl,
                metrics: MetricsSink::new(),
                run_metrics: None,
            }))
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

/// A sink handle for a simulation world — `Some` only when the session
/// is active, so the unobserved hot path stays untouched by default.
pub fn world_sink() -> Option<Box<dyn ObsSink>> {
    session().map(|_| Box::new(GlobalSink) as Box<dyn ObsSink>)
}

/// Replay a batch of buffered events into the session stream (JSONL +
/// metrics), in slice order. Parallel sweeps record each job's events
/// into a thread-local buffer and replay the buffers in deterministic
/// job order after the merge, so the session stream stays byte-identical
/// to a serial run at any worker count. No-op when inactive.
pub fn replay_events(events: &[ObsEvent]) {
    if let Some(m) = session() {
        let mut s = lock(m);
        for ev in events {
            s.jsonl.record(ev);
            s.metrics.record(ev);
        }
    }
}

/// Fold an experiment's aggregate metrics (typically
/// [`sim::metrics::RunMetrics`]) into the next report written by
/// [`Table::emit`](crate::report::Table::emit). No-op when inactive.
pub fn note_run_metrics<T: Serialize>(metrics: &T) {
    if let Some(m) = session() {
        lock(m).run_metrics = Some(metrics.to_value());
    }
}

/// Write `<DIR>/<name>.obs.json` from the session's accumulated
/// metrics (called by [`Table::emit`](crate::report::Table::emit)).
/// Best effort, like CSV output — experiments never fail over
/// filesystem trouble.
pub(crate) fn write_report(name: &str) {
    let Some(m) = session() else { return };
    let mut s = lock(m);
    s.jsonl.flush();
    // First report marks the stream consistent: rename it out of its
    // `.partial` name. The handle stays open (same inode), so later
    // events keep appending to the final path.
    s.jsonl.seal();
    let mut report = RunReport::from_metrics(name, &s.metrics);
    report.run_metrics = s.run_metrics.take();
    let _ = report.write(&s.dir.join(format!("{name}.obs.json")));
}

/// Forwards to the process-wide session; handed to every built
/// [`SimWorld`](sim::world::SimWorld) while the session is active.
struct GlobalSink;

impl ObsSink for GlobalSink {
    fn enabled(&self) -> bool {
        session().is_some()
    }

    fn record(&mut self, ev: &ObsEvent) {
        if let Some(m) = session() {
            let mut s = lock(m);
            s.jsonl.record(ev);
            s.metrics.record(ev);
        }
    }

    fn flush(&mut self) {
        if let Some(m) = session() {
            lock(m).jsonl.flush();
        }
    }
}
