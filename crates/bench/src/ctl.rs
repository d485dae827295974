//! Shared machinery for the `benchctl` and `tracectl` binaries.
//!
//! * A committed perf **baseline** (`BENCH_baseline.json` at the
//!   workspace root): a list of floor/ceiling checks addressed into
//!   the `BENCH_*.json` artifacts by path expressions. `benchctl
//!   check` evaluates them and exits nonzero on any violation, which
//!   is how CI gates perf regressions without flaking on absolute
//!   wall-clock numbers.
//! * The plain-text heartbeat table behind `tracectl tail`.
//!
//! Path expressions are dot-separated field names; a segment may carry
//! one `[...]` suffix — `[3]` indexes an array, `[key=value]` selects
//! the first array element whose `key` field renders as `value`
//! (numbers compare by their canonical rendering, so `workers=1`
//! matches `1`). Example:
//! `scales[mode=streamed].sharded_events_per_sec`.

use obs::Heartbeat;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// Schema version of [`BaselineDoc`].
pub const BASELINE_SCHEMA_VERSION: u32 = 1;

/// One floor/ceiling check against one artifact value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineCheck {
    /// Artifact file name (e.g. `BENCH_sim.json`), resolved relative
    /// to the directory `benchctl check --dir` points at.
    pub artifact: String,
    /// Path expression addressing a numeric value in the artifact.
    pub path: String,
    /// Inclusive floor: values below it fail the check.
    #[serde(default)]
    pub min: Option<f64>,
    /// Inclusive ceiling: values above it fail the check.
    #[serde(default)]
    pub max: Option<f64>,
    /// Skip (rather than fail) when the path does not resolve in the
    /// artifact — for scale points only the full bench emits (quick
    /// CI artifacts carry a subset). Band violations still fail; only
    /// a value that is absent entirely is skipped, so use this for
    /// checks whose *point* is optional, never to paper over typos.
    #[serde(default)]
    pub skip_if_absent: bool,
}

/// The committed baseline document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineDoc {
    /// Schema version ([`BASELINE_SCHEMA_VERSION`]).
    pub version: u32,
    /// Checks, evaluated in order.
    pub checks: Vec<BaselineCheck>,
}

/// The result of evaluating one [`BaselineCheck`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The check that produced this outcome.
    pub check: BaselineCheck,
    /// The value the path resolved to, when it resolved.
    pub value: Option<f64>,
    /// Why the check failed; `None` means it passed.
    pub error: Option<String>,
}

impl CheckOutcome {
    /// Whether the check passed.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Canonical rendering used for `[key=value]` selector comparison.
fn render_scalar(v: &Value) -> Option<String> {
    match v {
        Value::Bool(b) => Some(b.to_string()),
        Value::U64(n) => Some(n.to_string()),
        Value::I64(n) => Some(n.to_string()),
        Value::F64(f) => Some(format!("{f}")),
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(f) => Some(f),
        Value::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Resolve a path expression (see module docs) to a number.
pub fn lookup(root: &Value, path: &str) -> Result<f64, String> {
    let mut cur = root;
    for seg in path.split('.') {
        let (name, select) = match seg.find('[') {
            Some(open) => {
                let close = seg
                    .rfind(']')
                    .ok_or_else(|| format!("unclosed '[' in segment {seg:?}"))?;
                (&seg[..open], Some(&seg[open + 1..close]))
            }
            None => (seg, None),
        };
        if !name.is_empty() {
            let obj = cur
                .as_object()
                .ok_or_else(|| format!("{name:?}: not an object"))?;
            cur = serde::field(obj, name);
            if cur.is_null() {
                return Err(format!("no field {name:?}"));
            }
        }
        if let Some(sel) = select {
            let items = cur
                .as_array()
                .ok_or_else(|| format!("{name:?}: not an array"))?;
            cur = match sel.split_once('=') {
                Some((key, want)) => items
                    .iter()
                    .find(|item| {
                        item.as_object().is_some_and(|obj| {
                            render_scalar(serde::field(obj, key)).as_deref() == Some(want)
                        })
                    })
                    .ok_or_else(|| format!("no element with {key}={want} in {name:?}"))?,
                None => {
                    let idx: usize = sel
                        .parse()
                        .map_err(|_| format!("bad index {sel:?} in segment {seg:?}"))?;
                    items
                        .get(idx)
                        .ok_or_else(|| format!("index {idx} out of range in {name:?}"))?
                }
            };
        }
    }
    as_number(cur).ok_or_else(|| format!("{path:?} is not a number"))
}

/// Evaluate one check against a parsed artifact.
pub fn evaluate(check: &BaselineCheck, artifact: &Value) -> CheckOutcome {
    match lookup(artifact, &check.path) {
        Err(e) => CheckOutcome {
            check: check.clone(),
            value: None,
            error: Some(e),
        },
        Ok(value) => {
            let mut error = None;
            if let Some(min) = check.min {
                if value < min {
                    error = Some(format!("{value} < floor {min}"));
                }
            }
            if error.is_none() {
                if let Some(max) = check.max {
                    if value > max {
                        error = Some(format!("{value} > ceiling {max}"));
                    }
                }
            }
            CheckOutcome {
                check: check.clone(),
                value: Some(value),
                error,
            }
        }
    }
}

/// Run a whole baseline against the artifacts in `dir`. With
/// `allow_missing`, checks whose artifact file does not exist are
/// skipped (CI jobs produce different artifact subsets); otherwise a
/// missing artifact fails its checks.
pub fn check_baseline(
    baseline: &BaselineDoc,
    dir: &Path,
    allow_missing: bool,
) -> Vec<CheckOutcome> {
    /// Per-artifact load result, cached so each file is read once.
    #[derive(Clone)]
    enum Loaded {
        Parsed(Value),
        /// The file does not exist at the expected path.
        Missing(String),
        /// The file exists but is not valid JSON.
        Unparseable(String),
    }
    let mut out = Vec::new();
    let mut cache: Vec<(String, Loaded)> = Vec::new();
    for check in &baseline.checks {
        let loaded = match cache.iter().find(|(n, _)| *n == check.artifact) {
            Some((_, v)) => v.clone(),
            None => {
                let path = dir.join(&check.artifact);
                let v = match std::fs::read_to_string(&path) {
                    Err(_) if !path.exists() => Loaded::Missing(format!(
                        "artifact {} not found (expected {}; run the bench \
                         that writes it or pass --allow-missing)",
                        check.artifact,
                        path.display()
                    )),
                    Err(e) => Loaded::Unparseable(format!("{}: {e}", path.display())),
                    Ok(text) => match serde_json::from_str::<Value>(&text) {
                        Ok(value) => Loaded::Parsed(value),
                        Err(e) => {
                            Loaded::Unparseable(format!("{}: invalid JSON: {e}", path.display()))
                        }
                    },
                };
                cache.push((check.artifact.clone(), v.clone()));
                v
            }
        };
        match loaded {
            Loaded::Parsed(artifact) => {
                let outcome = evaluate(check, &artifact);
                // A lookup failure leaves `value` unset; a band
                // violation carries the resolved value. Only the
                // former is skippable.
                if outcome.value.is_none() && check.skip_if_absent {
                    continue;
                }
                out.push(outcome);
            }
            Loaded::Missing(_) if allow_missing => {}
            Loaded::Missing(msg) | Loaded::Unparseable(msg) => out.push(CheckOutcome {
                check: check.clone(),
                value: None,
                error: Some(msg),
            }),
        }
    }
    out
}

/// Render check outcomes as an aligned table; returns `(text, ok)`.
pub fn render_outcomes(outcomes: &[CheckOutcome]) -> (String, bool) {
    let mut text = String::new();
    let mut ok = true;
    for o in outcomes {
        let band = match (o.check.min, o.check.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "(recorded)".to_string(),
        };
        let value = o
            .value
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".to_string());
        let status = match &o.error {
            None => "ok".to_string(),
            Some(e) => {
                ok = false;
                format!("FAIL: {e}")
            }
        };
        text.push_str(&format!(
            "{:<4} {:<18} {:<52} {:>16}  {}  {}\n",
            if o.ok() { "ok" } else { "FAIL" },
            o.check.artifact,
            o.check.path,
            value,
            band,
            if o.ok() { String::new() } else { status }
        ));
    }
    (text, ok)
}

/// Parse a heartbeat JSONL file; unparseable lines are skipped (the
/// writer is rate-limited, not transactional).
pub fn parse_heartbeats(text: &str) -> Vec<Heartbeat> {
    text.lines()
        .filter_map(|l| serde_json::from_str::<Heartbeat>(l.trim()).ok())
        .collect()
}

/// `tracectl tail`: the last `last` heartbeats, one aligned line each.
pub fn render_heartbeat_tail(beats: &[Heartbeat], last: usize) -> String {
    let start = beats.len().saturating_sub(last);
    let mut text = String::from(
        "  wall_ms shard      seq          txs       events       ev/s  frontier_us  queue  live\n",
    );
    for b in &beats[start..] {
        text.push_str(&format!(
            "{:>9} {:>5} {:>8} {:>12} {:>12} {:>10.0} {:>12} {:>6} {:>5}\n",
            b.wall_ms,
            b.shard,
            b.seq,
            b.txs,
            b.events,
            b.events_per_sec,
            b.frontier_us,
            b.queue_depth,
            b.live_slots
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Value {
        serde_json::from_str(
            r#"{"bench":"sim","scales":[
                {"mode":"exact","nodes":144,"speedup":12.5},
                {"mode":"streamed","nodes":1000000,"sharded_events_per_sec":250000.0}
            ],"dedup":{"new":10}}"#,
        )
        .expect("test artifact parses")
    }

    #[test]
    fn lookup_resolves_fields_selects_and_indexes() {
        let a = artifact();
        assert_eq!(lookup(&a, "dedup.new").unwrap(), 10.0);
        assert_eq!(lookup(&a, "scales[0].speedup").unwrap(), 12.5);
        assert_eq!(
            lookup(&a, "scales[mode=streamed].sharded_events_per_sec").unwrap(),
            250000.0
        );
        assert_eq!(lookup(&a, "scales[nodes=1000000].nodes").unwrap(), 1e6);
        assert!(lookup(&a, "scales[mode=nope].nodes").is_err());
        assert!(lookup(&a, "dedup.missing").is_err());
        assert!(lookup(&a, "bench").is_err(), "strings are not numbers");
    }

    #[test]
    fn evaluate_applies_floor_and_ceiling() {
        let a = artifact();
        let floor = BaselineCheck {
            artifact: "x".into(),
            path: "scales[0].speedup".into(),
            min: Some(1.0),
            max: None,
            skip_if_absent: false,
        };
        assert!(evaluate(&floor, &a).ok());
        let tight = BaselineCheck {
            min: Some(100.0),
            ..floor.clone()
        };
        assert!(!evaluate(&tight, &a).ok());
        let ceil = BaselineCheck {
            artifact: "x".into(),
            path: "dedup.new".into(),
            min: None,
            max: Some(5.0),
            skip_if_absent: false,
        };
        assert!(!evaluate(&ceil, &a).ok());
    }

    #[test]
    fn check_baseline_reads_artifacts_from_dir() {
        let dir = std::env::temp_dir().join(format!("benchctl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("a.json"), r#"{"v": 3}"#).expect("write");
        let baseline = BaselineDoc {
            version: BASELINE_SCHEMA_VERSION,
            checks: vec![
                BaselineCheck {
                    artifact: "a.json".into(),
                    path: "v".into(),
                    min: Some(1.0),
                    max: None,
                    skip_if_absent: false,
                },
                BaselineCheck {
                    artifact: "missing.json".into(),
                    path: "v".into(),
                    min: Some(1.0),
                    max: None,
                    skip_if_absent: false,
                },
            ],
        };
        let strict = check_baseline(&baseline, &dir, false);
        assert_eq!(strict.len(), 2);
        assert!(strict[0].ok() && !strict[1].ok());
        let lenient = check_baseline(&baseline, &dir, true);
        assert_eq!(lenient.len(), 1, "missing artifact skipped");
        assert!(lenient[0].ok());
        let (text, ok) = render_outcomes(&strict);
        assert!(!ok && text.contains("FAIL"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_if_absent_skips_unresolved_paths_but_not_band_violations() {
        let dir = std::env::temp_dir().join(format!("benchctl-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A quick-mode-shaped artifact: only the small point present.
        std::fs::write(
            dir.join("a.json"),
            r#"{"scales": [{"nodes": 144, "rate": 50.0}]}"#,
        )
        .expect("write");
        let check = |path: &str, min: f64, skip: bool| BaselineCheck {
            artifact: "a.json".into(),
            path: path.into(),
            min: Some(min),
            max: None,
            skip_if_absent: skip,
        };
        let baseline = BaselineDoc {
            version: BASELINE_SCHEMA_VERSION,
            checks: vec![
                // Full-only point, flagged: skipped, not failed.
                check("scales[nodes=100000].rate", 1.0, true),
                // Same absent point unflagged: fails.
                check("scales[nodes=100000].rate", 1.0, false),
                // Present point with a violated floor stays a failure
                // even when flagged — only absence is skippable.
                check("scales[nodes=144].rate", 100.0, true),
            ],
        };
        let out = check_baseline(&baseline, &dir, false);
        assert_eq!(out.len(), 2, "flagged absent-path check must be skipped");
        assert!(!out[0].ok(), "unflagged absent path must fail");
        assert!(
            !out[1].ok() && out[1].value == Some(50.0),
            "band violation must fail despite skip_if_absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_tail_renders_last_n() {
        let mut text = String::new();
        for i in 0..5u64 {
            let hb = Heartbeat {
                shard: 0,
                seq: i,
                wall_ms: i * 100,
                txs: i * 10,
                events: i * 30,
                events_per_sec: 300.0,
                frontier_us: i * 1_000,
                queue_depth: 2,
                live_slots: 1,
            };
            text.push_str(&serde_json::to_string(&hb).expect("hb serializes"));
            text.push('\n');
        }
        text.push_str("not json\n");
        let beats = parse_heartbeats(&text);
        assert_eq!(beats.len(), 5);
        let table = render_heartbeat_tail(&beats, 2);
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("frontier_us"));
    }
}
