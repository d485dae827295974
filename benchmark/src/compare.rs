//! `--compare <a.json> <b.json>`: two result files of `--all`, `a` the
//! parent and `b` the change (or the same commit twice, A/A). Per
//! workload × end-to-end metric: both medians, the delta, the declared
//! bound and a verdict.
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `unresolved` — the run-to-run spread (first to third quartile, as
//!   a share of the median) of either side is wider than the bound,
//!   unless every run of `b` reads better than every run of `a`;
//! * `ok` — otherwise.
//!
//! Exits non-zero on any `worse`, or when `b` failed a larger share of
//! its operations than `a`.

use crate::harness::median;
use crate::spec::{self, Better};
use serde::{field, Value};
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str::<Value>(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a [(String, Value)]> {
    field(doc.as_object()?, "workloads")
        .as_array()?
        .iter()
        .filter_map(Value::as_object)
        .find(|w| field(w, "name") == &Value::Str(name.to_string()))
}

fn results(w: &[(String, Value)]) -> Vec<&[(String, Value)]> {
    field(w, "runs")
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| field(r.as_object()?, "result").as_object())
        .collect()
}

fn metric_of(result: &[(String, Value)], name: &str) -> Option<f64> {
    number(field(
        field(field(result, "metrics").as_object()?, name).as_object()?,
        "value",
    ))
}

/// Every run's value of one metric.
fn values(w: &[(String, Value)], metric: &str) -> Vec<f64> {
    results(w)
        .iter()
        .filter_map(|r| metric_of(r, metric))
        .collect()
}

/// Failed ÷ attempted over every run.
fn failed_share(w: &[(String, Value)]) -> f64 {
    let sum = |key: &str| -> f64 {
        results(w)
            .iter()
            .filter_map(|r| number(field(r, key)))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// First-to-third-quartile distance as a share of the median, with
/// the quartiles of Python's `statistics.quantiles(values, n=4)`.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| -> f64 {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos - j * 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(3) - q(1)) / median(values).abs().max(f64::MIN_POSITIVE)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    println!(
        "{:<11} {:<12} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse%", "bound%", "a iqr%", "b iqr%"
    );
    for name in spec::workload_names() {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name:<11} missing from one file");
            bad = true;
            continue;
        };
        for m in &spec::END_TO_END {
            let (va, vb) = (values(wa, m.name), values(wb, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<11} {:<12} missing", m.name);
                bad = true;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            // Positive = b worse than a.
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
            };
            let all_better = match m.better {
                Better::Lower => {
                    vb.iter().cloned().fold(f64::MIN, f64::max)
                        < va.iter().cloned().fold(f64::MAX, f64::min)
                }
                Better::Higher => {
                    vb.iter().cloned().fold(f64::MAX, f64::min)
                        > va.iter().cloned().fold(f64::MIN, f64::max)
                }
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let verdict = if sa.max(sb) > bound && !all_better {
                "unresolved"
            } else if worse_by > bound {
                bad = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{name:<11} {:<12} {ma:>14.4} {mb:>14.4} {:>8.2} {:>6.1} {:>7.2} {:>7.2}  {verdict}",
                m.name,
                worse_by * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{name:<11} failed-operations share rose from {fa:.2e} to {fb:.2e}");
            bad = true;
        }
        // Counts and simulated statistics of the traced runs: exact
        // repeats for one commit, seed and core count.
        let traced = |w: &[(String, Value)], metric: &str| -> Option<f64> {
            metric_of(
                field(field(w, "traced").as_object()?, "result").as_object()?,
                metric,
            )
        };
        for metric in spec::EXACT_REPEAT {
            if let (Some(x), Some(y)) = (traced(wa, metric), traced(wb, metric)) {
                if x != y {
                    println!("{name:<11} {metric} changed: {x} -> {y}");
                }
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::spread;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((spread(&[4.0, 1.0, 2.0]) - 3.0 / 2.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
