//! Runs the benchmark in smoke mode and checks what it prints and
//! writes against `BENCHMARK.json` and the driver's contract.

use serde::{field, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_alphawan-benchmark");

fn parse(text: &str) -> Value {
    serde_json::from_str::<Value>(text).expect("valid JSON")
}

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::F64(x) => x,
        Value::U64(x) => x as f64,
        Value::I64(x) => x as f64,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

fn items<'a>(doc: &'a Value, key: &str) -> Vec<&'a [(String, Value)]> {
    field(doc.as_object().expect("object"), key)
        .as_array()
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|v| v.as_object().expect("object"))
        .collect()
}

fn keys(obj: &[(String, Value)]) -> Vec<&str> {
    obj.iter().map(|(k, _)| k.as_str()).collect()
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_emitted_spec_and_meets_the_contract() {
    let emitted = Command::new(EXE).arg("--emit-spec").output().expect("runs");
    assert!(emitted.status.success());
    let doc = declared();
    assert_eq!(
        parse(&String::from_utf8_lossy(&emitted.stdout)),
        doc,
        "BENCHMARK.json differs from --emit-spec; regenerate it"
    );

    let top = doc.as_object().expect("object");
    assert_eq!(
        keys(top),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = field(top, "command").as_array().expect("array");
    assert!(command.len() <= 32);
    for arg in command {
        let arg = text(arg);
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    assert_eq!(
        field(top, "paths"),
        &Value::Array(vec![Value::Str("benchmark".into())])
    );
    let run_seconds = number(field(top, "run_seconds"));
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let mut names = Vec::new();
    let workloads = items(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(field(w, "why"));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
        names.push(text(field(w, "name")));
    }
    let end_to_end = items(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in &end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = number(field(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25);
        names.push(text(field(m, "name")));
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(field(m, "name")) == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(text(field(setup, "unit")), "s");
    assert_eq!(text(field(setup, "better")), "lower");
    let per_layer = items(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in &per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(text(field(m, "name")));
    }
    for m in end_to_end.iter().chain(&per_layer) {
        assert!(valid_unit(text(field(m, "unit"))));
        assert!(["lower", "higher"].contains(&text(field(m, "better"))));
    }
    for name in &names {
        assert!(valid_name(name), "bad name {name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

/// A run's result object has exactly the contract's keys, and its
/// metrics are exactly `expected`, in order, finite, with their units.
fn check_result(result: &[(String, Value)], expected: &[&[(String, Value)]], positive: bool) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        field(result, "correct"),
        &Value::Bool(true),
        "output checks failed"
    );
    assert!(number(field(result, "attempted")) >= 1.0);
    assert_eq!(number(field(result, "failed")), 0.0);
    let metrics = field(result, "metrics").as_object().expect("object");
    let want: Vec<&str> = expected.iter().map(|m| text(field(m, "name"))).collect();
    assert_eq!(keys(metrics), want, "metrics differ from BENCHMARK.json");
    for ((name, value), def) in metrics.iter().zip(expected) {
        let value = value.as_object().expect("object");
        assert_eq!(keys(value), ["value", "unit"]);
        assert_eq!(
            text(field(value, "unit")),
            text(field(def, "unit")),
            "{name}"
        );
        let x = number(field(value, "value"));
        assert!(x.is_finite(), "{name} = {x}");
        assert!(!positive || x > 0.0, "{name} = {x} must never be 0");
    }
}

#[test]
fn smoke_run_reports_every_declared_metric() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let status = Command::new(EXE)
        .args(["--all", "--smoke", "--trace", "--seed", "3", "--out"])
        .arg(&out_dir)
        .status()
        .expect("runs");
    assert!(status.success(), "smoke run failed");

    let doc = declared();
    let result = parse(&std::fs::read_to_string(out_dir.join("result.json")).expect("result.json"));
    let host = field(result.as_object().expect("object"), "host")
        .as_object()
        .expect("host fingerprint");
    assert_eq!(
        keys(host),
        ["cpu_model", "nproc", "rustc", "commit", "link"]
    );
    assert_eq!(field(result.as_object().unwrap(), "seed"), &Value::U64(3));

    let end_to_end = items(&doc, "end_to_end");
    let per_layer = items(&doc, "per_layer");
    let measured = items(&result, "workloads");
    let declared_names: Vec<&str> = items(&doc, "workloads")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let measured_names: Vec<&str> = measured.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(measured_names, declared_names);
    for w in &measured {
        let name = text(field(w, "name"));
        let runs = field(w, "runs").as_array().expect("runs");
        assert_eq!(runs.len(), 1);
        let run = runs[0].as_object().expect("object");
        check_result(
            field(run, "result").as_object().expect("result"),
            &end_to_end,
            true,
        );
        assert!(
            field(run, "samples").as_object().is_some(),
            "sample counts recorded"
        );
        let traced = field(w, "traced").as_object().expect("traced run");
        check_result(
            field(traced, "result").as_object().expect("result"),
            &per_layer,
            false,
        );

        let trace = parse(
            &std::fs::read_to_string(out_dir.join(format!("trace-{name}.json")))
                .expect("one span file per workload"),
        );
        let events = field(trace.as_object().expect("object"), "traceEvents")
            .as_array()
            .expect("traceEvents");
        assert!(!events.is_empty(), "{name}: no spans");
    }
}

#[test]
fn compare_accepts_a_file_against_itself() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare-out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let status = Command::new(EXE)
        .args(["--all", "--smoke", "--seconds", "0.3", "--out"])
        .arg(&out_dir)
        .status()
        .expect("runs");
    assert!(status.success());
    let file = out_dir.join("result.json");
    let same = Command::new(EXE)
        .arg("--compare")
        .args([&file, &file])
        .status()
        .expect("runs");
    assert!(same.success(), "A/A comparison of one file must pass");
}
