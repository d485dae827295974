//! Round-trip tests for the `benchctl` and `obsctl` binaries against
//! checked-in fixtures — the same invocations CI's perf gate and a
//! live debugging session use, driven through the real executables.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn benchctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchctl"))
        .args(args)
        .output()
        .expect("benchctl runs")
}

fn obsctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
        .args(args)
        .output()
        .expect("obsctl runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn benchctl_check_passes_on_good_baseline() {
    let fx = fixtures();
    let out = benchctl(&[
        "check",
        "--baseline",
        fx.join("baseline_good.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
        "--allow-missing",
    ]);
    let stdout = text(&out.stdout);
    assert!(
        out.status.success(),
        "check failed on good baseline: {stdout}{}",
        text(&out.stderr)
    );
    assert!(stdout.contains("3 checks, 0 failed"), "got: {stdout}");
    assert!(
        stdout.contains("1 skipped: artifact or point absent"),
        "absent-artifact skip not reported: {stdout}"
    );
    assert!(
        stdout.contains("scales[mode=exact].events_per_sec"),
        "table missing check path: {stdout}"
    );
}

#[test]
fn benchctl_check_gates_on_violated_floor() {
    let fx = fixtures();
    let out = benchctl(&[
        "check",
        "--baseline",
        fx.join("baseline_bad.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "violated floor must exit 1");
    assert!(
        text(&out.stderr).contains("perf baseline violated"),
        "got: {}",
        text(&out.stderr)
    );
    assert!(text(&out.stdout).contains("1 checks, 1 failed"));
}

#[test]
fn benchctl_diff_reports_without_gating() {
    let fx = fixtures();
    let out = benchctl(&[
        "diff",
        "--baseline",
        fx.join("baseline_bad.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "diff must never gate");
    assert!(text(&out.stdout).contains("1 checks, 1 failed"));
}

#[test]
fn benchctl_check_fails_on_missing_artifact_without_allow() {
    let fx = fixtures();
    let out = benchctl(&[
        "check",
        "--baseline",
        fx.join("baseline_good.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        text(&out.stdout).contains("artifact BENCH_absent.json not found"),
        "got: {}",
        text(&out.stdout)
    );
}

#[test]
fn benchctl_diff_names_missing_artifact_with_expected_path() {
    // `diff` on a baseline naming an absent artifact must print a
    // clear "not found" with the path it looked at — not a raw io
    // error — and still exit zero (diff never gates).
    let fx = fixtures();
    let out = benchctl(&[
        "diff",
        "--baseline",
        fx.join("baseline_good.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
    ]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "diff must never gate: {stdout}");
    assert!(
        stdout.contains("artifact BENCH_absent.json not found"),
        "missing artifact not named: {stdout}"
    );
    let expected = fx.join("BENCH_absent.json");
    assert!(
        stdout.contains(expected.to_str().unwrap()),
        "expected path {} not printed: {stdout}",
        expected.display()
    );
    assert!(
        !stdout.contains("No such file"),
        "raw io error leaked through: {stdout}"
    );
}

#[test]
fn benchctl_distinguishes_unparseable_from_missing() {
    let fx = fixtures();
    let out = benchctl(&[
        "diff",
        "--baseline",
        fx.join("baseline_garbage.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
    ]);
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("invalid JSON"),
        "corrupt artifact not reported as unparseable: {stdout}"
    );
    assert!(
        !stdout.contains("not found"),
        "corrupt artifact misreported as missing: {stdout}"
    );

    // --allow-missing skips absent artifacts but must NOT skip
    // corrupt ones: a truncated artifact is a real failure.
    let gated = benchctl(&[
        "check",
        "--baseline",
        fx.join("baseline_garbage.json").to_str().unwrap(),
        "--dir",
        fx.to_str().unwrap(),
        "--allow-missing",
    ]);
    assert_eq!(
        gated.status.code(),
        Some(1),
        "corrupt artifact must gate even with --allow-missing: {}",
        text(&gated.stdout)
    );
}

#[test]
fn benchctl_usage_error_exits_two() {
    let out = benchctl(&["check"]);
    assert_eq!(out.status.code(), Some(2), "--baseline is required");
}

#[test]
fn obsctl_tail_renders_heartbeats() {
    let fx = fixtures();
    let out = obsctl(&["tail", fx.join("heartbeats.jsonl").to_str().unwrap()]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(stdout.contains("frontier_us"), "header missing: {stdout}");
    // All four fixture beats, shards 0 and 1 at frontiers 1s and 2s.
    assert_eq!(stdout.lines().count(), 5, "got: {stdout}");
    assert!(stdout.contains("2000000"), "latest frontier missing");
}

#[test]
fn obsctl_tail_last_limits_rows() {
    let fx = fixtures();
    let out = obsctl(&[
        "tail",
        fx.join("heartbeats.jsonl").to_str().unwrap(),
        "--last",
        "1",
    ]);
    let stdout = text(&out.stdout);
    assert!(out.status.success());
    assert_eq!(stdout.lines().count(), 2, "header + one beat: {stdout}");
    assert!(stdout.contains("2433"), "must keep the newest beat");
}

#[test]
fn obsctl_top_renders_series_fixture() {
    let fx = fixtures();
    let out = obsctl(&["top", fx.join("series.json").to_str().unwrap()]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(stdout.contains("decoder_acquired_total"), "got: {stdout}");
    assert!(stdout.contains("tx_attempts_total"));
    assert!(stdout.contains("decoder_occupancy"));
    // The accumulator-path counters the sim registers mid-soak must
    // surface in the live view like any other counter.
    assert!(stdout.contains("sim_accum_updates"), "got: {stdout}");
    assert!(stdout.contains("sim_accum_undos"), "got: {stdout}");
}

#[test]
fn obsctl_spans_renders_report_fixture() {
    let fx = fixtures();
    let out = obsctl(&["spans", fx.join("spans.json").to_str().unwrap()]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(stdout.contains("shard.drain"), "got: {stdout}");
    assert!(stdout.contains("shard.ingest"));
    let drain_line = stdout.lines().position(|l| l.contains("shard.drain"));
    let ingest_line = stdout.lines().position(|l| l.contains("shard.ingest"));
    assert!(
        drain_line < ingest_line,
        "spans must sort by estimated total time, descending"
    );
}

#[test]
fn obsctl_rejects_unknown_sources() {
    let out = obsctl(&["top", "no-such-file.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stderr).contains("no such file"));
}
