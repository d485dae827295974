//! Round-trip tests for `tracectl` against a checked-in heartbeat
//! fixture and small generated event streams — the same invocations
//! CI's trace gate and a live debugging session use, driven through
//! the real executable.

use obs::{ChromeExport, ChromeTrace, LossKind, ObsEvent};
use std::path::PathBuf;
use std::process::{Command, Output};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn tracectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(args)
        .output()
        .expect("tracectl runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn tracectl_tail_renders_heartbeats() {
    let fx = fixtures();
    let out = tracectl(&["tail", fx.join("heartbeats.jsonl").to_str().unwrap()]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(stdout.contains("frontier_us"), "header missing: {stdout}");
    // All four fixture beats, shards 0 and 1 at frontiers 1s and 2s.
    assert_eq!(stdout.lines().count(), 5, "got: {stdout}");
    assert!(stdout.contains("2000000"), "latest frontier missing");
}

#[test]
fn tracectl_tail_last_limits_rows() {
    let fx = fixtures();
    let out = tracectl(&[
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
fn tracectl_tail_missing_file_exits_two() {
    let missing = fixtures().join("no-such-heartbeats.jsonl");
    let out = tracectl(&["tail", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = text(&out.stderr);
    assert!(stderr.starts_with("tracectl tail: "), "got: {stderr}");
    assert!(stderr.contains("no-such-heartbeats.jsonl"), "got: {stderr}");
    assert!(out.stdout.is_empty(), "no table for a missing file");
}

#[test]
fn tracectl_tail_rejects_bad_arguments() {
    let beats = fixtures().join("heartbeats.jsonl");
    let beats = beats.to_str().unwrap();
    for (args, says) in [
        (&["tail"][..], "usage: tracectl"),
        (&["tail", beats, "--last"], "--last needs a number"),
        (&["tail", beats, "--last", "ten"], "--last needs a number"),
        (&["tail", beats, beats], "unexpected argument"),
    ] {
        let out = tracectl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            text(&out.stderr).contains(says),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
}

#[test]
fn tracectl_tail_follow_prints_appended_beats() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::mpsc;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("tracectl-follow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("heartbeats.jsonl");
    let fixture = std::fs::read_to_string(fixtures().join("heartbeats.jsonl")).unwrap();
    let mut lines = fixture.lines();
    std::fs::write(&path, format!("{}\n", lines.next().unwrap())).unwrap();

    /// `--follow` never exits by itself: kill it however the test ends.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tracectl"))
            .args(["tail", path.to_str().unwrap(), "--follow"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("tracectl runs"),
    );
    let (tx, rx) = mpsc::channel();
    let stdout = child.0.stdout.take().unwrap();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.unwrap()).is_err() {
                break;
            }
        }
    });
    let next = || rx.recv_timeout(Duration::from_secs(10));
    let header = next().expect("header");
    assert!(header.contains("frontier_us"), "got: {header}");
    assert!(next().expect("first beat").contains("1230"));
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for l in lines {
        writeln!(file, "{l}").unwrap();
    }
    drop(file);
    // The three new beats follow, without a second header.
    let fresh: Vec<String> = (0..3).map(|_| next().expect("appended beat")).collect();
    drop(child);
    let _ = reader.join();
    assert!(
        fresh.iter().all(|l| !l.contains("frontier_us")),
        "{fresh:?}"
    );
    for (row, events) in fresh.iter().zip(["1206", "2499", "2433"]) {
        assert!(row.contains(events), "{row} lacks {events}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One traced packet's full lifecycle at one gateway, causally clean.
fn clean_stream() -> Vec<ObsEvent> {
    let (trace, tx) = (7, 1);
    vec![
        ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 8,
        },
        ObsEvent::PacketLockOn {
            t_us: 100,
            trace,
            tx,
            node: 3,
            network: 1,
        },
        ObsEvent::DecoderAcquired {
            t_us: 100,
            trace,
            gw: 0,
            tx,
            in_use: 1,
            capacity: 8,
        },
        ObsEvent::DecoderReleased {
            t_us: 900,
            trace,
            gw: 0,
            tx,
            in_use: 0,
        },
        ObsEvent::PacketOutcome {
            t_us: 900,
            trace,
            tx,
            delivered: true,
            cause: None::<LossKind>,
        },
    ]
}

/// Write `events`, then the `extra` raw lines, as a JSONL stream.
fn stream_file(name: &str, events: &[ObsEvent], extra: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracectl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut text: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    for l in extra {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn tracectl_check_passes_on_a_clean_stream() {
    let path = stream_file("clean.jsonl", &clean_stream(), &[]);
    let out = tracectl(&[path.to_str().unwrap(), "--check"]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", text(&out.stderr));
    assert!(
        stdout.contains("5 events, 0 unparseable lines, 1 gateways, 1 packet traces"),
        "got: {stdout}"
    );
    assert!(stdout.contains("0 causality violations"), "got: {stdout}");
    assert!(stdout.contains("delivered"), "outcome missing: {stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracectl_check_fails_on_a_line_that_is_not_an_event() {
    // A header line of some other format is not part of the event
    // schema: it is reported, and `--check` gates on it.
    let path = stream_file(
        "header.jsonl",
        &clean_stream(),
        &[r#"{"Header":{"seq":0}}"#],
    );
    let out = tracectl(&[path.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains("schema violation at line 6"),
        "got: {stderr}"
    );
    assert!(
        stderr.contains("check failed: 1 schema violations, 0 causality violations"),
        "got: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracectl_without_check_reports_but_does_not_gate() {
    let path = stream_file("lenient.jsonl", &clean_stream(), &["not json at all"]);
    let out = tracectl(&[path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).contains("5 events, 1 unparseable lines"),
        "got: {}",
        text(&out.stdout)
    );
    assert!(text(&out.stderr).contains("schema violation at line 6"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracectl_check_fails_on_a_causality_violation() {
    // Drop the acquisition: the release then frees a decoder nobody held.
    let mut events = clean_stream();
    events.remove(2);
    let path = stream_file("orphan.jsonl", &events, &[]);
    let out = tracectl(&[path.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stdout));
    assert!(
        text(&out.stdout).contains("1 causality violations"),
        "got: {}",
        text(&out.stdout)
    );
    let stderr = text(&out.stderr);
    assert!(stderr.contains("causality violation: "), "got: {stderr}");
    assert!(
        stderr.contains("check failed: 0 schema violations, 1 causality violations"),
        "got: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracectl_writes_a_chrome_trace() {
    let path = stream_file("chrome.jsonl", &clean_stream(), &[]);
    let chrome = path.with_extension("chrome.json");
    let out = tracectl(&[path.to_str().unwrap(), "--chrome", chrome.to_str().unwrap()]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let written = std::fs::read_to_string(&chrome).unwrap();
    let doc: ChromeTrace = serde_json::from_str(&written).expect("chrome JSON");
    let mut in_process = Vec::new();
    let mut export = ChromeExport::new(&mut in_process).unwrap();
    for ev in &clean_stream() {
        export.observe(ev).unwrap();
    }
    export.finish().unwrap();
    assert_eq!(
        written.as_bytes(),
        in_process,
        "the export of the same stream"
    );
    let n = doc.traceEvents.len();
    assert!(n > 0, "no chrome events");
    assert!(
        text(&out.stdout).contains(&format!("wrote {n} chrome trace events")),
        "got: {}",
        text(&out.stdout)
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn tracectl_top_caps_the_trace_table() {
    let mut events = clean_stream();
    for trace in [8, 9] {
        events.push(ObsEvent::PacketOutcome {
            t_us: 2_000,
            trace,
            tx: trace,
            delivered: false,
            cause: None,
        });
    }
    let path = stream_file("top.jsonl", &events, &[]);
    let out = tracectl(&[path.to_str().unwrap(), "--top", "1"]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(stdout.contains("3 packet traces"), "got: {stdout}");
    assert!(
        stdout.contains("packet traces (first 1 by trace id)"),
        "got: {stdout}"
    );
    assert!(stdout.contains("0x7"), "first trace missing: {stdout}");
    assert!(!stdout.contains("0x8"), "row past --top printed: {stdout}");
    assert!(stdout.contains("… 2 more"), "got: {stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracectl_rejects_bad_arguments() {
    let path = stream_file("args.jsonl", &clean_stream(), &[]);
    let path = path.to_str().unwrap();
    let missing = fixtures().join("no-such-events.jsonl");
    for (args, says) in [
        (&[][..], "usage: tracectl"),
        (&[path, "--frobnicate"], "unknown flag: --frobnicate"),
        (&[path, "--top", "ten"], "bad --top value: ten"),
        (&[path, "--chrome"], "--chrome needs a path"),
        (&[path, path], "exactly one input file expected"),
        (&[missing.to_str().unwrap()], "no-such-events.jsonl"),
    ] {
        let out = tracectl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            text(&out.stderr).contains(says),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(path);
}
