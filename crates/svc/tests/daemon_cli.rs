//! The daemon executables' command lines — and `loadgen`'s: the flags
//! they take, the ones they refuse, the `ingest=`/`plan=`
//! announcement launch scripts read their ephemeral ports from, and
//! the `key=value` line `loadgen` prints on stdout.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Output, Stdio};
use svc::http_get;

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("daemon runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Kills the daemon when the test ends, pass or fail.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `exe` on ephemeral loopback ports and parse the two
/// `key=addr` fields of its first stdout line.
fn launch(exe: &str, args: &[&str]) -> (Running, Vec<(String, SocketAddr)>) {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped");
    let running = Running(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("announcement");
    let fields = line
        .split_whitespace()
        .map(|f| {
            let (k, v) = f.split_once('=').expect("key=addr");
            (k.to_string(), v.parse().expect("socket address"))
        })
        .collect();
    (running, fields)
}

#[test]
fn netserverd_refuses_unknown_flags() {
    for args in [
        &["--series-interval-ms", "25"][..],
        &["--flight", "dir"],
        &["--slo", "rules.json"],
        &["--spans"],
        &["--workers", "4"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_netserverd"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown flag {}", args[0])),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn netserverd_refuses_missing_and_bad_values() {
    for (args, says) in [
        (&["--window-us"][..], "--window-us needs a value"),
        (&["--log-cap", "many"], "bad value \"many\""),
        (&["--bind", "not-an-addr"], "bad value \"not-an-addr\""),
        (&["--window-us", "-1"], "bad value \"-1\""),
    ] {
        let out = run(env!("CARGO_BIN_EXE_netserverd"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn netserverd_announces_its_ports_and_serves_them() {
    let (_daemon, fields) = launch(
        env!("CARGO_BIN_EXE_netserverd"),
        &[
            "--bind",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
            "--window-us",
            "1000",
            "--log-cap",
            "10",
        ],
    );
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["ingest", "metrics"]);
    assert_ne!(fields[0].1.port(), 0, "the bound port, not the asked one");
    let metrics = fields[1].1;
    assert_eq!(http_get(metrics, "/healthz").unwrap(), "ok\n");
    // A datagram at the announced ingest port reaches the daemon.
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.send_to(b"junk", fields[0].1).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !http_get(metrics, "/metrics")
        .unwrap()
        .contains("svc_malformed_total 1\n")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "datagram never counted"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn masterd_refuses_unknown_flags_and_bad_values() {
    for (args, says) in [
        (
            &["--series-interval-ms", "25"][..],
            "unknown flag --series-interval-ms",
        ),
        (&["--networks"], "--networks needs a value"),
        (&["--lease-ttl-ms", "soon"], "bad value \"soon\""),
    ] {
        let out = run(env!("CARGO_BIN_EXE_masterd"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn loadgen_refuses_a_loss_probability_outside_zero_to_one() {
    for value in ["1.5", "-0.1", "NaN", "inf", "lots"] {
        let out = run(
            env!("CARGO_BIN_EXE_loadgen"),
            &["--server", "127.0.0.1:9", "--chaos-loss", value],
        );
        assert_eq!(out.status.code(), Some(2), "{value}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("bad value \"{value}\"")),
            "{value}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn masterd_announces_its_ports_and_serves_them() {
    let (_daemon, fields) = launch(
        env!("CARGO_BIN_EXE_masterd"),
        &[
            "--bind",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
            "--networks",
            "2",
            "--lease-ttl-ms",
            "60000",
        ],
    );
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["plan", "metrics"]);
    assert_eq!(http_get(fields[1].1, "/healthz").unwrap(), "ok\n");
}

#[test]
fn loadgen_refuses_the_flags_that_timed_or_labelled_a_run() {
    for args in [
        &["--target-pps", "1000"][..],
        &["--inflight", "16"],
        &["--mode", "ci-smoke"],
    ] {
        let mut args = args.to_vec();
        args.extend(["--server", "127.0.0.1:9"]);
        let out = run(env!("CARGO_BIN_EXE_loadgen"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown flag {}", args[0])),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

/// The value of counter or gauge `name` in a Prometheus scrape.
fn sample(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn loadgen_through_a_lossy_proxy_verifies_a_live_daemon() {
    // Both daemons on ephemeral ports, as launch scripts drive them,
    // loadgen through a lossy proxy, its stdout read as one line of
    // `key=value` fields.
    let (_netserverd, ns) = launch(
        env!("CARGO_BIN_EXE_netserverd"),
        &["--bind", "127.0.0.1:0", "--metrics", "127.0.0.1:0"],
    );
    let (_masterd, md) = launch(
        env!("CARGO_BIN_EXE_masterd"),
        &["--bind", "127.0.0.1:0", "--metrics", "127.0.0.1:0"],
    );
    let (server, metrics, plan) = (ns[0].1.to_string(), ns[1].1, md[0].1.to_string());
    let out = run(
        env!("CARGO_BIN_EXE_loadgen"),
        &[
            "--server",
            &server,
            "--master",
            &plan,
            "--metrics",
            &metrics.to_string(),
            "--devices",
            "48",
            "--gateways",
            "4",
            "--replicas",
            "2",
            "--epochs",
            "6",
            "--chaos-loss",
            "0.1",
        ],
    );
    assert!(out.status.success(), "{:?}: {}", out.status, stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let field = |key: &str| -> u64 {
        stdout
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key}= in {stdout}"))
            .parse()
            .unwrap_or_else(|e| panic!("{key}: {e} in {stdout}"))
    };
    assert_eq!(field("divergence"), 0, "{stdout}");
    let (sent, ingested) = (field("sent_pkts"), field("ingested_pkts"));
    assert!(sent > 0 && ingested > 0, "{stdout}");
    assert!(
        ingested < sent,
        "10 % chaos loss, yet all arrived: {stdout}"
    );
    assert!(field("dedup_new") > 0, "{stdout}");

    // What the daemon serves after the run (a drain ACKed before
    // loadgen scraped `/decisions` may have been decided since).
    let scrape = http_get(metrics, "/metrics").unwrap();
    assert!(
        sample(&scrape, "svc_pkts_total") >= Some(ingested),
        "{scrape}"
    );
    // One sample per receive drain: its sum is the datagrams.
    assert!(
        sample(&scrape, "svc_drain_datagrams_sum") > Some(0),
        "{scrape}"
    );
    // The daemon reads its own memory, and its ingest socket's row in
    // /proc/net/udp, on every scrape.
    if obs::proc_mem().is_some() {
        assert!(sample(&scrape, "process_rss_bytes") > Some(0), "{scrape}");
    }
    if std::path::Path::new("/proc/net/udp").exists() {
        assert!(sample(&scrape, "svc_socket_drops").is_some(), "{scrape}");
    }
    assert_eq!(http_get(metrics, "/healthz").unwrap(), "ok\n");
}
