//! `tracectl` — inspect a packet-lifecycle event stream, or tail a
//! streamed run's heartbeats.
//!
//! Reads an `ObsEvent` JSONL file (as written by `JsonlSink` /
//! `ALPHAWAN_OBS_OUT`), reconstructs per-packet timelines with
//! [`obs::TraceAnalyzer`], and prints per-trace summaries plus the
//! decoder-contention attribution tables (own vs foreign decoder-µs
//! per gateway, blocker→victim network pairs, top-K blockers).
//!
//! ```text
//! tracectl <events.jsonl> [--top K] [--chrome out.json] [--check]
//! tracectl tail <heartbeats.jsonl> [--last N] [--follow]
//! ```
//!
//! * `--top K` — table row cap (default 10);
//! * `--chrome F` — also write a Chrome trace-event JSON to `F`
//!   (loadable in Perfetto / `chrome://tracing`);
//! * `--check` — exit nonzero if the stream has schema errors
//!   (unparseable lines) or causality violations.
//!
//! `tail` renders the last `N` (default 20) lines of a heartbeat JSONL
//! file, written by a streamed run with `ALPHAWAN_HEARTBEAT=<path>`;
//! `--follow` keeps polling the file and prints beats as they land.

use bench::ctl;
use obs::{chrome_trace, ObsEvent, TraceAnalyzer};
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

const USAGE: &str =
    "usage: tracectl <events.jsonl> [--top K] [--chrome out.json] [--check]\n       \
                     tracectl tail <heartbeats.jsonl> [--last N] [--follow]";

struct Args {
    input: String,
    top: usize,
    chrome: Option<String>,
    check: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut input = None;
    let mut top = 10usize;
    let mut chrome = None;
    let mut check = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                let v = args.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|_| format!("bad --top value: {v}"))?;
            }
            "--chrome" => chrome = Some(args.next().ok_or("--chrome needs a path")?),
            "--check" => check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => {
                if input.replace(other.to_string()).is_some() {
                    return Err("exactly one input file expected".to_string());
                }
            }
        }
    }
    Ok(Args {
        input: input.ok_or(USAGE)?,
        top,
        chrome,
        check,
    })
}

fn tail(args: &[String]) -> Result<(), String> {
    let mut file = None;
    let mut last = 20usize;
    let mut follow = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--last" => {
                last = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--last needs a number")?
            }
            "--follow" => follow = true,
            _ if file.is_none() => file = Some(a.clone()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let file = file.ok_or(USAGE)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    let mut beats = ctl::parse_heartbeats(&text);
    print!("{}", ctl::render_heartbeat_tail(&beats, last));
    if !follow {
        return Ok(());
    }
    let mut seen = beats.len();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(300));
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        beats = ctl::parse_heartbeats(&text);
        if beats.len() < seen {
            // The file was truncated (a new run started): reprint.
            seen = 0;
        }
        if beats.len() > seen {
            let fresh = ctl::render_heartbeat_tail(&beats, beats.len() - seen);
            // Drop the header when appending to an existing view.
            let mut lines = fresh.lines();
            if seen > 0 {
                lines.next();
            }
            for l in lines {
                println!("{l}");
            }
            seen = beats.len();
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "tail") {
        return match tail(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tracectl tail: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let file = match std::fs::File::open(&args.input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tracectl: {}: {e}", args.input);
            return ExitCode::from(2);
        }
    };

    let mut analyzer = TraceAnalyzer::new();
    let mut events: Vec<ObsEvent> = Vec::new();
    let mut schema_errors: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("tracectl: read error at line {}: {e}", lineno + 1);
                return ExitCode::from(2);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<ObsEvent>(&line) {
            Ok(ev) => {
                analyzer.observe(&ev);
                events.push(ev);
            }
            Err(e) => schema_errors.push((lineno + 1, format!("{e:?}"))),
        }
    }

    let report = analyzer.into_report();
    let contention = report.contention();

    println!("stream   {}", args.input);
    println!(
        "         {} events, {} unparseable lines, {} gateways, {} packet traces, {} control traces",
        report.events_seen,
        schema_errors.len(),
        report.gateways.len(),
        report.timelines.len(),
        report.control.len(),
    );
    println!(
        "         {} pool-full drops, {} causality violations",
        report.drops.len(),
        report.violations.len()
    );

    // -- Per-trace packet summaries ------------------------------------
    println!("\npacket traces (first {} by trace id):", args.top);
    println!(
        "  {:<18} {:>6} {:>8} {:>12} {:>12} {:>6} {:>6}  outcome",
        "trace", "tx", "net", "lock_on_us", "decoder_us", "holds", "drops"
    );
    for tl in report.timelines.values().take(args.top) {
        let outcome = match (tl.delivered, tl.cause) {
            (Some(true), _) => "delivered".to_string(),
            (Some(false), Some(c)) => format!("lost:{c:?}"),
            (Some(false), None) => "lost".to_string(),
            (None, _) => "open".to_string(),
        };
        println!(
            "  {:<18} {:>6} {:>8} {:>12} {:>12} {:>6} {:>6}  {}",
            format!("{:#x}", tl.trace),
            tl.tx,
            tl.network.map_or("?".to_string(), |n| n.to_string()),
            tl.lock_on_us.map_or("-".to_string(), |t| t.to_string()),
            tl.decoder_us(),
            tl.holds.len(),
            tl.drops.len(),
            outcome,
        );
    }
    if report.timelines.len() > args.top {
        println!("  … {} more", report.timelines.len() - args.top);
    }

    if !report.control.is_empty() {
        println!("\ncontrol traces:");
        for ct in report.control.values().take(args.top) {
            println!(
                "  {:#x}: {} connects ({} failed), {} rpc retries, served {:?} ({} channels)",
                ct.trace,
                ct.connect_attempts,
                ct.connect_failures,
                ct.rpc_retries,
                ct.served,
                ct.channels
            );
        }
    }

    // -- Contention attribution ----------------------------------------
    println!("\ndecoder occupancy by gateway (µs):");
    println!(
        "  {:>4} {:>8} {:>14} {:>14} {:>14}",
        "gw", "net", "own", "foreign", "unattributed"
    );
    for g in &contention.per_gateway {
        println!(
            "  {:>4} {:>8} {:>14} {:>14} {:>14}",
            g.gw,
            g.network.map_or("?".to_string(), |n| n.to_string()),
            g.own_decoder_us,
            g.foreign_decoder_us,
            g.unattributed_us
        );
    }
    println!(
        "  foreign decoder-µs total (Strategy ①/②/⑧ effect size): {}",
        contention.foreign_decoder_us_total
    );

    if !contention.pairs.is_empty() {
        println!("\nblocker → victim network pairs (pool-full drops):");
        println!(
            "  {:>10} {:>8} {:>12} {:>8}",
            "blocker", "victim", "incidences", "drops"
        );
        for p in contention.pairs.iter().take(args.top) {
            println!(
                "  {:>10} {:>8} {:>12} {:>8}",
                p.blocker_network, p.victim_network, p.incidences, p.drops
            );
        }
    }

    if !contention.top_blockers.is_empty() {
        println!("\ntop blockers:");
        println!(
            "  {:<18} {:>6} {:>8} {:>16} {:>14}",
            "trace", "tx", "net", "foreign_dec_us", "drops_blocked"
        );
        for b in contention.top_blockers.iter().take(args.top) {
            println!(
                "  {:<18} {:>6} {:>8} {:>16} {:>14}",
                format!("{:#x}", b.trace),
                b.tx,
                b.network.map_or("?".to_string(), |n| n.to_string()),
                b.foreign_decoder_us,
                b.drops_blocked
            );
        }
    }

    // -- Diagnostics ---------------------------------------------------
    for (lineno, err) in schema_errors.iter().take(args.top) {
        eprintln!("schema violation at line {lineno}: {err}");
    }
    for v in report.violations.iter().take(args.top) {
        eprintln!("causality violation: {v}");
    }

    if let Some(path) = &args.chrome {
        let doc = chrome_trace(&events);
        match std::fs::write(
            path,
            serde_json::to_string(&doc).expect("chrome doc serializes"),
        ) {
            Ok(()) => println!(
                "\nwrote {} chrome trace events to {path}",
                doc.traceEvents.len()
            ),
            Err(e) => {
                eprintln!("tracectl: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if args.check && !(schema_errors.is_empty() && report.violations.is_empty()) {
        eprintln!(
            "check failed: {} schema violations, {} causality violations",
            schema_errors.len(),
            report.violations.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
