//! `tracectl` — inspect a packet-lifecycle event stream, or tail a
//! streamed run's heartbeats.
//!
//! Reads an `ObsEvent` JSONL file (as written by `JsonlSink` /
//! `--obs-out`), reconstructs per-packet timelines with
//! [`obs::TraceAnalyzer`], and prints per-trace summaries plus the
//! decoder-contention attribution tables (own vs foreign decoder-µs
//! and peak occupancy per gateway, blocker→victim network pairs, top-K
//! blockers), after the stream's counts: events by kind, packet
//! outcomes by loss cause, dedup classifications by outcome.
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

use obs::{ChromeExport, Heartbeat, ObsEvent, TraceAnalyzer, TraceReport};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter};
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

/// The counts block: events by kind, then packet outcomes (`delivered`,
/// `lost:<cause>`), then dedup classifications (`dedup:<outcome>`), one
/// aligned `name count` line each.
fn render_counts(report: &TraceReport) -> String {
    let mut rows: Vec<(String, u64)> = report
        .events
        .iter()
        .map(|(&kind, &n)| (kind.to_string(), n))
        .collect();
    if report.events.contains_key("packet_outcome") {
        rows.push(("delivered".to_string(), report.delivered));
    }
    for (cause, &n) in &report.lost {
        let cause = cause.map_or("?".to_string(), |c| format!("{c:?}"));
        rows.push((format!("lost:{cause}"), n));
    }
    for (outcome, &n) in &report.dedup {
        rows.push((format!("dedup:{outcome:?}"), n));
    }
    let mut text = String::from("counts:\n");
    for (name, n) in rows {
        text.push_str(&format!("  {name:<24} {n:>10}\n"));
    }
    text
}

/// An event stream folded by [`TraceAnalyzer`]: the report, and each
/// unparseable line as (line number, error).
type Stream = (TraceReport, Vec<(usize, String)>);

/// Fold the JSONL event stream `input` line by line, handing each event
/// to `each` as well (the Chrome export, which writes as it goes): the
/// stream costs the analyzer's own memory and nothing more.
fn read_stream(
    input: impl BufRead,
    mut each: impl FnMut(&ObsEvent) -> io::Result<()>,
) -> Result<Stream, String> {
    let mut analyzer = TraceAnalyzer::new();
    let mut schema_errors = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("read error at line {}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<ObsEvent>(&line) {
            Ok(ev) => {
                analyzer.observe(&ev);
                each(&ev).map_err(|e| format!("write error at line {}: {e}", lineno + 1))?;
            }
            Err(e) => schema_errors.push((lineno + 1, format!("{e:?}"))),
        }
    }
    Ok((analyzer.into_report(), schema_errors))
}

/// Parse a heartbeat JSONL file; unparseable lines are skipped (the
/// writer is rate-limited, not transactional).
fn parse_heartbeats(text: &str) -> Vec<Heartbeat> {
    text.lines()
        .filter_map(|l| serde_json::from_str::<Heartbeat>(l.trim()).ok())
        .collect()
}

/// `tracectl tail`: the last `last` heartbeats, one aligned line each.
fn render_heartbeat_tail(beats: &[Heartbeat], last: usize) -> String {
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
    let mut beats = parse_heartbeats(&text);
    print!("{}", render_heartbeat_tail(&beats, last));
    if !follow {
        return Ok(());
    }
    let mut seen = beats.len();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(300));
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        beats = parse_heartbeats(&text);
        if beats.len() < seen {
            // The file was truncated (a new run started): reprint.
            seen = 0;
        }
        if beats.len() > seen {
            let fresh = render_heartbeat_tail(&beats, beats.len() - seen);
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

    let mut chrome = match &args.chrome {
        Some(path) => match File::create(path).and_then(|f| ChromeExport::new(BufWriter::new(f))) {
            Ok(export) => Some((path, export)),
            Err(e) => {
                eprintln!("tracectl: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let read = read_stream(BufReader::new(file), |ev| match &mut chrome {
        Some((_, export)) => export.observe(ev),
        None => Ok(()),
    });
    let (report, schema_errors) = match read {
        Ok(read) => read,
        Err(e) => {
            eprintln!("tracectl: {e}");
            return ExitCode::from(2);
        }
    };
    let contention = report.contention();

    println!("stream   {}", args.input);
    println!(
        "         {} events, {} unparseable lines, {} gateways, {} packet traces",
        report.events.values().sum::<u64>(),
        schema_errors.len(),
        report.gateways.len(),
        report.timelines.len(),
    );
    println!(
        "         {} pool-full drops, {} causality violations",
        report.drops.len(),
        report.violations.len()
    );
    print!("\n{}", render_counts(&report));

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

    // -- Contention attribution ----------------------------------------
    println!("\ndecoder occupancy by gateway (µs; peak = most decoders in use / pool):");
    println!(
        "  {:>4} {:>8} {:>7} {:>14} {:>14} {:>14}",
        "gw", "net", "peak", "own", "foreign", "unattributed"
    );
    for g in &contention.per_gateway {
        println!(
            "  {:>4} {:>8} {:>7} {:>14} {:>14} {:>14}",
            g.gw,
            g.network.map_or("?".to_string(), |n| n.to_string()),
            format!("{}/{}", g.peak_in_use, g.capacity),
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

    if let Some((path, export)) = chrome {
        match export.finish() {
            Ok(n) => println!("\nwrote {n} chrome trace events to {path}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn beat(i: u64) -> Heartbeat {
        Heartbeat {
            shard: 0,
            seq: i,
            wall_ms: i * 100,
            txs: i * 10,
            events: i * 30,
            events_per_sec: 300.0,
            frontier_us: i * 1_000,
            queue_depth: 2,
            live_slots: 1,
        }
    }

    fn jsonl(beats: impl Iterator<Item = Heartbeat>) -> String {
        let mut text = String::new();
        for hb in beats {
            text.push_str(&serde_json::to_string(&hb).expect("hb serializes"));
            text.push('\n');
        }
        text
    }

    #[test]
    fn the_stream_is_folded_and_handed_on_event_by_event() {
        let info = ObsEvent::GatewayInfo {
            gw: 0,
            network: 1,
            capacity: 16,
        };
        let line = serde_json::to_string(&info).expect("event serializes");
        let text = format!("{line}\n\n{{\"NoSuchEvent\":{{}}}}\n{line}\n");
        let mut events = Vec::new();
        let (report, errors) = read_stream(text.as_bytes(), |ev| {
            events.push(*ev);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.gateways.len(), 2, "both events folded");
        assert_eq!(events, [info, info]);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 3, "line numbers count the blank line");
        let failing = read_stream(text.as_bytes(), |_| Err(io::Error::other("disk full")));
        assert_eq!(
            failing.err().as_deref(),
            Some("write error at line 1: disk full")
        );
    }

    #[test]
    fn counts_list_events_then_outcomes_then_dedup() {
        let mut an = TraceAnalyzer::new();
        for (delivered, cause) in [
            (true, None),
            (false, Some(obs::LossKind::DecoderInter)),
            (false, Some(obs::LossKind::DecoderInter)),
        ] {
            an.observe(&ObsEvent::PacketOutcome {
                t_us: 1,
                trace: 0,
                tx: 0,
                delivered,
                cause,
            });
        }
        an.observe(&ObsEvent::Dedup {
            t_us: 2,
            trace: 0,
            dev: 1,
            fcnt: 0,
            gw: 0,
            outcome: obs::DedupKind::Late,
        });
        let text = render_counts(&an.into_report());
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [
                ["dedup", "1"],
                ["packet_outcome", "3"],
                ["delivered", "1"],
                ["lost:DecoderInter", "2"],
                ["dedup:Late", "1"],
            ]
        );
    }

    #[test]
    fn heartbeat_tail_renders_last_n() {
        let mut text = jsonl((0..5).map(beat));
        text.push_str("not json\n");
        let beats = parse_heartbeats(&text);
        assert_eq!(beats.len(), 5);
        let table = render_heartbeat_tail(&beats, 2);
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("frontier_us"));
    }

    #[test]
    fn a_half_written_heartbeat_is_skipped_until_it_lands() {
        // `--follow` rereads the file while the run appends to it, so
        // the last line may be cut mid-object.
        let whole = jsonl((0..3).map(beat));
        let cut = &whole[..whole.len() - 20];
        assert_eq!(parse_heartbeats(cut).len(), 2);
        let padded = format!("\n  {}\n\n", whole.replace('\n', "  \n"));
        assert_eq!(parse_heartbeats(&padded).len(), 3);
    }

    #[test]
    fn heartbeat_tail_columns_line_up_with_the_header() {
        let mut big = beat(7);
        big.wall_ms = 123_456_789;
        big.txs = 999_999_999_999;
        big.events_per_sec = 1_234_567_890.4;
        let table = render_heartbeat_tail(&[beat(1), big], 2);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = lines[0];
        // Each header word ends where its column's values end.
        let ends: Vec<usize> = header
            .match_indices(|c: char| c != ' ')
            .filter(|&(at, _)| header[at + 1..].starts_with(' ') || at + 1 == header.len())
            .map(|(at, _)| at)
            .collect();
        assert_eq!(ends.len(), 9, "{header}");
        for row in &lines[1..] {
            assert_eq!(row.len(), header.len(), "{row}");
            for &end in &ends {
                assert_ne!(row.as_bytes()[end], b' ', "column ending at {end}: {row}");
                assert!(
                    end + 1 == row.len() || row.as_bytes()[end + 1] == b' ',
                    "column ending at {end}: {row}"
                );
            }
        }
    }

    /// A heartbeat with every field drawn at random.
    fn random_beat(rng: &mut StdRng) -> Heartbeat {
        let mut big = || rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64u32);
        Heartbeat {
            shard: big() as u32,
            seq: big(),
            wall_ms: big(),
            txs: big(),
            events: big(),
            events_per_sec: big() as f64 / 8.0,
            frontier_us: big(),
            queue_depth: big(),
            live_slots: big(),
        }
    }

    /// JSON fragments a heartbeat line is made of, and ways to break it.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\"shard\"",
        "\"seq\"",
        "\"wall_ms\"",
        "\"events_per_sec\"",
        "\"live_slots\"",
        "0",
        "-1",
        "1e400",
        "18446744073709551616",
        "4294967296",
        "0.5",
        "null",
        "true",
        " ",
        "\t",
        "\r",
        "é",
        "\u{0}",
        "\\u0000",
    ];

    /// A line of random tokens, slices of real heartbeat lines, and
    /// the odd random character.
    fn soup_line(rng: &mut StdRng, real: &[String]) -> String {
        let mut line = String::new();
        for _ in 0..rng.gen_range(0..24usize) {
            match rng.gen_range(0..8u8) {
                0 => line.push(char::from_u32(rng.gen_range(0..0x800u32)).unwrap_or('?')),
                1 => {
                    let r = &real[rng.gen_range(0..real.len())];
                    let a = rng.gen_range(0..=r.len());
                    let b = rng.gen_range(a..=r.len());
                    line.push_str(&r[a..b]);
                }
                _ => line.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]),
            }
        }
        line
    }

    /// The head of one real line joined to the tail of another.
    fn spliced_line(rng: &mut StdRng, real: &[String]) -> String {
        let a = &real[rng.gen_range(0..real.len())];
        let b = &real[rng.gen_range(0..real.len())];
        format!(
            "{}{}",
            &a[..rng.gen_range(0..=a.len())],
            &b[rng.gen_range(0..=b.len())..]
        )
    }

    /// Token soup and spliced heartbeats never make the reader panic,
    /// and whatever it returns is a heartbeat that serializes back to
    /// one of the lines it was given.
    #[test]
    fn parse_heartbeats_survives_token_soup_and_spliced_lines() {
        let mut rng = StdRng::seed_from_u64(0x4EA7_BEA7);
        for _ in 0..2_000 {
            let real: Vec<String> = (0..4)
                .map(|_| serde_json::to_string(&random_beat(&mut rng)).expect("hb serializes"))
                .collect();
            let lines: Vec<String> = (0..rng.gen_range(1..12usize))
                .map(|_| match rng.gen_range(0..3u8) {
                    0 => soup_line(&mut rng, &real),
                    1 => spliced_line(&mut rng, &real),
                    _ => real[rng.gen_range(0..real.len())].clone(),
                })
                .collect();
            let text = lines.join("\n");
            for hb in parse_heartbeats(&text) {
                let back = serde_json::to_string(&hb).expect("hb serializes");
                assert!(
                    lines
                        .iter()
                        .any(|l| serde_json::from_str::<Heartbeat>(l.trim())
                            .is_ok_and(|parsed| parsed == hb)),
                    "{back} read from none of the lines of {text:?}"
                );
            }
        }
    }

    /// Whole heartbeat lines, padded with blanks, among lines that
    /// cannot be one (a strict prefix or suffix of a heartbeat, a key
    /// renamed, soup without an opening brace) read back as exactly
    /// the whole lines' heartbeats, in order.
    #[test]
    fn parse_heartbeats_returns_exactly_the_well_formed_lines() {
        let mut rng = StdRng::seed_from_u64(0x0B5E_55ED);
        for _ in 0..2_000 {
            let mut text = String::new();
            let mut want = Vec::new();
            for _ in 0..rng.gen_range(0..12usize) {
                let hb = random_beat(&mut rng);
                let line = serde_json::to_string(&hb).expect("hb serializes");
                let broken = match rng.gen_range(0..6u8) {
                    0 => Some(line[..rng.gen_range(0..line.len())].to_string()),
                    1 => Some(line[rng.gen_range(1..=line.len())..].to_string()),
                    2 => Some(line.replacen("\"seq\"", "\"seq_\"", 1)),
                    3 => Some(soup_line(&mut rng, std::slice::from_ref(&line)).replace('{', "")),
                    _ => None,
                };
                match broken {
                    Some(bad) => text.push_str(&bad),
                    None => {
                        let pad = [" ", "\t", ""][rng.gen_range(0..3)];
                        text.push_str(&format!("{pad}{line}{pad}"));
                        want.push(hb);
                    }
                }
                text.push_str(["\n", "\r\n"][rng.gen_range(0..2)]);
            }
            assert_eq!(parse_heartbeats(&text), want, "{text:?}");
        }
    }

    #[test]
    fn heartbeat_tail_shows_what_there_is() {
        let beats = parse_heartbeats(&jsonl((0..3).map(beat)));
        assert_eq!(render_heartbeat_tail(&beats, 20).lines().count(), 4);
        assert_eq!(render_heartbeat_tail(&beats, 0).lines().count(), 1);
        assert_eq!(render_heartbeat_tail(&[], 20).lines().count(), 1);
        let last = render_heartbeat_tail(&beats, 1);
        let row = last.lines().nth(1).expect("one row");
        assert!(row.trim_start().starts_with("200 "), "newest beat: {row}");
    }
}
