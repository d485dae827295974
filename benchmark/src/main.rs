//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! alphawan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! alphawan-benchmark --all [--seed n] [--seconds s] [--runs n] [--trace] [--smoke] [--out dir]
//! alphawan-benchmark --compare <a.json> <b.json>
//! alphawan-benchmark --emit-spec
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.

mod compare;
mod harness;
mod spec;
mod workloads;

use harness::{Outcome, RunCfg, Tracer};
use serde::Value;
use spec::obj;
use std::path::Path;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    emit_spec: bool,
    runs: usize,
    cfg: RunCfg,
}

fn usage() -> ! {
    eprintln!(
        "usage: alphawan-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       alphawan-benchmark --all [--seed n] [--seconds s] [--runs n] [--trace] [--smoke] [--out dir]\n       alphawan-benchmark --compare <a.json> <b.json>\n       alphawan-benchmark --emit-spec",
        spec::workload_names().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        emit_spec: false,
        runs: 1,
        cfg: RunCfg {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out_dir: "benchmark/out".to_string(),
        },
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.cfg.seconds = value("--seconds").parse().unwrap_or_else(|_| usage())
            }
            "--runs" => args.runs = value("--runs").parse().unwrap_or_else(|_| usage()),
            "--out" => args.cfg.out_dir = value("--out"),
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.cfg.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.cfg.smoke = true,
            "--all" => args.all = true,
            "--emit-spec" => args.emit_spec = true,
            "--compare" => args.compare = Some((value("--compare"), value("--compare"))),
            _ => {
                eprintln!("unknown argument {a}");
                usage()
            }
        }
    }
    if args.cfg.smoke {
        args.cfg.seconds = args.cfg.seconds.min(1.0);
    }
    args
}

/// Spans that enclose a repetition, round or phase; the spans around
/// layer calls are their children.
const ROOT_SPANS: [&str; 5] = [
    "sim.run_streamed",
    "plan.round",
    "svc.saturation",
    "svc.open_lo",
    "svc.open_hi",
];

/// Cost of one span, by timing spans around nothing.
fn span_cost_s() -> f64 {
    let mut t = Tracer::new(true);
    let n = 100_000;
    let (_, s) = harness::timed(|| {
        for i in 0..n {
            let id = t.open("calibrate", harness::SpanId::NONE, i);
            t.close(id);
        }
    });
    s / n as f64
}

/// Run one workload here and print its result line.
fn run_one(workload: &str, cfg: &RunCfg) -> ExitCode {
    if !spec::workload_names().contains(&workload) {
        eprintln!("unknown workload {workload}");
        usage();
    }
    let mut tracer = Tracer::new(cfg.trace);
    let (mut out, wall_s): (Outcome, f64) =
        harness::timed(|| workloads::run(workload, cfg, &mut tracer));

    if cfg.trace {
        // Coverage: the self time of the spans around layer calls as a
        // share of the spans that enclose them.
        let roots: f64 = ROOT_SPANS.iter().map(|n| tracer.total(n)).sum();
        let attributed: f64 = tracer
            .self_times()
            .iter()
            .filter(|(name, _)| !ROOT_SPANS.contains(name) && **name != "svc.verify")
            .map(|(_, s)| s)
            .sum();
        out.set(
            "trace.coverage",
            if roots > 0.0 { attributed / roots } else { 0.0 },
        );
        out.set("trace.spans", tracer.len() as f64);
        // The sim workloads measure the overhead by alternating wrapped
        // and plain repetitions; elsewhere it is spans × cost per span.
        if !out.metrics.contains_key("obs.trace_overhead_frac") {
            out.set(
                "obs.trace_overhead_frac",
                tracer.len() as f64 * span_cost_s() / wall_s.max(1e-12),
            );
        }
        let path = Path::new(&cfg.out_dir).join(format!("trace-{workload}.json"));
        if let Err(e) = tracer.write_chrome(&path) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }

    let reported = out.finish(cfg.trace);
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  wall {wall_s:.1} s",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for (d, v) in &reported {
        println!("  {:<36} {:>16.6} {}", d.name, v, d.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        out.attempted, out.failed
    );
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    let samples = Value::Object(
        out.samples
            .iter()
            .map(|(k, v)| (k.to_string(), Value::U64(*v)))
            .collect(),
    );
    println!(
        "#samples {}",
        serde_json::to_string(&samples).expect("serializes")
    );
    let metrics = Value::Object(
        reported
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    obj(vec![
                        ("value", Value::F64(*v)),
                        ("unit", Value::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(out.attempted.max(1))),
        ("failed", Value::U64(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", serde_json::to_string(&line).expect("serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host a result file was measured on.
fn host_fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("cpu_model", Value::Str(cpu)),
        ("nproc", Value::U64(nproc as u64)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "link",
            Value::Str("host loopback interface, not a real link".to_string()),
        ),
    ])
}

/// One child run: its parsed result line and `#samples` line.
fn child_run(workload: &str, cfg: &RunCfg, seed: u64, trace: bool) -> Option<(Value, Value)> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &cfg.out_dir]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("child starts");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = serde_json::from_str::<Value>(text.lines().last()?).ok()?;
    let samples = text
        .lines()
        .find_map(|l| l.strip_prefix("#samples "))
        .and_then(|s| serde_json::from_str::<Value>(s).ok())
        .unwrap_or(Value::Null);
    Some((result, samples))
}

/// `--all`: every workload in a process of its own, one after another,
/// `runs` times untraced (seeds `seed`, `seed + 1`, …) and, with
/// `--trace`, once more traced; the lot goes to `<out>/result.json`.
fn run_all(args: &Args) -> ExitCode {
    let cfg = &args.cfg;
    let mut ok = true;
    // One child run as a result-file entry; a run that printed no
    // result line or failed its checks fails the whole command.
    let mut entry = |name: &str, seed: u64, trace: bool| -> Option<Value> {
        let Some((result, samples)) = child_run(name, cfg, seed, trace) else {
            eprintln!("{name}: run printed no result line");
            ok = false;
            return None;
        };
        ok &= serde::field(result.as_object().unwrap_or(&[]), "correct") == &Value::Bool(true);
        Some(obj(vec![
            ("seed", Value::U64(seed)),
            ("result", result),
            ("samples", samples),
        ]))
    };
    let mut workloads = Vec::new();
    for name in spec::workload_names() {
        let runs: Vec<Value> = (0..args.runs.max(1) as u64)
            .filter_map(|i| entry(name, cfg.seed + i, false))
            .collect();
        let mut fields = vec![
            ("name", Value::Str(name.to_string())),
            ("runs", Value::Array(runs)),
        ];
        if cfg.trace {
            if let Some(traced) = entry(name, cfg.seed, true) {
                fields.push(("traced", traced));
            }
        }
        workloads.push(obj(fields));
    }
    let doc = obj(vec![
        ("schema", Value::U64(1)),
        ("host", host_fingerprint()),
        ("seed", Value::U64(cfg.seed)),
        ("seconds", Value::F64(cfg.seconds)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("runs_per_workload", Value::U64(args.runs.max(1) as u64)),
        ("workloads", Value::Array(workloads)),
    ]);
    let path = Path::new(&cfg.out_dir).join("result.json");
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|_| std::fs::write(&path, serde_json::to_string(&doc).expect("serializes")));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_spec {
        println!("{}", spec::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.all {
        return run_all(&args);
    }
    match &args.workload {
        Some(w) => run_one(w, &args.cfg),
        None => usage(),
    }
}
