//! The experiment runner: `all_experiments [name…]` regenerates the
//! named table/figure experiments (`fig13_scale`, `table04_gateways`, …;
//! none named = all of them, in registry order, the heavier Fig 13 /
//! Fig 21 last), writing their CSVs into `results/` (`bench::Table::emit`).
//! `--obs-out <DIR>` is read by `bench::obs_session`.
use std::time::Instant;

/// `(name, run)` per experiment module of `bench::experiments`.
macro_rules! registry {
    ($($name:ident),* $(,)?) => {
        &[$((stringify!($name), bench::experiments::$name::run as fn())),*]
    };
}

const EXPERIMENTS: &[(&str, fn())] = registry![
    table02_operators,
    table03_strategies,
    table04_gateways,
    fig18_spectrum_regions,
    fig02_capacity_gap,
    fig03_lockon_fcfs,
    fig05_strategies,
    fig06_adr_cells,
    fig07_directional,
    fig08_overlap,
    fig16_threshold,
    fig12a_gateways,
    fig12b_spectrum,
    fig12c_contention,
    fig12de_sharing,
    fig14_partial_adoption,
    fig15_fairness,
    fig17_latency,
    ablation_solvers,
    fig04_loss_breakdown,
    fig13_scale,
    fig21_longterm,
];

fn main() {
    // Positional arguments name experiments; `--obs-out <DIR>` (or
    // `--obs-out=<DIR>`) belongs to the observability session.
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--obs-out" {
            args.next();
        } else if !a.starts_with("--obs-out=") {
            names.push(a);
        }
    }
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| !EXPERIMENTS.iter().any(|(e, _)| e == n))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|&(e, _)| e).collect();
        eprintln!("unknown experiment {unknown:?}; the registry:");
        eprintln!("  {}", known.join(" "));
        eprintln!("usage: all_experiments [--obs-out <DIR>] [name…]   (no name = all)");
        std::process::exit(2);
    }

    let total = Instant::now();
    for &(name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let t = Instant::now();
        println!("\n######## {name} ########");
        run();
        println!("[{name} finished in {:.1} s]", t.elapsed().as_secs_f64());
    }
    println!(
        "\nall experiments done in {:.1} s",
        total.elapsed().as_secs_f64()
    );
}
