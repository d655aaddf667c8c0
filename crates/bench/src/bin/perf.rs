//! `perf` — continuous characterization harness and regression gate.
//!
//! ```text
//! perf [--out PATH] [--seed N] [--reps K] [--widths 1,4]
//!      [--workloads lnn,nvsa,...] [--list]
//! perf compare <BASELINE.json> <CANDIDATE.json> [--min-tolerance F] [--iqr-mult F]
//! ```
//!
//! The first form runs the deterministic measurement suite and writes a
//! schema-versioned report (default `results/perf_baseline.json`). Two
//! same-seed runs of one revision produce bitwise-identical counter
//! sections — the harness verifies this while measuring and exits 1 if
//! any entry's counters drift between repetitions.
//!
//! The second form gates a candidate report against a baseline:
//! counters must match exactly, wall-clock medians must stay within the
//! per-entry IQR-derived tolerance. Exit codes: 0 pass, 1 gate
//! violation (with a per-entry diff), 2 usage/schema/IO error.

use nsai_bench::cli::Cli;
use nsai_bench::perf::{compare, run_suite, GateOptions, PerfReport, SuiteConfig, WORKLOAD_SUITE};
use nsai_tensor::par;
use std::fs;
use std::path::Path;

const USAGE: &str = "perf [--out PATH] [--seed N] [--reps K] [--widths 1,4] \
                     [--workloads NAMES] [--list]\n\
       perf compare <BASELINE.json> <CANDIDATE.json> [--min-tolerance F] [--iqr-mult F]";

fn print_help() {
    println!(
        "perf — deterministic perf suite and regression gate\n\n\
         usage: {USAGE}\n\n\
         Measures operator microbenchmarks, per-workload phase\n\
         breakdowns, an in-process serve-stack sample (batched and\n\
         unbatched) and the design-choice ablations (ablate/...), with\n\
         K interleaved repetitions, and writes a perf_report/v1 JSON\n\
         (median + IQR wall clock, exact work counters). Micro entries\n\
         and the pool-width ablations run at each --widths value\n\
         (distinct, 1..={max}; `--widths 1,2,4,8` is the thread sweep);\n\
         the workloads and the other ablations run at width 1. Wire\n\
         time is not measured here: nsbench measures it socket to\n\
         socket. `compare` gates a candidate against a baseline:\n\
         counters must match exactly; wall-clock medians may move\n\
         within a per-entry tolerance derived from both reports'\n\
         IQRs.\n\n\
         exit codes: 0 ok/pass, 1 gate violation or nondeterministic\n\
         entry, 2 usage/schema/IO error.\n\n\
         workloads: {workloads}",
        max = par::MAX_THREADS,
        workloads = WORKLOAD_SUITE.join(" "),
    );
}

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let mut config = SuiteConfig::default();
    let mut out_path = String::from("results/perf_baseline.json");

    let first = cli.next_arg();
    if first.as_deref() == Some("compare") {
        run_compare(cli);
    }

    let mut pending = first;
    while let Some(arg) = pending.take().or_else(|| cli.next_arg()) {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                return;
            }
            "--list" => {
                for name in WORKLOAD_SUITE {
                    println!("{name}");
                }
                return;
            }
            "--out" => out_path = cli.value("--out").unwrap_or_else(|e| cli.bail(e)),
            "--seed" => config.seed = cli.parsed("--seed").unwrap_or_else(|e| cli.bail(e)),
            "--reps" => {
                config.repetitions = cli.parsed("--reps").unwrap_or_else(|e| cli.bail(e));
                if config.repetitions == 0 {
                    cli.bail("`--reps` must be at least 1");
                }
            }
            "--widths" => {
                let raw = cli.list("--widths").unwrap_or_else(|e| cli.bail(e));
                config.widths = parse_widths(&raw).unwrap_or_else(|e| cli.bail(e));
            }
            "--workloads" => {
                config.workloads = cli.list("--workloads").unwrap_or_else(|e| cli.bail(e));
            }
            other => cli.unknown(other),
        }
    }

    eprintln!(
        "perf suite: seed {}, {} repetitions, widths {:?}",
        config.seed, config.repetitions, config.widths
    );
    let report = match run_suite(&config, |line| eprintln!("  {line}")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    for entry in &report.entries {
        println!(
            "{:<44} {:>12.3} ms  (iqr {:>10.3} ms, {} counters)",
            entry.id,
            entry.wall.median_ms(),
            entry.wall.iqr_ns as f64 / 1e6,
            entry.counters.len(),
        );
    }

    if let Some(parent) = Path::new(&out_path).parent() {
        if let Err(e) = fs::create_dir_all(parent) {
            eprintln!("error: could not create {}: {e}", parent.display());
            std::process::exit(2);
        }
    }
    let json = report.to_json_string();
    if let Err(e) = fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "wrote {out_path} ({} entries, {} bytes)",
        report.entries.len(),
        json.len()
    );
}

/// Parse `--widths`: each a distinct pool width in `1..=MAX_THREADS`.
/// `par::with_threads` would clamp anything else, so the entry ids would
/// name a width that was never measured, and a repeated width would fold
/// two entries into one.
fn parse_widths(raw: &[String]) -> Result<Vec<usize>, String> {
    let mut widths = Vec::new();
    for w in raw {
        let width: usize = w
            .parse()
            .map_err(|e| format!("`--widths` got `{w}`: {e}"))?;
        if !(1..=par::MAX_THREADS).contains(&width) {
            return Err(format!(
                "`--widths` got {width}: each width must be in 1..={}",
                par::MAX_THREADS
            ));
        }
        if widths.contains(&width) {
            return Err(format!("`--widths` lists {width} twice"));
        }
        widths.push(width);
    }
    Ok(widths)
}

fn read_report(cli: &Cli, path: &str) -> PerfReport {
    let raw = match fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => cli.bail(format!("could not read `{path}`: {e}")),
    };
    match PerfReport::from_json_str(&raw) {
        Ok(report) => report,
        Err(e) => cli.bail(format!("`{path}`: {e}")),
    }
}

fn run_compare(mut cli: Cli) -> ! {
    let mut options = GateOptions::default();
    let mut paths: Vec<String> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--min-tolerance" => {
                options.min_tolerance = cli
                    .parsed("--min-tolerance")
                    .unwrap_or_else(|e| cli.bail(e));
                if options.min_tolerance.is_nan() || options.min_tolerance < 0.0 {
                    cli.bail("`--min-tolerance` must be a non-negative fraction");
                }
            }
            "--iqr-mult" => {
                options.iqr_multiplier = cli.parsed("--iqr-mult").unwrap_or_else(|e| cli.bail(e));
                if options.iqr_multiplier.is_nan() || options.iqr_multiplier < 0.0 {
                    cli.bail("`--iqr-mult` must be non-negative");
                }
            }
            other if other.starts_with("--") => cli.unknown(other),
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        cli.bail("compare takes exactly <BASELINE.json> <CANDIDATE.json>");
    };
    let baseline = read_report(&cli, baseline_path);
    let candidate = read_report(&cli, candidate_path);
    match compare(&baseline, &candidate, options) {
        Ok(result) => {
            print!("{}", result.render());
            std::process::exit(if result.passed() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
