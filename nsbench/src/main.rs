//! `nsbench` — socket-to-socket serving benchmark.
//!
//! ```text
//! nsbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--trace-out PATH]
//! nsbench --list | --help
//! ```
//!
//! Prints a header, one line per metric, and as its last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a served response differs from direct execution or the run
//! cannot complete, and 2 on a usage error.

use nsai_bench::cli::Cli;
use nsai_gateway::GatewayConfig;
use nsai_serve::ServeConfig;
use nsbench::run::{self, Metrics, Report};
use nsbench::spec::{self, Arrivals, MetricDef, Spec, DEFAULT_SECONDS};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "nsbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] \
                     [--trace-out PATH] | --list | --help";

fn help() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
    format!(
        "nsbench — socket-to-socket serving benchmark\n\n\
         usage: {USAGE}\n\n\
         Runs one workload ({}) against a real serve runtime behind a\n\
         loopback gateway, both with default configs.\n\n\
         --workload <name>  traffic mix to run (see --list)\n\
         --seed N           seed for arrivals, classes and case ids (default 1)\n\
         --seconds N        measured window in seconds (default {DEFAULT_SECONDS})\n\
         --trace 0|1        0: end-to-end metrics; 1: per-layer metrics from an\n\
         \x20                  untraced and a traced half window plus a direct\n\
         \x20                  profiled replay, and a Chrome trace\n\
         --trace-out PATH   Chrome trace of a traced run\n\
         \x20                  (default target/nsbench-trace-<workload>-<seed>.json)\n\
         --list             print the workloads and why each is here\n\n\
         Exit status: 0 ok, 1 output mismatch or failed run, 2 usage error.",
        names.join(", ")
    )
}

fn describe(spec: &Spec) -> String {
    let arrivals = match spec.arrivals {
        Arrivals::Open { rate_hz } => format!("open loop {rate_hz} req/s"),
        Arrivals::Closed => "closed loop, 1 client".to_string(),
    };
    let mix: Vec<String> = spec
        .mix
        .iter()
        .map(|(class, share)| format!("{}:{share}", class.name()))
        .collect();
    format!(
        "{arrivals}, mix {}, {} connection(s)",
        mix.join("+"),
        spec.connections()
    )
}

/// Order `metrics` by the catalog, pairing each value with its unit.
/// Panics when the run produced a different set of names than the
/// catalog declares — a bug in this binary, not in the program measured.
fn catalog_json(defs: &[MetricDef], metrics: &Metrics) -> Value {
    let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let produced: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, produced, "emitted metrics differ from the catalog");
    Value::Object(
        defs.iter()
            .map(|d| {
                let value = metrics[&d.name];
                println!("{:<36} {value:>14.4} {}", d.name, d.unit);
                (
                    d.name.clone(),
                    serde_json::json!({"value": value, "unit": d.unit}),
                )
            })
            .collect(),
    )
}

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let mut workload: Option<String> = None;
    let mut seed: u64 = 1;
    let mut seconds: u64 = DEFAULT_SECONDS;
    let mut trace = false;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--workload" => {
                workload = Some(cli.value("--workload").unwrap_or_else(|e| cli.bail(e)))
            }
            "--seed" => seed = cli.parsed("--seed").unwrap_or_else(|e| cli.bail(e)),
            "--seconds" => seconds = cli.parsed("--seconds").unwrap_or_else(|e| cli.bail(e)),
            "--trace" => {
                trace = match cli
                    .value("--trace")
                    .unwrap_or_else(|e| cli.bail(e))
                    .as_str()
                {
                    "0" => false,
                    "1" => true,
                    other => cli.bail(format!("`--trace` takes 0 or 1, got `{other}`")),
                }
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    cli.value("--trace-out").unwrap_or_else(|e| cli.bail(e)),
                ));
            }
            "--list" => {
                for spec in &spec::WORKLOADS {
                    println!(
                        "{:<18} {}\n{:<18} {}",
                        spec.name,
                        describe(spec),
                        "",
                        spec.why
                    );
                }
                return;
            }
            "--help" | "-h" => {
                println!("{}", help());
                return;
            }
            other => cli.unknown(other),
        }
    }
    let Some(name) = workload else {
        cli.bail("`--workload` is required (see --list)");
    };
    let Some(spec) = spec::find(&name) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        cli.bail(format!(
            "unknown workload `{name}` (valid: {})",
            names.join(", ")
        ));
    };
    if seconds == 0 {
        cli.bail("`--seconds` must be positive");
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var("NEUROSYM_THREADS").unwrap_or_else(|_| "unset".to_string());
    println!(
        "# nsbench workload={} seed={seed} seconds={seconds} trace={} nproc={nproc} \
         NEUROSYM_THREADS={threads}",
        spec.name,
        u8::from(trace)
    );
    println!(
        "# {}; warm-up {}/class, setup 2 rounds x{}-{} (>= {} s each), replay {}/class, \
         check first {} + every {}th/class",
        describe(spec),
        spec::WARMUP_PER_CLASS,
        spec::SETUP_MIN_REPS,
        spec::SETUP_MAX_REPS,
        spec::SETUP_MIN_SECONDS,
        spec::REPLAY_CASES,
        spec::CHECK_HEAD,
        spec::CHECK_STRIDE
    );
    println!(
        "# {:?} {:?}",
        ServeConfig::default(),
        GatewayConfig::default()
    );

    let window = Duration::from_secs(seconds);
    let outcome = if trace {
        run::run_traced(spec, seed, window)
    } else {
        run::run_e2e(spec, seed, window)
    };
    let report: Report = outcome.unwrap_or_else(|e| {
        eprintln!("error: {} run failed: {e}", spec.name);
        std::process::exit(1);
    });

    let defs = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let metrics = catalog_json(&defs, &report.metrics);
    if let Some(trace_json) = &report.trace {
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(format!("target/nsbench-trace-{}-{seed}.json", spec.name))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace_json));
        if let Err(e) = written {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("# chrome trace: {}", path.display());
    }
    println!(
        "# {} requests, {} failed; output check: {} compared, {} mismatched",
        report.attempted, report.failed, report.check.checked, report.check.mismatches
    );
    let correct = report.check.mismatches == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": report.attempted as u64,
        "failed": report.failed as u64,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    if !correct {
        std::process::exit(1);
    }
}
