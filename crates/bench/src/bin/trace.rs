//! `trace` — export one workload's profiled run as a Chrome trace.
//!
//! ```text
//! trace <WORKLOAD> [OUT.json]
//!
//! WORKLOAD: lnn ltn nvsa nlm vsait zeroc prae
//! ```
//!
//! Load the resulting JSON in `chrome://tracing` or
//! <https://ui.perfetto.dev> to inspect the neural/symbolic timeline — the
//! interactive counterpart of the paper's Fig. 4.

use nsai_bench::cli::{emit, Cli};
use nsai_bench::profiled_run;
use nsai_core::export::to_chrome_trace;
use nsai_workloads::{all_workloads_small, Workload};
use std::fs;

const USAGE: &str = "trace <lnn|ltn|nvsa|nlm|vsait|zeroc|prae> [out.json]";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let Some(name) = cli.next_arg() else {
        cli.bail("missing workload name");
    };
    if name == "--help" || name == "-h" {
        emit(format_args!(
            "trace — export one workload's profiled run as a Chrome trace\n\n\
             usage: {USAGE}\n\n\
             Load the output in chrome://tracing or https://ui.perfetto.dev.\n"
        ));
        return;
    }
    let out_path = cli
        .next_arg()
        .unwrap_or_else(|| format!("results/trace_{name}.json"));
    if let Some(extra) = cli.next_arg() {
        cli.unknown(&extra);
    }

    let mut workload: Box<dyn Workload> =
        match all_workloads_small().into_iter().find(|w| w.name() == name) {
            Some(w) => w,
            None => cli.bail(format!(
                "unknown workload `{name}` (try: lnn ltn nvsa nlm vsait zeroc prae)"
            )),
        };

    eprintln!("running {name} under the profiler...");
    let (report, events, _) = profiled_run(workload.as_mut());
    let json = to_chrome_trace(&events).expect("trace serialization");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(parent);
    }
    fs::write(&out_path, json).expect("write trace file");
    emit(format_args!(
        "wrote {} events ({:.2} ms total) to {out_path}\n\
         open chrome://tracing or https://ui.perfetto.dev and load the file\n",
        report.event_count(),
        report.total_duration().as_secs_f64() * 1e3
    ));
}
