//! Full characterization sweep: run all seven workloads under the
//! profiler, print the paper's headline breakdowns, and check the
//! takeaways programmatically.
//!
//! ```sh
//! cargo run --release --example characterize_all
//! ```

use neurosym::core::takeaways;
use neurosym::core::taxonomy::Phase;
use neurosym::core::{Profiler, Report};
use neurosym::simarch::device::Device;
use neurosym::workloads::all_workloads_small;

fn run_all() -> Vec<Report> {
    let mut reports = Vec::new();
    for mut workload in all_workloads_small() {
        workload
            .prepare()
            .unwrap_or_else(|e| panic!("{} prepare failed: {e}", workload.name()));
        let profiler = Profiler::new();
        {
            let _active = profiler.activate();
            workload
                .run()
                .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
        }
        reports.push(profiler.report_for(workload.name()));
    }
    reports
}

fn main() {
    println!("running LNN, LTN, NVSA, NLM, VSAIT, ZeroC, PrAE ...");
    let reports = run_all();

    println!();
    println!("workload   total_ms   neural   symbolic   sym_bytes   events");
    for r in &reports {
        println!(
            "{:<9} {:>9.2}  {:>6.1}%  {:>8.1}%  {:>9.1}%  {:>7}",
            r.workload(),
            r.total_duration().as_secs_f64() * 1e3,
            r.phase_fraction(Phase::Neural) * 100.0,
            r.phase_fraction(Phase::Symbolic) * 100.0,
            r.phase_bytes_fraction(Phase::Symbolic) * 100.0,
            r.event_count()
        );
    }

    println!();
    println!("== takeaway checks ==");
    let rtx = Device::rtx_2080_ti().roofline();
    let checks = [
        takeaways::check_symbolic_nonnegligible(&reports, 0.01),
        takeaways::check_operator_mix(&reports),
        takeaways::check_roofline_bounds(&reports, &rtx, 0.5),
    ];
    for c in checks {
        println!(
            "  takeaway {}: {}  — {}",
            c.id,
            if c.passed { "PASS" } else { "FAIL" },
            c.detail
        );
    }
}
