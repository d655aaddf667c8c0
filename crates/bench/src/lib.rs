//! # nsai-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation section. Each `figN` module produces structured rows (for
//! tests and CSV export) and a rendered text table (for the `figures`
//! binary). The [`CharacterizationSet`] runs all seven workloads once
//! under the profiler and is shared by every figure that needs
//! cross-workload data.
//!
//! | Module | Paper exhibit |
//! |---|---|
//! | [`fig2a`] | Fig. 2a — neural/symbolic latency share, 7 workloads |
//! | [`fig2b`] | Fig. 2b — NVSA + NLM across TX2 / Xavier NX / RTX |
//! | [`fig2c`] | Fig. 2c — NVSA latency vs RPM grid size |
//! | [`fig3a`] | Fig. 3a — operator-category runtime ratios |
//! | [`fig3b`] | Fig. 3b — memory usage during computation |
//! | [`fig3c`] | Fig. 3c — roofline placement on the RTX 2080 Ti |
//! | [`fig4`] | Fig. 4 — operation-graph critical paths |
//! | [`fig5`] | Fig. 5 — NVSA symbolic-module sparsity per attribute |
//! | [`tab1`] | Tab. I — the five-category taxonomy |
//! | [`rec6`] | Recommendation 6 study — NoC offload sweep (extension) |
//! | [`tab4`] | Tab. IV — kernel-level hardware-inefficiency metrics |

#![warn(missing_docs)]

use nsai_core::event::OpEvent;
use nsai_core::{Profiler, Report};
use nsai_workloads::{Workload, WorkloadOutput};

pub mod cli;
pub mod fig2a;
pub mod fig2b;
pub mod fig2c;
pub mod fig3a;
pub mod fig3b;
pub mod fig3c;
pub mod fig4;
pub mod fig5;
pub mod perf;
pub mod rec6;
pub mod tab1;
pub mod tab4;

/// Run one workload under a fresh profiler.
///
/// `prepare` (training, codebook generation) executes *before* the
/// profiler activates, so the recorded trace covers inference only —
/// matching the paper's measurement protocol.
///
/// # Panics
///
/// Panics if the workload fails — harness configurations are fixed and
/// known-good, so failure indicates a bug.
pub fn profiled_run(workload: &mut dyn Workload) -> (Report, Vec<OpEvent>, WorkloadOutput) {
    workload
        .prepare()
        .unwrap_or_else(|e| panic!("workload {} failed to prepare: {e}", workload.name()));
    let profiler = Profiler::new();
    let output = {
        let _active = profiler.activate();
        workload
            .run()
            .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name()))
    };
    let report = profiler.report_for(workload.name());
    (report, profiler.events(), output)
}

/// One profiled run of each of the seven workloads (small configurations).
#[derive(Debug)]
pub struct CharacterizationSet {
    /// Per-workload aggregated reports, in Tab. III order.
    pub reports: Vec<Report>,
    /// Per-workload raw event traces (same order).
    pub traces: Vec<Vec<OpEvent>>,
    /// Per-workload outputs (same order).
    pub outputs: Vec<WorkloadOutput>,
}

impl CharacterizationSet {
    /// Execute all seven workloads once.
    pub fn collect() -> Self {
        let mut reports = Vec::new();
        let mut traces = Vec::new();
        let mut outputs = Vec::new();
        for mut workload in nsai_workloads::all_workloads_small() {
            let (report, trace, output) = profiled_run(workload.as_mut());
            reports.push(report);
            traces.push(trace);
            outputs.push(output);
        }
        CharacterizationSet {
            reports,
            traces,
            outputs,
        }
    }

    /// Report for a workload by name.
    ///
    /// # Panics
    ///
    /// Panics for unknown names.
    pub fn report(&self, name: &str) -> &Report {
        self.reports
            .iter()
            .find(|r| r.workload() == name)
            .unwrap_or_else(|| panic!("no report for workload {name}"))
    }

    /// Trace for a workload by name.
    ///
    /// # Panics
    ///
    /// Panics for unknown names.
    pub fn trace(&self, name: &str) -> &[OpEvent] {
        let idx = self
            .reports
            .iter()
            .position(|r| r.workload() == name)
            .unwrap_or_else(|| panic!("no trace for workload {name}"));
        &self.traces[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_workloads::vsait::{Vsait, VsaitConfig};

    #[test]
    fn profiled_run_produces_nonempty_report() {
        let mut w = Vsait::new(VsaitConfig::small());
        let (report, trace, output) = profiled_run(&mut w);
        assert!(report.event_count() > 0);
        assert_eq!(trace.len() as u64, report.event_count());
        assert!(output.metric("cycle_consistency").is_some());
    }
}
