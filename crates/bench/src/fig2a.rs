//! Fig. 2a — end-to-end neural vs. symbolic latency share for the seven
//! representative workloads.
//!
//! Three shares are reported per workload:
//!
//! - **host**: measured wall-clock share on this machine (both phases run
//!   on the same CPU, which *under*-represents the symbolic share relative
//!   to the paper, whose neural frontends ran on an accelerator);
//! - **projected**: the share after projecting the recorded trace onto the
//!   RTX 2080 Ti device model — the apples-to-apples comparison with the
//!   paper's measurement;
//! - **bytes**: the symbolic share of bytes moved, the measure the shape
//!   checks assert on, because it repeats exactly on any host.

use crate::CharacterizationSet;
use nsai_core::taxonomy::Phase;
use nsai_simarch::device::Device;
use nsai_simarch::project::project_trace;
use serde::Serialize;

/// One workload's latency breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2aRow {
    /// Workload name.
    pub workload: String,
    /// Host-measured total milliseconds.
    pub host_total_ms: f64,
    /// Host-measured neural share in `[0, 1]`.
    pub host_neural: f64,
    /// Host-measured symbolic share in `[0, 1]`.
    pub host_symbolic: f64,
    /// RTX-projected symbolic share in `[0, 1]`.
    pub projected_symbolic: f64,
    /// Symbolic share of bytes moved in `[0, 1]`.
    pub bytes_symbolic: f64,
    /// Paper's measured symbolic share (for the EXPERIMENTS.md diff).
    pub paper_symbolic: f64,
}

/// Paper-reported symbolic shares (Sec. V-A), in Tab. III workload order.
pub const PAPER_SYMBOLIC_SHARE: [(&str, f64); 7] = [
    ("lnn", 0.454),
    ("ltn", 0.520),
    ("nvsa", 0.921),
    ("nlm", 0.606),
    ("vsait", 0.837),
    ("zeroc", 0.268),
    ("prae", 0.805),
];

/// Generate the figure's rows from a characterization set.
pub fn generate(set: &CharacterizationSet) -> Vec<Fig2aRow> {
    let rtx = Device::rtx_2080_ti();
    set.reports
        .iter()
        .zip(&set.traces)
        .map(|(report, trace)| {
            let projected = project_trace(trace, &rtx);
            let paper = PAPER_SYMBOLIC_SHARE
                .iter()
                .find(|(n, _)| *n == report.workload())
                .map(|(_, s)| *s)
                .unwrap_or(f64::NAN);
            Fig2aRow {
                workload: report.workload().to_owned(),
                host_total_ms: report.total_duration().as_secs_f64() * 1e3,
                host_neural: report.phase_fraction(Phase::Neural),
                host_symbolic: report.phase_fraction(Phase::Symbolic),
                projected_symbolic: projected.symbolic_fraction(),
                bytes_symbolic: report.phase_bytes_fraction(Phase::Symbolic),
                paper_symbolic: paper,
            }
        })
        .collect()
}

/// Render the figure as a text table.
pub fn render(rows: &[Fig2aRow]) -> String {
    let mut out = String::from(
        "== Fig. 2a: neural vs symbolic latency share ==\n\
         workload   host_ms   host_neural  host_symbolic  rtx_symbolic  bytes_symbolic  paper_symbolic\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>9.2}   {:>10.1}%  {:>12.1}%  {:>11.1}%  {:>13.1}%  {:>13.1}%\n",
            r.workload,
            r.host_total_ms,
            r.host_neural * 100.0,
            r.host_symbolic * 100.0,
            r.projected_symbolic * 100.0,
            r.bytes_symbolic * 100.0,
            r.paper_symbolic * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_seven_workloads_with_sane_shares() {
        let set = CharacterizationSet::collect();
        let rows = generate(&set);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                (r.host_neural + r.host_symbolic - 1.0).abs() < 1e-9,
                "{}: shares do not sum to 1",
                r.workload
            );
            assert!(r.host_symbolic > 0.0, "{}: no symbolic work", r.workload);
            assert!(r.host_total_ms > 0.0);
        }
        // Headline shapes, by bytes moved: NVSA symbolic-dominated, ZeroC
        // neural-dominated.
        let nvsa = rows.iter().find(|r| r.workload == "nvsa").unwrap();
        assert!(
            nvsa.bytes_symbolic > 0.5,
            "nvsa symbolic {}",
            nvsa.bytes_symbolic
        );
        let zeroc = rows.iter().find(|r| r.workload == "zeroc").unwrap();
        let zeroc_neural = 1.0 - zeroc.bytes_symbolic;
        assert!(zeroc_neural > 0.5, "zeroc neural {zeroc_neural}");
        let text = render(&rows);
        assert!(text.contains("nvsa"));
    }
}
