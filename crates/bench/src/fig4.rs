//! Fig. 4 — operation-graph dependency analysis.
//!
//! The pipelined workloads (NVSA, VSAIT, PrAE) place their symbolic stage
//! strictly after the neural stage (plus a host→device transfer), so
//! symbolic work lies on the critical path; the compiled workloads (LNN,
//! LTN, NLM, ZeroC) interleave phases layer by layer. Graphs are built
//! from each workload's measured stage costs and analyzed for
//! critical-path composition and available parallelism (Takeaway 5).
//! The analyzed graph weights each stage by the bytes it moves, which
//! repeat exactly on any host; the critical path's host time is
//! reported alongside.

use crate::CharacterizationSet;
use nsai_core::taxonomy::{OpCategory, Phase};
use nsai_core::Report;
use nsai_simarch::opgraph::OpGraph;
use serde::Serialize;

/// Pipeline structure of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GraphShape {
    /// Neural stage feeds the symbolic stage (Neuro|Symbolic).
    Pipelined,
    /// Phases interleave layer by layer (compiled-in symbolic knowledge).
    Compiled,
}

/// Which shape each workload has (Sec. V-D's partition).
pub fn shape_of(workload: &str) -> GraphShape {
    match workload {
        "nvsa" | "vsait" | "prae" => GraphShape::Pipelined,
        _ => GraphShape::Compiled,
    }
}

/// One workload's graph statistics.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: String,
    /// Graph shape.
    pub shape: GraphShape,
    /// Host-measured critical-path length in milliseconds.
    pub critical_path_ms: f64,
    /// Symbolic share of the critical path, stages weighted by bytes
    /// moved.
    pub critical_symbolic: f64,
    /// Available parallelism (total work / critical path), stages
    /// weighted by bytes moved.
    pub parallelism: f64,
}

/// Build the operation graph of one workload, each stage weighted by the
/// bytes it moved in `report`.
pub fn graph_for(report: &Report) -> OpGraph {
    stage_graph(
        shape_of(report.workload()),
        report.phase_bytes(Phase::Neural) as f64,
        report.cell(Phase::Symbolic, OpCategory::DataMovement).bytes as f64,
        report.phase_bytes(Phase::Symbolic) as f64,
    )
}

/// The graph of `shape` from its stage costs, in any one unit: the
/// neural phase, the symbolic phase's data movement (the stage transfer
/// of a pipelined workload), and the whole symbolic phase.
fn stage_graph(shape: GraphShape, neural: f64, transfer: f64, symbolic: f64) -> OpGraph {
    match shape {
        GraphShape::Pipelined => {
            let reasoning = (symbolic - transfer).max(0.0);
            // Split the symbolic chain into its canonical stages.
            OpGraph::pipelined(
                neural,
                transfer,
                &[
                    ("scene_inference", reasoning * 0.2),
                    ("rule_detection", reasoning * 0.6),
                    ("rule_execution", reasoning * 0.2),
                ],
            )
        }
        GraphShape::Compiled => {
            // Interleave over a nominal layer count.
            let layers = 4usize;
            let per = |total: f64| total / layers as f64;
            OpGraph::compiled(&vec![(per(neural), per(symbolic)); layers])
        }
    }
}

/// Generate the figure's rows.
pub fn generate(set: &CharacterizationSet) -> Vec<Fig4Row> {
    set.reports
        .iter()
        .map(|report| {
            let stats = graph_for(report).analyze();
            let host = stage_graph(
                shape_of(report.workload()),
                report.phase_duration(Phase::Neural).as_secs_f64(),
                report
                    .cell(Phase::Symbolic, OpCategory::DataMovement)
                    .duration
                    .as_secs_f64(),
                report.phase_duration(Phase::Symbolic).as_secs_f64(),
            )
            .analyze();
            Fig4Row {
                workload: report.workload().to_owned(),
                shape: shape_of(report.workload()),
                critical_path_ms: host.critical_path_s * 1e3,
                critical_symbolic: stats.symbolic_critical_fraction(),
                parallelism: stats.parallelism,
            }
        })
        .collect()
}

/// Render the figure as a text table.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::from(
        "== Fig. 4: operation-graph critical paths ==\n\
         workload   shape       critical_ms   sym_bytes_on_critical   parallelism\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<11} {:>10.2}   {:>20.1}%   {:>10.2}\n",
            r.workload,
            format!("{:?}", r.shape),
            r.critical_path_ms,
            r.critical_symbolic * 100.0,
            r.parallelism
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::takeaways::check_critical_path;

    #[test]
    fn symbolic_is_on_every_critical_path() {
        let set = CharacterizationSet::collect();
        let rows = generate(&set);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            // Takeaway 5 is about *presence* on the critical path: the
            // symbolic stage cannot be hidden behind the neural stage.
            let t5 = check_critical_path(&r.workload, r.critical_symbolic, 0.001);
            assert!(t5.passed, "{}", t5.detail);
            // Sequential dependency structure: almost no extractable
            // parallelism within a single inference.
            assert!(
                r.parallelism < 1.5,
                "{}: parallelism {}",
                r.workload,
                r.parallelism
            );
        }
        // Pipelined workloads are fully serial with symbolic-heavy paths.
        for r in rows.iter().filter(|r| r.shape == GraphShape::Pipelined) {
            assert!((r.parallelism - 1.0).abs() < 1e-9, "{}", r.workload);
            let t5 = check_critical_path(&r.workload, r.critical_symbolic, 0.25);
            assert!(t5.passed, "{}", t5.detail);
        }
    }
}
