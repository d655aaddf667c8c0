//! Fig. 2c — NVSA latency scalability across RPM task sizes.
//!
//! The paper sweeps the RPM grid from 2×2 to 3×3 and observes (1) the
//! neural/symbolic ratio stays roughly stable, and (2) total latency grows
//! super-linearly with task size (5.02× for a 2.25× cell increase on
//! their testbed). This harness runs the same sweep plus a two-component
//! point, and reports host latency next to bytes moved; the test asserts
//! the shape on bytes, which repeat exactly on any host.

use crate::profiled_run;
use nsai_core::taxonomy::Phase;
use nsai_workloads::nvsa::{Nvsa, NvsaConfig};
use nsai_workloads::perception::PerceptionMode;
use serde::Serialize;

/// One task-size measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2cRow {
    /// Grid side (2 or 3).
    pub grid: usize,
    /// Rule components per problem (RAVEN configuration complexity).
    pub components: usize,
    /// Task size measure: grid cells × components.
    pub cells: usize,
    /// Host-measured total milliseconds.
    pub total_ms: f64,
    /// Host-measured symbolic share.
    pub symbolic: f64,
    /// Total bytes moved, in MB.
    pub total_mb: f64,
    /// Symbolic share of bytes moved.
    pub bytes_symbolic: f64,
    /// Reasoning accuracy at this size.
    pub accuracy: f64,
}

/// Configuration for one sweep point.
fn config_for(grid: usize, components: usize) -> NvsaConfig {
    NvsaConfig {
        grid,
        dim: 2048,
        res: 16,
        mode: PerceptionMode::Oracle { noise: 0.05 },
        problems: 2,
        components,
        seed: 42,
    }
}

/// Generate the sweep: grid growth (paper's axis) plus a multi-component
/// point (RAVEN's configuration-complexity axis).
pub fn generate() -> Vec<Fig2cRow> {
    [(2usize, 1usize), (3, 1), (3, 2)]
        .iter()
        .map(|&(grid, components)| {
            let mut nvsa = Nvsa::new(config_for(grid, components));
            let (report, _, output) = profiled_run(&mut nvsa);
            Fig2cRow {
                grid,
                components,
                cells: grid * grid * components,
                total_ms: report.total_duration().as_secs_f64() * 1e3,
                symbolic: report.phase_fraction(Phase::Symbolic),
                total_mb: report.total_bytes() as f64 / 1e6,
                bytes_symbolic: report.phase_bytes_fraction(Phase::Symbolic),
                accuracy: output.metric("accuracy").unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Render the figure as a text table, including the growth factor.
pub fn render(rows: &[Fig2cRow]) -> String {
    let mut out = String::from(
        "== Fig. 2c: NVSA latency vs RPM task size ==\n\
         grid   comps  cells   total_ms   symbolic   total_mb  bytes_symbolic  accuracy\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<6} {:<7} {:>8.2}  {:>8.1}%  {:>8.2}  {:>13.1}%  {:>8.2}\n",
            format!("{0}x{0}", r.grid),
            r.components,
            r.cells,
            r.total_ms,
            r.symbolic * 100.0,
            r.total_mb,
            r.bytes_symbolic * 100.0,
            r.accuracy
        ));
    }
    if rows.len() >= 2 {
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        out.push_str(&format!(
            "latency growth {:.2}x, bytes growth {:.2}x, for a {:.2}x task-size increase \
             (paper: 5.02x latency for 2.25x)\n",
            last.total_ms / first.total_ms,
            last.total_mb / first.total_mb,
            last.cells as f64 / first.cells as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape is asserted on bytes moved, which the sweep repeats
    /// exactly; host latency is reported alongside.
    #[test]
    fn latency_grows_superlinearly_with_stable_symbolic_share() {
        let rows = generate();
        assert_eq!(rows.len(), 3);
        let (g2, g3) = (&rows[0], &rows[1]);
        let size_ratio = g3.cells as f64 / g2.cells as f64; // 2.25
        let bytes_ratio = g3.total_mb / g2.total_mb;
        assert!(
            bytes_ratio > size_ratio,
            "bytes {bytes_ratio:.2}x vs size {size_ratio:.2}x"
        );
        // Symbolic share stays within 15 percentage points (paper: ~4pp).
        assert!(
            (g2.bytes_symbolic - g3.bytes_symbolic).abs() < 0.15,
            "shares {:.2} vs {:.2}",
            g2.bytes_symbolic,
            g3.bytes_symbolic
        );
        // Reasoning quality holds at both sizes.
        assert!(g2.accuracy >= 0.5);
        assert!(g3.accuracy >= 0.5);
        // The multi-component point: double the rule systems ≈ double the
        // work, accuracy preserved.
        let multi = &rows[2];
        assert!(
            multi.total_mb > g3.total_mb * 1.5,
            "{} vs {}",
            multi.total_mb,
            g3.total_mb
        );
        assert!(multi.accuracy >= 0.5);
    }
}
