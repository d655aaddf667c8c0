//! Aggregation of an operator-event trace into the characterization tables
//! the paper reports.
//!
//! A [`Report`] answers, for one workload run:
//!
//! - Fig. 2a: how does end-to-end latency split between neural and symbolic?
//! - Fig. 3a: within each phase, how does runtime split across the six
//!   operator categories?
//! - Fig. 3b: what were the memory high-water marks and storage footprints?
//! - Fig. 3c: where does each phase's aggregate operator land on a roofline?
//! - Fig. 5: how sparse are the outputs of selected (named) operators?
//!
//! Each share comes in two measures. Host wall-clock shares
//! ([`Report::phase_fraction`], [`Report::category_fraction`]) are what
//! the figures report; they move with host load and with every kernel
//! speedup. Work shares ([`Report::phase_bytes_fraction`],
//! [`Report::category_flops_fraction`]) repeat exactly run to run, so the
//! shape checks in [`crate::takeaways`] and the workload tests assert on
//! them.

use crate::event::OpEvent;
use crate::memory::MemoryTracker;
use crate::sparsity::SparsityStats;
use crate::taxonomy::{OpCategory, Phase};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Aggregate statistics for one `(phase, category)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// Total kernel time in this cell.
    pub duration: Duration,
    /// Number of operator invocations.
    pub invocations: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes moved (read + written).
    pub bytes: u64,
}

impl CellStats {
    fn absorb(&mut self, e: &OpEvent) {
        self.duration += e.duration;
        self.invocations += 1;
        self.flops += e.flops;
        self.bytes += e.bytes_total();
    }
}

/// Per-operator-name aggregate (used for sparsity tables and top-k lists).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpSummary {
    /// Kernel name.
    pub name: String,
    /// Phase the kernel ran in (phase of its first occurrence).
    pub phase: Phase,
    /// Category of the kernel (category of its first occurrence).
    pub category: OpCategory,
    /// Total time across invocations.
    pub duration: Duration,
    /// Invocation count.
    pub invocations: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Output sparsity aggregated over invocations.
    pub sparsity: SparsityStats,
}

/// The aggregated characterization of one workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    workload: String,
    #[serde(with = "cells_serde")]
    cells: BTreeMap<(Phase, OpCategory), CellStats>,
    ops: Vec<OpSummary>,
    memory: MemoryTracker,
    event_count: u64,
}

/// JSON cannot key maps by tuples, so the `(phase, category)` cells are
/// serialized as a list of `{phase, category, stats}` entries.
mod cells_serde {
    use super::*;
    use serde::{Error, Value};

    #[derive(Serialize, Deserialize)]
    struct Entry {
        phase: Phase,
        category: OpCategory,
        stats: CellStats,
    }

    pub(super) fn to_json(cells: &BTreeMap<(Phase, OpCategory), CellStats>) -> Value {
        Value::Array(
            cells
                .iter()
                .map(|((phase, category), stats)| {
                    Entry {
                        phase: *phase,
                        category: *category,
                        stats: *stats,
                    }
                    .to_json()
                })
                .collect(),
        )
    }

    pub(super) fn from_json(v: &Value) -> Result<BTreeMap<(Phase, OpCategory), CellStats>, Error> {
        let entries = Vec::<Entry>::from_json(v)?;
        Ok(entries
            .into_iter()
            .map(|e| ((e.phase, e.category), e.stats))
            .collect())
    }
}

impl Report {
    /// Build a report from a trace. An empty trace yields an empty (but
    /// valid) report so callers can compose reports without special-casing.
    pub fn from_events(workload: String, events: &[OpEvent], memory: MemoryTracker) -> Self {
        let mut cells: BTreeMap<(Phase, OpCategory), CellStats> = BTreeMap::new();
        let mut by_name: BTreeMap<String, OpSummary> = BTreeMap::new();
        for e in events {
            cells.entry((e.phase, e.category)).or_default().absorb(e);
            let entry = by_name.entry(e.name.clone()).or_insert_with(|| OpSummary {
                name: e.name.clone(),
                phase: e.phase,
                category: e.category,
                duration: Duration::ZERO,
                invocations: 0,
                flops: 0,
                bytes: 0,
                sparsity: SparsityStats::new(),
            });
            entry.duration += e.duration;
            entry.invocations += 1;
            entry.flops += e.flops;
            entry.bytes += e.bytes_total();
            entry.sparsity.merge(SparsityStats::from_counts(
                e.output_elems,
                e.output_nonzeros,
            ));
        }
        let mut ops: Vec<OpSummary> = by_name.into_values().collect();
        ops.sort_by_key(|o| std::cmp::Reverse(o.duration));
        Self {
            workload,
            cells,
            ops,
            memory,
            event_count: events.len() as u64,
        }
    }

    /// Workload name this report describes.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Number of events aggregated.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Total kernel time across both phases.
    pub fn total_duration(&self) -> Duration {
        self.cells.values().map(|c| c.duration).sum()
    }

    /// Total kernel time attributed to `phase`.
    pub fn phase_duration(&self, phase: Phase) -> Duration {
        self.cells
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, c)| c.duration)
            .sum()
    }

    /// Fraction of total time spent in `phase`, in `[0, 1]`. Returns 0.0
    /// for an empty report.
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        share(
            self.phase_duration(phase).as_secs_f64(),
            self.total_duration().as_secs_f64(),
        )
    }

    /// Statistics for one `(phase, category)` cell (zero-filled if absent).
    pub fn cell(&self, phase: Phase, category: OpCategory) -> CellStats {
        self.cells
            .get(&(phase, category))
            .copied()
            .unwrap_or_default()
    }

    /// Fraction of `phase`'s time spent in `category`, in `[0, 1]`.
    /// Returns 0.0 when the phase has no time.
    pub fn category_fraction(&self, phase: Phase, category: OpCategory) -> f64 {
        share(
            self.cell(phase, category).duration.as_secs_f64(),
            self.phase_duration(phase).as_secs_f64(),
        )
    }

    /// Total FLOPs attributed to `phase`.
    pub fn phase_flops(&self, phase: Phase) -> u64 {
        self.cells
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, c)| c.flops)
            .sum()
    }

    /// Total bytes moved by `phase`.
    pub fn phase_bytes(&self, phase: Phase) -> u64 {
        self.cells
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, c)| c.bytes)
            .sum()
    }

    /// Total bytes moved across both phases.
    pub fn total_bytes(&self) -> u64 {
        self.cells.values().map(|c| c.bytes).sum()
    }

    /// Fraction of all bytes moved that `phase` moved, in `[0, 1]`; 0.0
    /// for a report that moved none. The phase-share measure of the
    /// shape checks: symbolic operators are memory-bound (Takeaway 4),
    /// so their cost follows the bytes they stream, and the count is the
    /// same on every host and every run.
    pub fn phase_bytes_fraction(&self, phase: Phase) -> f64 {
        share(self.phase_bytes(phase) as f64, self.total_bytes() as f64)
    }

    /// Fraction of `phase`'s FLOPs performed by `category`, in `[0, 1]`;
    /// 0.0 for a phase with no FLOPs. The operator-mix measure of the
    /// shape checks: the paper's MatMul/Conv claim (Takeaway 3) is about
    /// compute.
    pub fn category_flops_fraction(&self, phase: Phase, category: OpCategory) -> f64 {
        share(
            self.cell(phase, category).flops as f64,
            self.phase_flops(phase) as f64,
        )
    }

    /// Aggregate operational intensity of `phase` in FLOPs/byte; `None`
    /// when the phase moved no bytes.
    pub fn phase_intensity(&self, phase: Phase) -> Option<f64> {
        let bytes = self.phase_bytes(phase);
        if bytes == 0 {
            None
        } else {
            Some(self.phase_flops(phase) as f64 / bytes as f64)
        }
    }

    /// Per-operator summaries, sorted by descending total duration.
    pub fn ops(&self) -> &[OpSummary] {
        &self.ops
    }

    /// Memory statistics for the run.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Serialize`] if serialization fails
    /// (practically unreachable for this type).
    pub fn to_json(&self) -> Result<String, crate::CoreError> {
        serde_json::to_string_pretty(self).map_err(|e| crate::CoreError::Serialize(e.to_string()))
    }

    /// Render the Fig. 3a-style breakdown as a fixed-width text table.
    pub fn render_breakdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workload {:<10} total {:>10.3} ms  neural {:>5.1}%  symbolic {:>5.1}%\n",
            self.workload,
            self.total_duration().as_secs_f64() * 1e3,
            self.phase_fraction(Phase::Neural) * 100.0,
            self.phase_fraction(Phase::Symbolic) * 100.0,
        ));
        for phase in Phase::ALL {
            out.push_str(&format!("  {phase:<9}"));
            for cat in OpCategory::ALL {
                out.push_str(&format!(
                    " {}={:>5.1}%",
                    cat.label(),
                    self.category_fraction(phase, cat) * 100.0
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// `part / total`, or 0.0 when `total` is not positive.
pub(crate) fn share(part: f64, total: f64) -> f64 {
    if total <= 0.0 {
        0.0
    } else {
        part / total
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_breakdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        seq: u64,
        name: &str,
        cat: OpCategory,
        phase: Phase,
        micros: u64,
        flops: u64,
        bytes: u64,
    ) -> OpEvent {
        OpEvent {
            seq,
            name: name.into(),
            category: cat,
            phase,
            duration: Duration::from_micros(micros),
            flops,
            bytes_read: bytes,
            bytes_written: 0,
            output_elems: 100,
            output_nonzeros: 10,
        }
    }

    fn sample_report() -> Report {
        let events = vec![
            ev(
                0,
                "conv2d",
                OpCategory::Convolution,
                Phase::Neural,
                300,
                9_000,
                100,
            ),
            ev(
                1,
                "sgemm",
                OpCategory::MatMul,
                Phase::Neural,
                100,
                1_000,
                100,
            ),
            ev(
                2,
                "bind",
                OpCategory::VectorElementwise,
                Phase::Symbolic,
                400,
                50,
                5_000,
            ),
            ev(
                3,
                "bundle",
                OpCategory::VectorElementwise,
                Phase::Symbolic,
                200,
                50,
                5_000,
            ),
        ];
        Report::from_events("test".into(), &events, MemoryTracker::new())
    }

    #[test]
    fn phase_durations_and_fractions() {
        let r = sample_report();
        assert_eq!(r.phase_duration(Phase::Neural), Duration::from_micros(400));
        assert_eq!(
            r.phase_duration(Phase::Symbolic),
            Duration::from_micros(600)
        );
        assert!((r.phase_fraction(Phase::Symbolic) - 0.6).abs() < 1e-9);
        assert_eq!(r.total_duration(), Duration::from_micros(1000));
    }

    #[test]
    fn category_fraction_within_phase() {
        let r = sample_report();
        assert!((r.category_fraction(Phase::Neural, OpCategory::Convolution) - 0.75).abs() < 1e-9);
        assert!(
            (r.category_fraction(Phase::Symbolic, OpCategory::VectorElementwise) - 1.0).abs()
                < 1e-9
        );
        assert_eq!(
            r.category_fraction(Phase::Symbolic, OpCategory::MatMul),
            0.0
        );
    }

    #[test]
    fn work_shares() {
        let r = sample_report();
        // Symbolic moves 10k of 10.2k bytes.
        assert_eq!(r.total_bytes(), 10_200);
        assert!((r.phase_bytes_fraction(Phase::Symbolic) - 10_000.0 / 10_200.0).abs() < 1e-12);
        // Neural FLOPs: 9k conv, 1k matmul.
        assert!(
            (r.category_flops_fraction(Phase::Neural, OpCategory::Convolution) - 0.9).abs() < 1e-12
        );
        assert_eq!(
            r.category_flops_fraction(Phase::Symbolic, OpCategory::MatMul),
            0.0
        );
    }

    #[test]
    fn phase_intensity_reflects_byte_traffic() {
        let r = sample_report();
        let neural = r.phase_intensity(Phase::Neural).unwrap();
        let symbolic = r.phase_intensity(Phase::Symbolic).unwrap();
        assert!(neural > symbolic, "neural {neural} vs symbolic {symbolic}");
    }

    #[test]
    fn ops_sorted_by_duration_desc() {
        let r = sample_report();
        let names: Vec<&str> = r.ops().iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["bind", "conv2d", "bundle", "sgemm"]);
    }

    #[test]
    fn op_lookup_by_name_aggregates_sparsity() {
        let r = sample_report();
        let bind = r.ops().iter().find(|o| o.name == "bind").unwrap();
        assert!((bind.sparsity.sparsity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_valid() {
        let r = Report::from_events("empty".into(), &[], MemoryTracker::new());
        assert_eq!(r.total_duration(), Duration::ZERO);
        assert_eq!(r.phase_fraction(Phase::Neural), 0.0);
        assert_eq!(r.phase_bytes_fraction(Phase::Neural), 0.0);
        assert_eq!(
            r.category_flops_fraction(Phase::Neural, OpCategory::MatMul),
            0.0
        );
    }

    #[test]
    fn json_round_trip() {
        let r = sample_report();
        let json = r.to_json().unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn render_breakdown_mentions_workload_and_phases() {
        let r = sample_report();
        let text = r.render_breakdown();
        assert!(text.contains("test"));
        assert!(text.contains("neural"));
        assert!(text.contains("symbolic"));
    }
}
