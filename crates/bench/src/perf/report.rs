//! The schema-versioned perf baseline report (`results/perf_baseline.json`).
//!
//! A [`PerfReport`] is the machine-readable artifact the continuous
//! characterization pipeline trades in: the `perf` bin emits one per
//! measured revision, CI uploads them as artifacts, and the compare gate
//! consumes a (baseline, candidate) pair. Every entry carries two kinds
//! of data with different determinism contracts:
//!
//! - [`PerfEntry::counters`] — work counters ([`nsai_core::counters`]),
//!   bit-identical for a given revision+seed by construction (the
//!   harness re-measures every repetition and refuses to emit a report
//!   if any repetition disagrees);
//! - [`PerfEntry::wall`] — median/IQR wall-clock statistics
//!   ([`WallStats`]), which always vary with the host.
//!
//! The schema string gates compatibility hard: a gate run across
//! mismatched schema versions is a usage error (exit 2), never a silent
//! best-effort comparison.

use super::stats::WallStats;
use crate::perf::suite::SuiteConfig;
use nsai_core::counters::Counters;
use serde::{Deserialize, Serialize};

/// Current report schema identifier.
pub const SCHEMA: &str = "perf_report/v1";

/// What kind of measurement an entry is — determines how a human reads
/// it, not how the gate treats it (the gate is uniform across kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// Operator-level microbenchmark at a fixed shape and pool width.
    Micro,
    /// One phase (or the total) of a full workload run.
    Workload,
    /// A serve-stack sample (closed-loop clients through the runtime).
    Serve,
}

/// One measured suite entry: identity, wall-clock summary, counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Stable entry id, e.g. `micro/matmul/96x96x96/w4` or
    /// `workload/lnn/symbolic`. Ids are the join key for the gate.
    pub id: String,
    /// Measurement kind.
    pub kind: EntryKind,
    /// Wall-clock summary over the interleaved repetitions.
    pub wall: WallStats,
    /// Deterministic work counters (identical across repetitions).
    pub counters: Counters,
}

/// A full suite run at one revision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Master seed the suite derived all per-entry seeds from.
    pub seed: u64,
    /// Number of interleaved repetitions per entry.
    pub repetitions: u64,
    /// Pool widths the microbenchmarks were measured at.
    pub widths: Vec<u64>,
    /// All measured entries, in suite order.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// Empty report carrying the run configuration.
    pub fn new(config: &SuiteConfig) -> Self {
        PerfReport {
            schema: SCHEMA.to_string(),
            seed: config.seed,
            repetitions: config.repetitions as u64,
            widths: config.widths.iter().map(|w| *w as u64).collect(),
            entries: Vec::new(),
        }
    }

    /// Look up an entry by id.
    pub fn entry(&self, id: &str) -> Option<&PerfEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Serialize to pretty JSON (the on-disk artifact format).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf report serializes")
    }

    /// Parse a report from JSON, with a path-free error message the
    /// caller can wrap.
    pub fn from_json_str(s: &str) -> Result<PerfReport, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed perf report: {e}"))
    }

    /// The canonical counter section: one `id` + counter-JSON line per
    /// entry, in suite order. Two same-seed runs of the same revision
    /// must produce byte-identical counter sections — this is the string
    /// the determinism acceptance test hashes and diffs.
    pub fn counter_section(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.id);
            out.push(' ');
            out.push_str(&serde_json::to_string(&entry.counters).expect("counters serialize"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        let mut counters = Counters::new();
        counters.set("flops", 123);
        counters.set("bytes", 456);
        PerfReport {
            schema: SCHEMA.to_string(),
            seed: 42,
            repetitions: 5,
            widths: vec![1, 4],
            entries: vec![PerfEntry {
                id: "micro/matmul/96x96x96/w1".into(),
                kind: EntryKind::Micro,
                wall: WallStats::from_samples(&[10, 20, 30]),
                counters,
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample();
        let json = report.to_json_string();
        let back = PerfReport::from_json_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(json.contains("perf_report/v1"));
    }

    #[test]
    fn entry_kind_serializes_as_string() {
        let json = sample().to_json_string();
        assert!(json.contains("\"Micro\""), "{json}");
    }

    #[test]
    fn counter_section_is_one_line_per_entry_in_order() {
        let report = sample();
        let section = report.counter_section();
        assert_eq!(section.lines().count(), 1);
        assert!(section.starts_with("micro/matmul/96x96x96/w1 {"));
        // Counter lines are compact JSON (no space after the colon).
        assert!(section.contains("\"flops\":123"), "{section}");
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(PerfReport::from_json_str("{not json").is_err());
        assert!(PerfReport::from_json_str("{}").is_err());
    }
}
