//! Per-operator event records — the atoms of a characterization trace.
//!
//! Every instrumented kernel produces one [`OpEvent`] carrying the statistics
//! the paper's Sec. IV-A enumerates: runtime, invocation identity, tensor
//! sizes (as element counts), sparsity, plus the FLOP and byte counts needed
//! for the roofline analysis of Fig. 3c.

use crate::taxonomy::{OpCategory, Phase};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A single profiled operator invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpEvent {
    /// Monotone sequence number within the trace (0-based).
    pub seq: u64,
    /// Kernel name, e.g. `"sgemm"`, `"circular_conv"`, `"bound_tighten"`.
    pub name: String,
    /// Operator category per the Sec. IV-B taxonomy.
    pub category: OpCategory,
    /// Neural or symbolic component attribution.
    pub phase: Phase,
    /// Wall-clock duration of the kernel on the host.
    pub duration: Duration,
    /// Floating-point (or equivalent integer/logic) operations performed.
    pub flops: u64,
    /// Bytes read from operand storage.
    pub bytes_read: u64,
    /// Bytes written to result storage.
    pub bytes_written: u64,
    /// Number of elements in the primary output (0 if not tensor-valued).
    pub output_elems: u64,
    /// Number of non-zero elements in the primary output. Equal to
    /// `output_elems` for dense outputs unless the kernel measured sparsity.
    pub output_nonzeros: u64,
}

impl OpEvent {
    /// Total bytes moved (read + written).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Operational intensity in FLOPs per byte; `None` when no bytes moved.
    ///
    /// This is the x-axis of the roofline plot (Fig. 3c).
    pub fn operational_intensity(&self) -> Option<f64> {
        let bytes = self.bytes_total();
        if bytes == 0 {
            None
        } else {
            Some(self.flops as f64 / bytes as f64)
        }
    }

    /// Fraction of output elements that are zero, in `[0, 1]`.
    /// Returns 0.0 for empty outputs.
    pub fn output_sparsity(&self) -> f64 {
        if self.output_elems == 0 {
            0.0
        } else {
            1.0 - self.output_nonzeros as f64 / self.output_elems as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpEvent {
        OpEvent {
            seq: 0,
            name: "sgemm".into(),
            category: OpCategory::MatMul,
            phase: Phase::Neural,
            duration: Duration::from_micros(100),
            flops: 2_000_000,
            bytes_read: 12_000,
            bytes_written: 4_000,
            output_elems: 1_000,
            output_nonzeros: 900,
        }
    }

    #[test]
    fn bytes_total_sums_read_and_write() {
        assert_eq!(sample().bytes_total(), 16_000);
    }

    #[test]
    fn operational_intensity_is_flops_per_byte() {
        let oi = sample().operational_intensity().unwrap();
        assert!((oi - 125.0).abs() < 1e-9);
    }

    #[test]
    fn operational_intensity_none_when_no_bytes() {
        let mut e = sample();
        e.bytes_read = 0;
        e.bytes_written = 0;
        assert!(e.operational_intensity().is_none());
    }

    #[test]
    fn sparsity_fraction() {
        let e = sample();
        assert!((e.output_sparsity() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sparsity_of_empty_output_is_zero() {
        let mut e = sample();
        e.output_elems = 0;
        e.output_nonzeros = 0;
        assert_eq!(e.output_sparsity(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let e = sample();
        let s = serde_json::to_string(&e).unwrap();
        let back: OpEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }
}
