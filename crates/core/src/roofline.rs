//! Roofline model (Fig. 3c, Takeaway 4).
//!
//! The roofline model bounds attainable throughput by
//! `min(peak_flops, bandwidth × operational_intensity)`. Operators whose
//! intensity falls left of the *ridge point* `peak_flops / bandwidth` are
//! memory-bound; to the right they are compute-bound. The paper places each
//! workload's neural and symbolic aggregate operators on the RTX 2080 Ti
//! roofline and observes that *"the symbolic components are in the
//! memory-bound area while neural components are in the compute-bound
//! area."*

use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which roof limits an operator at its operational intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bound {
    /// Limited by the memory-bandwidth slope (intensity below the ridge).
    Memory,
    /// Limited by the flat compute roof (intensity at or above the ridge).
    Compute,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Memory => f.write_str("memory-bound"),
            Bound::Compute => f.write_str("compute-bound"),
        }
    }
}

/// A device's roofline: peak compute throughput and peak memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceRoofline {
    peak_gflops: f64,
    mem_bw_gbps: f64,
}

impl DeviceRoofline {
    /// Build a roofline from peak GFLOP/s and memory bandwidth in GB/s.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDevice`] if either parameter is not
    /// strictly positive and finite.
    pub fn new(peak_gflops: f64, mem_bw_gbps: f64) -> Result<Self, CoreError> {
        if !(peak_gflops.is_finite() && peak_gflops > 0.0) {
            return Err(CoreError::InvalidDevice(format!(
                "peak throughput must be positive, got {peak_gflops}"
            )));
        }
        if !(mem_bw_gbps.is_finite() && mem_bw_gbps > 0.0) {
            return Err(CoreError::InvalidDevice(format!(
                "memory bandwidth must be positive, got {mem_bw_gbps}"
            )));
        }
        Ok(Self {
            peak_gflops,
            mem_bw_gbps,
        })
    }

    /// Peak compute throughput in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.peak_gflops
    }

    /// Peak memory bandwidth in GB/s.
    pub fn mem_bw_gbps(&self) -> f64 {
        self.mem_bw_gbps
    }

    /// The ridge point in FLOPs/byte: intensities below it are memory-bound.
    pub fn ridge_point(&self) -> f64 {
        self.peak_gflops / self.mem_bw_gbps
    }

    /// Attainable throughput (GFLOP/s) at a given operational intensity.
    pub fn attainable_gflops(&self, intensity: f64) -> f64 {
        (self.mem_bw_gbps * intensity).min(self.peak_gflops)
    }

    /// Classify an operational intensity against this roofline.
    pub fn classify(&self, intensity: f64) -> Bound {
        if intensity < self.ridge_point() {
            Bound::Memory
        } else {
            Bound::Compute
        }
    }

    /// Time (seconds) this device needs for `flops` FLOPs touching `bytes`
    /// bytes, under the roofline assumption that compute and memory overlap
    /// perfectly: `max(flops / peak, bytes / bandwidth)`.
    pub fn op_time_secs(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.peak_gflops * 1e9);
        let memory = bytes as f64 / (self.mem_bw_gbps * 1e9);
        compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtx_like() -> DeviceRoofline {
        // ~RTX 2080 Ti FP32: 13.45 TFLOP/s, 616 GB/s.
        DeviceRoofline::new(13_450.0, 616.0).unwrap()
    }

    #[test]
    fn rejects_nonpositive_parameters() {
        assert!(DeviceRoofline::new(0.0, 616.0).is_err());
        assert!(DeviceRoofline::new(13450.0, -1.0).is_err());
        assert!(DeviceRoofline::new(f64::NAN, 616.0).is_err());
        assert!(DeviceRoofline::new(f64::INFINITY, 616.0).is_err());
    }

    #[test]
    fn ridge_point_divides_bounds() {
        let d = rtx_like();
        let ridge = d.ridge_point();
        assert!((ridge - 13_450.0 / 616.0).abs() < 1e-9);
        assert_eq!(d.classify(ridge * 0.5), Bound::Memory);
        assert_eq!(d.classify(ridge * 2.0), Bound::Compute);
        assert_eq!(d.classify(ridge), Bound::Compute);
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let d = rtx_like();
        // Far left: bandwidth-limited.
        assert!((d.attainable_gflops(1.0) - 616.0).abs() < 1e-9);
        // Far right: compute-limited.
        assert!((d.attainable_gflops(1e6) - 13_450.0).abs() < 1e-9);
    }

    #[test]
    fn op_time_is_max_of_compute_and_memory_time() {
        let d = DeviceRoofline::new(1.0, 1.0).unwrap(); // 1 GFLOP/s, 1 GB/s
                                                        // 2e9 flops needs 2 s of compute; 1e9 bytes needs 1 s of memory.
        assert!((d.op_time_secs(2_000_000_000, 1_000_000_000) - 2.0).abs() < 1e-9);
        // Memory-dominated case.
        assert!((d.op_time_secs(1_000_000, 3_000_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn typical_symbolic_op_is_memory_bound_on_gpu() {
        // Element-wise bundle over d=8192 f32: 8192 flops, 3*32 KiB moved.
        let d = rtx_like();
        assert_eq!(d.classify(8_192.0 / (3.0 * 32_768.0)), Bound::Memory);
    }

    #[test]
    fn typical_gemm_is_compute_bound_on_gpu() {
        // 1024^3*2 flops over 3*1024^2*4 bytes => OI ~170 > ridge ~21.8.
        let d = rtx_like();
        let n = 1024.0;
        assert_eq!(
            d.classify(2.0 * n * n * n / (3.0 * n * n * 4.0)),
            Bound::Compute
        );
    }
}
