//! Analytic device models for the paper's four platforms.
//!
//! Each device is a roofline (peak FP32 throughput + DRAM bandwidth)
//! extended with a per-kernel-launch overhead and category-dependent
//! efficiency factors: real kernels do not attain peak — dense GEMM/conv
//! reach a large fraction of peak compute, while element-wise kernels are
//! limited by how much of the theoretical bandwidth streaming access
//! patterns can realize. These are the knobs that make the projection of
//! [`crate::project`] reproduce the paper's *orderings* (TX2 slower than
//! Xavier NX slower than RTX; symbolic phases bandwidth-starved).

use nsai_core::taxonomy::OpCategory;
use nsai_core::{CoreError, DeviceRoofline};
use serde::{Deserialize, Serialize};

/// An execution platform: roofline plus launch overhead and efficiencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    peak_gflops: f64,
    mem_bw_gbps: f64,
    tdp_watts: f64,
    /// Fixed overhead charged per kernel invocation (seconds) — models
    /// launch latency and synchronization, the CPU-underutilization source
    /// the paper notes.
    launch_overhead_s: f64,
    /// Fraction of peak compute attained by dense compute kernels.
    compute_efficiency: f64,
    /// Fraction of peak bandwidth attained by streaming kernels.
    stream_efficiency: f64,
}

impl Device {
    /// Construct a custom device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDevice`] for non-positive throughput or
    /// bandwidth, or efficiencies outside `(0, 1]`.
    pub fn new(
        name: impl Into<String>,
        peak_gflops: f64,
        mem_bw_gbps: f64,
        tdp_watts: f64,
        launch_overhead_s: f64,
        compute_efficiency: f64,
        stream_efficiency: f64,
    ) -> Result<Self, CoreError> {
        // Validate through the roofline constructor.
        DeviceRoofline::new(peak_gflops, mem_bw_gbps)?;
        for (v, what) in [
            (compute_efficiency, "compute efficiency"),
            (stream_efficiency, "stream efficiency"),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(CoreError::InvalidDevice(format!(
                    "{what} must be in (0, 1], got {v}"
                )));
            }
        }
        if launch_overhead_s < 0.0 {
            return Err(CoreError::InvalidDevice(
                "launch overhead cannot be negative".into(),
            ));
        }
        Ok(Device {
            name: name.into(),
            peak_gflops,
            mem_bw_gbps,
            tdp_watts,
            launch_overhead_s,
            compute_efficiency,
            stream_efficiency,
        })
    }

    /// Nvidia RTX 2080 Ti: 13.45 TFLOP/s FP32, 616 GB/s GDDR6, 250 W.
    pub fn rtx_2080_ti() -> Device {
        Device::new("RTX-2080Ti", 13_450.0, 616.0, 250.0, 5e-6, 0.75, 0.85)
            .expect("preset parameters are valid")
    }

    /// Nvidia Jetson TX2 (Pascal, 256 cores): ~0.67 TFLOP/s FP32,
    /// 59.7 GB/s LPDDR4, 15 W.
    pub fn jetson_tx2() -> Device {
        Device::new("Jetson-TX2", 665.0, 59.7, 15.0, 12e-6, 0.65, 0.75)
            .expect("preset parameters are valid")
    }

    /// Nvidia Xavier NX (Volta, 384 cores): ~0.84 TFLOP/s FP32,
    /// 51.2 GB/s LPDDR4x, 20 W.
    pub fn xavier_nx() -> Device {
        Device::new("Xavier-NX", 844.0, 51.2, 20.0, 10e-6, 0.68, 0.78)
            .expect("preset parameters are valid")
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-kernel launch overhead in seconds.
    pub fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_s
    }

    /// The device's ideal roofline (no efficiency derating).
    pub fn roofline(&self) -> DeviceRoofline {
        DeviceRoofline::new(self.peak_gflops, self.mem_bw_gbps).expect("validated at construction")
    }

    /// Efficiency-derated time for one operator of a given category:
    /// `max(compute, memory) + launch overhead`.
    pub fn op_time_secs(&self, flops: u64, bytes: u64, category: OpCategory) -> f64 {
        let (ce, se) = match category {
            OpCategory::MatMul | OpCategory::Convolution => {
                (self.compute_efficiency, self.stream_efficiency)
            }
            // Element-wise / transform / movement kernels rarely keep all
            // lanes busy: compute side heavily derated, bandwidth is the
            // practical limit.
            OpCategory::VectorElementwise | OpCategory::Other => {
                (self.compute_efficiency * 0.25, self.stream_efficiency)
            }
            OpCategory::DataTransform | OpCategory::DataMovement => {
                (self.compute_efficiency * 0.25, self.stream_efficiency * 0.9)
            }
        };
        let compute = flops as f64 / (self.peak_gflops * 1e9 * ce);
        let memory = bytes as f64 / (self.mem_bw_gbps * 1e9 * se);
        compute.max(memory) + self.launch_overhead_s
    }

    /// Energy estimate for a duration at TDP (joules).
    pub fn energy_joules(&self, secs: f64) -> f64 {
        self.tdp_watts * secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_compute() {
        let rtx = Device::rtx_2080_ti();
        let tx2 = Device::jetson_tx2();
        let nx = Device::xavier_nx();
        assert!(rtx.peak_gflops > nx.peak_gflops);
        assert!(nx.peak_gflops > tx2.peak_gflops);
    }

    #[test]
    fn gemm_faster_on_gpu_than_edge() {
        let flops = 2_000_000_000;
        let bytes = 12_000_000;
        let rtx = Device::rtx_2080_ti().op_time_secs(flops, bytes, OpCategory::MatMul);
        let tx2 = Device::jetson_tx2().op_time_secs(flops, bytes, OpCategory::MatMul);
        assert!(tx2 > 5.0 * rtx, "tx2 {tx2} vs rtx {rtx}");
    }

    #[test]
    fn elementwise_time_is_bandwidth_dominated() {
        let d = Device::rtx_2080_ti();
        // 1M elements, 1 flop each, 12 MB moved.
        let t = d.op_time_secs(1_000_000, 12_000_000, OpCategory::VectorElementwise);
        let pure_bw = 12_000_000f64 / (616.0e9 * 0.85);
        assert!((t - (pure_bw + d.launch_overhead_s())).abs() < 1e-9);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let d = Device::rtx_2080_ti();
        let t = d.op_time_secs(10, 40, OpCategory::VectorElementwise);
        assert!((t - d.launch_overhead_s()).abs() < 1e-7);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Device::new("x", 0.0, 1.0, 1.0, 0.0, 0.5, 0.5).is_err());
        assert!(Device::new("x", 1.0, 1.0, 1.0, 0.0, 1.5, 0.5).is_err());
        assert!(Device::new("x", 1.0, 1.0, 1.0, -1.0, 0.5, 0.5).is_err());
    }

    #[test]
    fn energy_scales_with_time() {
        let d = Device::jetson_tx2();
        assert!((d.energy_joules(2.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_matches_device_parameters() {
        let d = Device::rtx_2080_ti();
        let r = d.roofline();
        assert_eq!(r.peak_gflops(), 13_450.0);
        assert_eq!(r.mem_bw_gbps(), 616.0);
    }
}
