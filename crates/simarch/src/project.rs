//! Latency projection: replay a recorded operator trace on a device model.
//!
//! The paper measures NVSA/NLM on three physical platforms (Fig. 2b) and
//! across task sizes (Fig. 2c). Here, a trace recorded once on the host is
//! *projected* onto each device: every operator's FLOP and byte counts are
//! pushed through the device's derated roofline, and operators execute
//! sequentially (the paper's Takeaway 5: symbolic work is on the critical
//! path, and complex control defeats overlap).

use crate::device::Device;
use nsai_core::event::OpEvent;
use nsai_core::taxonomy::Phase;
use serde::{Deserialize, Serialize};

/// Projected end-to-end latency of a trace on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceLatency {
    /// Device name.
    pub device: String,
    /// Projected neural-phase seconds.
    pub neural_secs: f64,
    /// Projected symbolic-phase seconds.
    pub symbolic_secs: f64,
    /// Number of operators projected.
    pub op_count: usize,
    /// Estimated energy at TDP, joules.
    pub energy_joules: f64,
}

impl DeviceLatency {
    /// Total projected seconds.
    pub fn total_secs(&self) -> f64 {
        self.neural_secs + self.symbolic_secs
    }

    /// Symbolic fraction of the projected latency in `[0, 1]`.
    pub fn symbolic_fraction(&self) -> f64 {
        let total = self.total_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.symbolic_secs / total
        }
    }
}

/// Project a trace onto a device.
pub fn project_trace(events: &[OpEvent], device: &Device) -> DeviceLatency {
    let mut neural = 0.0f64;
    let mut symbolic = 0.0f64;
    for e in events {
        let t = device.op_time_secs(e.flops, e.bytes_total(), e.category);
        match e.phase {
            Phase::Neural => neural += t,
            Phase::Symbolic => symbolic += t,
        }
    }
    let total = neural + symbolic;
    DeviceLatency {
        device: device.name().to_owned(),
        neural_secs: neural,
        symbolic_secs: symbolic,
        op_count: events.len(),
        energy_joules: device.energy_joules(total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::taxonomy::OpCategory;
    use std::time::Duration;

    fn ev(cat: OpCategory, phase: Phase, flops: u64, bytes: u64) -> OpEvent {
        OpEvent {
            seq: 0,
            name: "k".into(),
            category: cat,
            phase,
            duration: Duration::from_micros(1),
            flops,
            bytes_read: bytes,
            bytes_written: 0,
            output_elems: 1,
            output_nonzeros: 1,
        }
    }

    fn mixed_trace() -> Vec<OpEvent> {
        vec![
            // Heavy neural conv/GEMM frontend: 40 GFLOP, 120 MB — like
            // NVSA's perception stage, compute-dominated on every device.
            ev(
                OpCategory::MatMul,
                Phase::Neural,
                40_000_000_000,
                120_000_000,
            ),
            // Symbolic streaming backend: 20M flops, 600 MB.
            ev(
                OpCategory::VectorElementwise,
                Phase::Symbolic,
                20_000_000,
                600_000_000,
            ),
        ]
    }

    #[test]
    fn edge_devices_are_slower() {
        let trace = mixed_trace();
        let rtx = project_trace(&trace, &Device::rtx_2080_ti());
        let nx = project_trace(&trace, &Device::xavier_nx());
        let tx2 = project_trace(&trace, &Device::jetson_tx2());
        // Fig. 2b ordering: TX2 slowest, then Xavier NX, then the GPU.
        assert!(tx2.total_secs() > nx.total_secs());
        assert!(nx.total_secs() > rtx.total_secs());
    }

    #[test]
    fn symbolic_phase_is_absolutely_slower_on_edge_devices() {
        let trace = mixed_trace();
        let rtx = project_trace(&trace, &Device::rtx_2080_ti());
        let tx2 = project_trace(&trace, &Device::jetson_tx2());
        // The bandwidth-bound symbolic stage scales with DRAM bandwidth:
        // 59.7 GB/s (TX2) vs 616 GB/s (RTX) ≈ 10x.
        assert!(tx2.symbolic_secs > 8.0 * rtx.symbolic_secs);
        // Symbolic remains a real share on both devices.
        assert!(rtx.symbolic_fraction() > 0.05);
        assert!(tx2.symbolic_fraction() > 0.05);
    }

    #[test]
    fn empty_trace_projects_to_zero() {
        let l = project_trace(&[], &Device::rtx_2080_ti());
        assert_eq!(l.total_secs(), 0.0);
        assert_eq!(l.symbolic_fraction(), 0.0);
        assert_eq!(l.op_count, 0);
    }

    #[test]
    fn energy_positive_for_nonempty_trace() {
        let l = project_trace(&mixed_trace(), &Device::jetson_tx2());
        assert!(l.energy_joules > 0.0);
    }
}
