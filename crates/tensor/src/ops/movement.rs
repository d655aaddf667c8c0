//! Data movement operators (`OpCategory::DataMovement`).
//!
//! Duplication and *simulated* host↔device transfers. The paper
//! finds data movement "accounts for around 50% of total latency" in the
//! GPU execution of symbolic kernels, with >80% of it host-to-device; the
//! [`Tensor::stage_transfer`] helper lets workloads mark the points where a
//! CPU↔GPU boundary would sit so the trace carries the same structure.

use crate::dense::Tensor;
use crate::instrument::{nnz, run_op, ELEM};
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// Direction of a simulated transfer across the host/device boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDirection {
    /// Host (CPU) to device (accelerator) — the dominant direction in the
    /// paper's measurements.
    HostToDevice,
    /// Device back to host.
    DeviceToHost,
}

impl TransferDirection {
    /// Event name recorded for this direction.
    // nsai-lint: allow(scope-coverage): metadata accessor (op display name); there is no kernel work to attribute.
    pub fn op_name(self) -> &'static str {
        match self {
            TransferDirection::HostToDevice => "memcpy_h2d",
            TransferDirection::DeviceToHost => "memcpy_d2h",
        }
    }
}

impl Tensor {
    /// Explicit instrumented duplication (recorded as data movement, unlike
    /// `Clone` which only tracks memory).
    pub fn duplicate(&self) -> Tensor {
        run_op(
            "tensor_copy",
            OpCategory::DataMovement,
            || Tensor::from_vec_unchecked(self.data().to_vec(), self.shape().clone()),
            |out| {
                OpMeta::new()
                    .bytes_read(self.numel() as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        )
    }

    /// Mark a simulated host↔device staging transfer of this tensor.
    ///
    /// On real hardware this is a `cudaMemcpy`; here it touches every byte
    /// once so the event carries a realistic duration and the trace carries
    /// the pipeline-boundary structure Fig. 4 analyzes.
    pub fn stage_transfer(&self, direction: TransferDirection) -> Tensor {
        let n = self.numel() as u64;
        run_op(
            direction.op_name(),
            OpCategory::DataMovement,
            || Tensor::from_vec_unchecked(self.data().to_vec(), self.shape().clone()),
            |out| {
                OpMeta::new()
                    .bytes_read(n * ELEM)
                    .bytes_written(n * ELEM)
                    .output_elems(n)
                    .output_nonzeros(nnz(out.data()))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    #[test]
    fn duplicate_is_recorded_as_movement() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            let t = Tensor::ones(&[8]);
            let d = t.duplicate();
            assert_eq!(d.data(), t.data());
        }
        let e = &p.events()[0];
        assert_eq!(e.name, "tensor_copy");
        assert_eq!(e.category, OpCategory::DataMovement);
        assert_eq!(e.flops, 0);
        assert_eq!(e.bytes_read, 32);
    }

    #[test]
    fn stage_transfer_names_follow_direction() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            let t = Tensor::ones(&[4]);
            let _ = t.stage_transfer(TransferDirection::HostToDevice);
            let _ = t.stage_transfer(TransferDirection::DeviceToHost);
        }
        let names: Vec<String> = p.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["memcpy_h2d", "memcpy_d2h"]);
    }

    #[test]
    fn transfer_preserves_contents() {
        let t = Tensor::rand_uniform(&[16], -1.0, 1.0, 3);
        let moved = t.stage_transfer(TransferDirection::HostToDevice);
        assert_eq!(moved.data(), t.data());
    }
}
