//! Dense matrix multiplication (`OpCategory::MatMul`).
//!
//! GEMM is the canonical compute-bound kernel of the neural phases: `2mnk`
//! FLOPs over `(mk + kn + mn) × 4` bytes, so operational intensity grows
//! with matrix size and clears GPU ridge points easily (Fig. 3c).
//!
//! All GEMM variants execute row-blocked on the parallel engine
//! ([`crate::par`]): output rows are split into fixed-size blocks and each
//! block runs the serial inner loops unchanged, so results are bitwise
//! identical at every pool width.
//!
//! # FLOP accounting
//!
//! Kernels that skip zero `A` entries (`matmul`, `matmul_at`)
//! report *effective* FLOPs — `2·nnz(A)·n`, the multiply–adds actually
//! performed — rather than the dense `2·m·k·n` bound, so roofline points
//! for sparse operands are not overstated. Dense-inner-loop kernels
//! (`matmul_bt`, `matvec`) report the dense count.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::par;
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// Output rows per parallel chunk. Fixed (never derived from the thread
/// count) so the decomposition — and the result bits — are pool-width
/// invariant.
const GEMM_ROW_GRAIN: usize = 4;

/// Output elements per parallel chunk of `matvec`.
const MATVEC_ROW_GRAIN: usize = 64;

/// Elements per partial in the chunked `dot` reduction.
const DOT_GRAIN: usize = 64 * 1024;

fn gemm_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    // i-k-j loop order: streams B rows, keeps the accumulator row hot.
    // Parallel over row blocks; each block is the serial loop verbatim.
    let mut out = vec![0.0f32; m * n];
    if n == 0 {
        return out;
    }
    par::fill_chunks(&mut out, GEMM_ROW_GRAIN * n, |range, o_block| {
        let i0 = range.start / n;
        for (local, o_row) in o_block.chunks_mut(n).enumerate() {
            let i = i0 + local;
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for j in 0..n {
                    o_row[j] += aip * b_row[j];
                }
            }
        }
    });
    out
}

fn gemm_meta(out: &Tensor, a_nnz: u64, m: usize, k: usize, n: usize) -> OpMeta {
    OpMeta::new()
        .flops(2 * a_nnz * n as u64)
        .bytes_read(((m * k + k * n) as u64) * ELEM)
        .bytes_written((m * n) as u64 * ELEM)
        .output_elems(out.numel() as u64)
        .output_nonzeros(nnz(out.data()))
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(run_op(
            "sgemm",
            OpCategory::MatMul,
            || {
                let data = gemm_kernel(self.data(), other.data(), m, k, n);
                Tensor::from_vec_unchecked(data, Shape::new(&[m, n]))
            },
            |out| gemm_meta(out, nnz(self.data()), m, k, n),
        ))
    }

    /// Fused transposed-B matrix product: `A[m,k] × Bᵀ where B is [n,k]`,
    /// yielding `[m,n]` without materializing the transpose. This is the
    /// natural kernel for `x·Wᵀ` linear layers (both operands are read
    /// row-major).
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when operands are not matrices with
    /// matching inner dimension `k`.
    pub fn matmul_bt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul_bt",
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    other.rank()
                },
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bt",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(run_op(
            "sgemm_nt",
            OpCategory::MatMul,
            || {
                let mut out = vec![0.0f32; m * n];
                if n > 0 {
                    par::fill_chunks(&mut out, GEMM_ROW_GRAIN * n, |range, o_block| {
                        let i0 = range.start / n;
                        for (local, o_row) in o_block.chunks_mut(n).enumerate() {
                            let a_row = &self.data()[(i0 + local) * k..(i0 + local + 1) * k];
                            for (j, slot) in o_row.iter_mut().enumerate() {
                                let b_row = &other.data()[j * k..(j + 1) * k];
                                *slot = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum::<f32>();
                            }
                        }
                    });
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[m, n]))
            },
            // Dense inner loops (no zero skip): dense FLOP count.
            |out| gemm_meta(out, (m * k) as u64, m, k, n),
        ))
    }

    /// Fused transposed-A matrix product: `Aᵀ × B where A is [k,m] and B
    /// is [k,n]`, yielding `[m,n]` — the weight-gradient kernel
    /// (`gradᵀ·x`) of linear layers.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when operands are not matrices with
    /// matching leading dimension `k`.
    pub fn matmul_at(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul_at",
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    other.rank()
                },
            });
        }
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_at",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(run_op(
            "sgemm_tn",
            OpCategory::MatMul,
            || {
                // Output-row outer loop (parallel over row blocks); the
                // per-(i,j) accumulation order over p is unchanged, so the
                // result matches the p-outer serial formulation bitwise.
                let mut out = vec![0.0f32; m * n];
                if n > 0 {
                    par::fill_chunks(&mut out, GEMM_ROW_GRAIN * n, |range, o_block| {
                        let i0 = range.start / n;
                        for (local, o_row) in o_block.chunks_mut(n).enumerate() {
                            let i = i0 + local;
                            for p in 0..k {
                                let aip = self.data()[p * m + i];
                                if aip == 0.0 {
                                    continue;
                                }
                                let b_row = &other.data()[p * n..(p + 1) * n];
                                for j in 0..n {
                                    o_row[j] += aip * b_row[j];
                                }
                            }
                        }
                    });
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[m, n]))
            },
            |out| gemm_meta(out, nnz(self.data()), m, k, n),
        ))
    }

    /// Matrix–vector product: `[m,k] × [k] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors analogous to [`Tensor::matmul`].
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "matvec",
                expected: 2,
                actual: self.rank().min(v.rank()),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        if v.dims()[0] != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        Ok(run_op(
            "sgemv",
            OpCategory::MatMul,
            || {
                let mut out = vec![0.0f32; m];
                par::fill_chunks(&mut out, MATVEC_ROW_GRAIN, |range, dst| {
                    for (i, slot) in range.zip(dst.iter_mut()) {
                        let row = &self.data()[i * k..(i + 1) * k];
                        *slot = row.iter().zip(v.data()).map(|(a, b)| a * b).sum();
                    }
                });
                Tensor::from_vec_unchecked(out, Shape::new(&[m]))
            },
            |out| {
                OpMeta::new()
                    .flops(2 * (m * k) as u64)
                    .bytes_read(((m * k + k) as u64) * ELEM)
                    .bytes_written(m as u64 * ELEM)
                    .output_elems(m as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Outer product of two vectors: `[m] ⊗ [n] → [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank-1.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 1 || other.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "outer",
                expected: 1,
                actual: self.rank().max(other.rank()),
            });
        }
        let (m, n) = (self.numel(), other.numel());
        Ok(run_op(
            "outer",
            OpCategory::MatMul,
            || {
                let mut data = Vec::with_capacity(m * n);
                for a in self.data() {
                    for b in other.data() {
                        data.push(a * b);
                    }
                }
                Tensor::from_vec_unchecked(data, Shape::new(&[m, n]))
            },
            |out| {
                OpMeta::new()
                    .flops((m * n) as u64)
                    .bytes_read(((m + n) as u64) * ELEM)
                    .bytes_written((m * n) as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Dot product of two equal-length vectors.
    ///
    /// # Errors
    ///
    /// Returns shape errors for non-vectors or mismatched lengths.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.rank() != 1 || other.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "dot",
                expected: 1,
                actual: self.rank().max(other.rank()),
            });
        }
        if self.numel() != other.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let n = self.numel();
        Ok(run_op(
            "dot",
            OpCategory::MatMul,
            || {
                // Fixed-grain partials folded in chunk order: the float
                // sum is identical at every pool width.
                let (a, b) = (self.data(), other.data());
                par::map_chunks(a.len(), DOT_GRAIN, |r| {
                    a[r.clone()]
                        .iter()
                        .zip(&b[r])
                        .map(|(x, y)| x * y)
                        .sum::<f32>()
                })
                .into_iter()
                .sum()
            },
            |_| {
                OpMeta::new()
                    .flops(2 * n as u64)
                    .bytes_read(2 * n as u64 * ELEM)
                    .bytes_written(ELEM)
                    .output_elems(1)
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_against_naive_reference() {
        let m = 13;
        let k = 7;
        let n = 11;
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, 1);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, 2);
        let c = a.matmul(&b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                assert!((c.data()[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, 3);
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_validates_shapes() {
        let a = t(&[1.0; 6], &[2, 3]);
        let b = t(&[1.0; 6], &[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = t(&[1.0; 3], &[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, 4);
        let v = Tensor::rand_uniform(&[4], -1.0, 1.0, 5);
        let mv = a.matvec(&v).unwrap();
        let v_col = t(v.data(), &[4, 1]);
        let mm = a.matmul(&v_col).unwrap();
        for (x, y) in mv.data().iter().zip(mm.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn outer_and_dot() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0, 5.0], &[3]);
        let o = a.outer(&b).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        let c = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.dot(&c).unwrap(), 11.0);
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Tensor::rand_uniform(&[5, 3], -1.0, 1.0, 30);
        let b = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, 31);
        let fused = a.matmul_bt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused.dims(), &[5, 4]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(a.matmul_bt(&Tensor::zeros(&[4, 2])).is_err());
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, 32);
        let b = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, 33);
        let fused = a.matmul_at(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused.dims(), &[5, 4]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(a.matmul_at(&Tensor::zeros(&[4, 2])).is_err());
    }

    #[test]
    fn gemm_flop_accounting() {
        let p = Profiler::new();
        {
            let _g = p.activate();
            let a = Tensor::ones(&[8, 16]);
            let b = Tensor::ones(&[16, 4]);
            let _ = a.matmul(&b).unwrap();
        }
        let e = &p.events()[0];
        assert_eq!(e.name, "sgemm");
        assert_eq!(e.flops, 2 * 8 * 16 * 4);
        assert_eq!(e.bytes_read, (8 * 16 + 16 * 4) * 4);
        assert_eq!(e.bytes_written, 8 * 4 * 4);
        // High operational intensity relative to elementwise.
        assert!(e.operational_intensity().unwrap() > 1.0);
    }

    #[test]
    fn gemm_flops_count_effective_work_on_sparse_inputs() {
        let p = Profiler::new();
        let mut a_data = vec![0.0f32; 8 * 16];
        for v in a_data.iter_mut().take(4 * 16) {
            *v = 1.0; // half the rows nonzero
        }
        let a = Tensor::from_vec(a_data, &[8, 16]).unwrap();
        let b = Tensor::ones(&[16, 4]);
        {
            let _g = p.activate();
            let _ = a.matmul(&b).unwrap();
            let _ = a.matmul_bt(&Tensor::ones(&[4, 16])).unwrap();
        }
        // Zero-skipping kernel: 64 nonzeros in A → 2·64·4 effective FLOPs,
        // not the dense 2·8·16·4 bound.
        assert_eq!(p.events()[0].flops, 2 * 64 * 4);
        // Dense-inner-loop kernel: full dense count regardless of zeros.
        assert_eq!(p.events()[1].flops, 2 * 8 * 16 * 4);
    }

    #[test]
    fn parallel_matmul_is_bitwise_equal_to_serial() {
        let a = Tensor::rand_uniform(&[33, 17], -1.0, 1.0, 50);
        let b = Tensor::rand_uniform(&[17, 21], -1.0, 1.0, 51);
        let serial = crate::par::with_threads(1, || a.matmul(&b).unwrap());
        for threads in [2, 4, 7] {
            let parallel = crate::par::with_threads(threads, || a.matmul(&b).unwrap());
            let same = serial
                .data()
                .iter()
                .zip(parallel.data())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "threads={threads}");
        }
    }
}
