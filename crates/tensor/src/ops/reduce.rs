//! Reductions, softmax, and normalization (`OpCategory::VectorElementwise`).
//!
//! Reductions share the low operational intensity of elementwise kernels
//! (one FLOP per 4 bytes read) and are classified with them, as the paper's
//! taxonomy folds "activation, normalization, and relational operations"
//! into the vector/element-wise category.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::par;
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// Elements per partial in chunked full reductions. The same fixed-grain
/// partials are produced in the serial and parallel paths and folded in
/// chunk order on the caller, so the (non-associative) float result is
/// identical at every pool width. Large enough that typical small tensors
/// reduce in a single chunk, i.e. exactly the classic single-pass loop.
const REDUCE_GRAIN: usize = 64 * 1024;

/// Rows per parallel softmax chunk.
const SOFTMAX_ROW_GRAIN: usize = 8;

/// Deterministic chunked sum: fixed-grain partials folded in chunk order.
fn chunked_sum(data: &[f32]) -> f32 {
    par::map_chunks(data.len(), REDUCE_GRAIN, |r| data[r].iter().sum::<f32>())
        .into_iter()
        .sum()
}

/// Deterministic chunked fold with an associative-enough combiner
/// (min/max): partials folded in chunk order.
fn chunked_fold(data: &[f32], init: f32, f: impl Fn(f32, f32) -> f32 + Sync + Copy) -> f32 {
    par::map_chunks(data.len(), REDUCE_GRAIN, |r| {
        data[r].iter().cloned().fold(init, f)
    })
    .into_iter()
    .fold(init, f)
}

impl Tensor {
    fn full_reduce(&self, name: &'static str, f: impl FnOnce(&[f32]) -> f32) -> f32 {
        let n = self.numel() as u64;
        run_op(
            name,
            OpCategory::VectorElementwise,
            || f(self.data()),
            |_| {
                OpMeta::new()
                    .flops(n)
                    .bytes_read(n * ELEM)
                    .bytes_written(ELEM)
                    .output_elems(1)
            },
        )
    }

    /// Sum of all elements (chunked; identical at every pool width).
    pub fn sum(&self) -> f32 {
        self.full_reduce("sum", chunked_sum)
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            return 0.0;
        }
        let n = self.numel() as f32;
        self.full_reduce("mean", move |d| chunked_sum(d) / n)
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max() of empty tensor");
        self.full_reduce("max", |d| chunked_fold(d, f32::NEG_INFINITY, f32::max))
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min() of empty tensor");
        self.full_reduce("min", |d| chunked_fold(d, f32::INFINITY, f32::min))
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        let n = self.numel() as u64;
        run_op(
            "norm",
            OpCategory::VectorElementwise,
            || {
                let d = self.data();
                par::map_chunks(d.len(), REDUCE_GRAIN, |r| {
                    d[r].iter().map(|v| v * v).sum::<f32>()
                })
                .into_iter()
                .sum::<f32>()
                .sqrt()
            },
            |_| {
                OpMeta::new()
                    .flops(2 * n)
                    .bytes_read(n * ELEM)
                    .bytes_written(ELEM)
                    .output_elems(1)
            },
        )
    }

    /// Sum along one axis, removing it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] when `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor, TensorError> {
        self.reduce_axis("sum_axis", axis, 0.0, |a, b| a + b, |acc, _| acc)
    }

    /// Maximum along one axis, removing it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] when `axis >= rank`.
    pub fn max_axis(&self, axis: usize) -> Result<Tensor, TensorError> {
        self.reduce_axis("max_axis", axis, f32::NEG_INFINITY, f32::max, |acc, _| acc)
    }

    fn reduce_axis(
        &self,
        name: &'static str,
        axis: usize,
        init: f32,
        fold: impl Fn(f32, f32) -> f32,
        finish: impl Fn(f32, usize) -> f32,
    ) -> Result<Tensor, TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let dims = self.dims();
        let axis_len = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims: Vec<usize> = dims.to_vec();
        out_dims.remove(axis);
        let n = self.numel() as u64;
        Ok(run_op(
            name,
            OpCategory::VectorElementwise,
            || {
                let mut out = vec![init; outer * inner];
                for o in 0..outer {
                    for a in 0..axis_len {
                        let base = (o * axis_len + a) * inner;
                        for i in 0..inner {
                            let idx = o * inner + i;
                            out[idx] = fold(out[idx], self.data()[base + i]);
                        }
                    }
                }
                for v in out.iter_mut() {
                    *v = finish(*v, axis_len);
                }
                Tensor::from_vec_unchecked(out, Shape::new(&out_dims))
            },
            |out| {
                OpMeta::new()
                    .flops(n)
                    .bytes_read(n * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Numerically-stable softmax along the last axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for rank-0 tensors.
    pub fn softmax(&self) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidArgument(
                "softmax requires rank >= 1".into(),
            ));
        }
        let last = self.dims()[self.rank() - 1];
        if last == 0 {
            return Err(TensorError::InvalidArgument(
                "softmax over empty axis".into(),
            ));
        }
        let n = self.numel() as u64;
        Ok(run_op(
            "softmax",
            OpCategory::VectorElementwise,
            || {
                // Rows are independent: parallel over row blocks, serial
                // per-row arithmetic unchanged.
                let mut out = vec![0.0f32; self.numel()];
                par::fill_chunks(&mut out, SOFTMAX_ROW_GRAIN * last, |range, dst| {
                    let r0 = range.start / last;
                    for (local, o_row) in dst.chunks_mut(last).enumerate() {
                        let r = r0 + local;
                        let row = &self.data()[r * last..(r + 1) * last];
                        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut denom = 0.0f32;
                        for (i, v) in row.iter().enumerate() {
                            let e = (v - m).exp();
                            o_row[i] = e;
                            denom += e;
                        }
                        for v in o_row.iter_mut() {
                            *v /= denom;
                        }
                    }
                });
                Tensor::from_vec_unchecked(out, self.shape().clone())
            },
            |out| {
                OpMeta::new()
                    .flops(4 * n)
                    .bytes_read(n * ELEM)
                    .bytes_written(n * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Normalize to unit sum along the last axis (probability
    /// normalization). Rows with zero sum become uniform.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for rank-0 tensors.
    pub fn normalize_prob(&self) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidArgument(
                "normalize_prob requires rank >= 1".into(),
            ));
        }
        let last = self.dims()[self.rank() - 1];
        let rows = self.numel() / last.max(1);
        let n = self.numel() as u64;
        Ok(run_op(
            "normalize_prob",
            OpCategory::VectorElementwise,
            || {
                let mut out = self.data().to_vec();
                for r in 0..rows {
                    let row = &mut out[r * last..(r + 1) * last];
                    let s: f32 = row.iter().sum();
                    if s > 0.0 {
                        for v in row.iter_mut() {
                            *v /= s;
                        }
                    } else {
                        let u = 1.0 / last as f32;
                        for v in row.iter_mut() {
                            *v = u;
                        }
                    }
                }
                Tensor::from_vec_unchecked(out, self.shape().clone())
            },
            |out| {
                OpMeta::new()
                    .flops(2 * n)
                    .bytes_read(n * ELEM)
                    .bytes_written(n * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Cosine similarity with another vector of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for differing shapes. Returns
    /// 0.0 when either vector has zero norm.
    pub fn cosine_similarity(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "cosine_similarity",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let n = self.numel() as u64;
        Ok(run_op(
            "cosine_similarity",
            OpCategory::VectorElementwise,
            || {
                let (av, bv) = (self.data(), other.data());
                let (dot, na, nb) = par::map_chunks(av.len(), REDUCE_GRAIN, |r| {
                    let mut dot = 0.0f32;
                    let mut na = 0.0f32;
                    let mut nb = 0.0f32;
                    for (a, b) in av[r.clone()].iter().zip(&bv[r]) {
                        dot += a * b;
                        na += a * a;
                        nb += b * b;
                    }
                    (dot, na, nb)
                })
                .into_iter()
                .fold((0.0f32, 0.0f32, 0.0f32), |acc, p| {
                    (acc.0 + p.0, acc.1 + p.1, acc.2 + p.2)
                });
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na.sqrt() * nb.sqrt())
                }
            },
            |_| {
                OpMeta::new()
                    .flops(6 * n)
                    .bytes_read(2 * n * ELEM)
                    .bytes_written(ELEM)
                    .output_elems(1)
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn scalar_reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axis_reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s0 = a.sum_axis(0).unwrap();
        assert_eq!(s0.dims(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = a.sum_axis(1).unwrap();
        assert_eq!(s1.data(), &[6.0, 15.0]);
        let x0 = a.max_axis(0).unwrap();
        assert_eq!(x0.data(), &[4.0, 5.0, 6.0]);
        assert!(a.sum_axis(2).is_err());
    }

    #[test]
    fn axis_reduction_on_rank3_middle_axis() {
        let a = Tensor::arange(24);
        let a = t(a.data(), &[2, 3, 4]);
        let s = a.sum_axis(1).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        // element [0,0] = a[0,0,0]+a[0,1,0]+a[0,2,0] = 0+4+8
        assert_eq!(s.data()[0], 12.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax().unwrap();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform row stays uniform.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
        // Softmax is monotone.
        assert!(s.data()[2] > s.data()[1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = t(&[1000.0, 1001.0], &[2]);
        let s = a.softmax().unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_prob_handles_zero_rows() {
        let a = t(&[2.0, 2.0, 0.0, 0.0], &[2, 2]);
        let p = a.normalize_prob().unwrap();
        assert_eq!(p.data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = t(&[1.0, 0.0], &[2]);
        let b = t(&[0.0, 1.0], &[2]);
        assert_eq!(a.cosine_similarity(&b).unwrap(), 0.0);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
        let neg = t(&[-1.0, 0.0], &[2]);
        assert!((a.cosine_similarity(&neg).unwrap() + 1.0).abs() < 1e-6);
        let zero = Tensor::zeros(&[2]);
        assert_eq!(a.cosine_similarity(&zero).unwrap(), 0.0);
        assert!(a.cosine_similarity(&t(&[1.0], &[1])).is_err());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let a = Tensor::zeros(&[0]);
        assert_eq!(a.mean(), 0.0);
    }
}
