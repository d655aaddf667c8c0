//! Data transformation operators (`OpCategory::DataTransform`).
//!
//! Reshapes, transposes, permutations, gathers, masked selection, padding —
//! the paper's Sec. IV-B "Data Transformation" bucket. These move bytes
//! without arithmetic, so their events carry zero FLOPs; their runtime share
//! is what distinguishes e.g. NLM's symbolic phase (permutation-heavy).

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

fn move_meta(input_elems: usize, out: &Tensor) -> OpMeta {
    OpMeta::new()
        .bytes_read(input_elems as u64 * ELEM)
        .bytes_written(out.numel() as u64 * ELEM)
        .output_elems(out.numel() as u64)
        .output_nonzeros(nnz(out.data()))
}

impl Tensor {
    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                len: self.numel(),
                expected: new_shape.numel(),
            });
        }
        Ok(run_op(
            "reshape",
            OpCategory::DataTransform,
            || Tensor::from_vec_unchecked(self.data().to_vec(), new_shape.clone()),
            |out| move_meta(self.numel(), out),
        ))
    }

    /// Transpose a matrix: `[m,n] → [n,m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        Ok(run_op(
            "transpose",
            OpCategory::DataTransform,
            || {
                let mut out = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[j * m + i] = self.data()[i * n + j];
                    }
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[n, m]))
            },
            |out| move_meta(self.numel(), out),
        ))
    }

    /// Permute axes: output axis `i` is input axis `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] unless `perm` is a
    /// permutation of `0..rank`.
    pub fn permute_axes(&self, perm: &[usize]) -> Result<Tensor, TensorError> {
        if perm.len() != self.rank() {
            return Err(TensorError::InvalidArgument(format!(
                "permutation length {} != rank {}",
                perm.len(),
                self.rank()
            )));
        }
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            if p >= self.rank() || seen[p] {
                return Err(TensorError::InvalidArgument(format!(
                    "invalid permutation {perm:?}"
                )));
            }
            seen[p] = true;
        }
        let in_dims = self.dims().to_vec();
        let out_dims: Vec<usize> = perm.iter().map(|&p| in_dims[p]).collect();
        let in_strides = self.shape().strides();
        let out_shape = Shape::new(&out_dims);
        Ok(run_op(
            "permute_axes",
            OpCategory::DataTransform,
            || {
                let mut out = Vec::with_capacity(self.numel());
                for idx in out_shape.indices() {
                    let mut off = 0usize;
                    for (o_axis, &i) in idx.iter().enumerate() {
                        off += i * in_strides[perm[o_axis]];
                    }
                    out.push(self.data()[off]);
                }
                Tensor::from_vec_unchecked(out, out_shape.clone())
            },
            |out| move_meta(self.numel(), out),
        ))
    }

    /// Concatenate tensors along `axis`.
    ///
    /// # Errors
    ///
    /// Returns errors when the list is empty, ranks differ, or non-`axis`
    /// dimensions disagree.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor, TensorError> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of empty list".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::RankMismatch {
                    op: "concat",
                    expected: rank,
                    actual: t.rank(),
                });
            }
            for (a, (&d1, &d2)) in first.dims().iter().zip(t.dims()).enumerate() {
                if a != axis && d1 != d2 {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.dims().to_vec(),
                        rhs: t.dims().to_vec(),
                    });
                }
            }
            axis_total += t.dims()[axis];
        }
        let mut out_dims = first.dims().to_vec();
        out_dims[axis] = axis_total;
        let outer: usize = first.dims()[..axis].iter().product();
        let inner: usize = first.dims()[axis + 1..].iter().product();
        let total_in: usize = tensors.iter().map(|t| t.numel()).sum();
        Ok(run_op(
            "concat",
            OpCategory::DataTransform,
            || {
                let mut out = Vec::with_capacity(outer * axis_total * inner);
                for o in 0..outer {
                    for t in tensors {
                        let a_len = t.dims()[axis];
                        let start = o * a_len * inner;
                        out.extend_from_slice(&t.data()[start..start + a_len * inner]);
                    }
                }
                Tensor::from_vec_unchecked(out, Shape::new(&out_dims))
            },
            |out| move_meta(total_in, out),
        ))
    }

    /// Extract the slice `[start, start+len)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns range errors when the window exceeds the axis.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Result<Tensor, TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let d = self.dims()[axis];
        if start + len > d {
            return Err(TensorError::IndexOutOfBounds {
                index: start + len,
                bound: d,
            });
        }
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out_dims = self.dims().to_vec();
        out_dims[axis] = len;
        Ok(run_op(
            "slice",
            OpCategory::DataTransform,
            || {
                let mut out = Vec::with_capacity(outer * len * inner);
                for o in 0..outer {
                    let base = (o * d + start) * inner;
                    out.extend_from_slice(&self.data()[base..base + len * inner]);
                }
                Tensor::from_vec_unchecked(out, Shape::new(&out_dims))
            },
            |out| move_meta(out.numel(), out),
        ))
    }

    /// Gather rows of a rank-2 tensor by index: output row `i` is input row
    /// `indices[i]`.
    ///
    /// # Errors
    ///
    /// Returns rank/bound errors for non-matrices or out-of-range indices.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "gather_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if let Some(&bad) = indices.iter().find(|&&i| i >= m) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                bound: m,
            });
        }
        Ok(run_op(
            "gather_rows",
            OpCategory::DataTransform,
            || {
                let mut out = Vec::with_capacity(indices.len() * n);
                for &i in indices {
                    out.extend_from_slice(&self.data()[i * n..(i + 1) * n]);
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[indices.len(), n]))
            },
            |out| move_meta(out.numel(), out),
        ))
    }

    /// Select elements where `mask` is non-zero, flattening to rank 1 — the
    /// paper's "masked selection" transform.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn masked_select(&self, mask: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape() != mask.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "masked_select",
                lhs: self.dims().to_vec(),
                rhs: mask.dims().to_vec(),
            });
        }
        Ok(run_op(
            "masked_select",
            OpCategory::DataTransform,
            || {
                let out: Vec<f32> = self
                    .data()
                    .iter()
                    .zip(mask.data())
                    .filter(|(_, m)| **m != 0.0)
                    .map(|(v, _)| *v)
                    .collect();
                let len = out.len();
                Tensor::from_vec_unchecked(out, Shape::new(&[len]))
            },
            |out| {
                OpMeta::new()
                    .bytes_read(2 * self.numel() as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Circularly shift (roll) a rank-1 tensor right by `k` — the VSA
    /// permutation operator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-vectors.
    pub fn roll(&self, k: usize) -> Result<Tensor, TensorError> {
        if self.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "roll",
                expected: 1,
                actual: self.rank(),
            });
        }
        let n = self.numel();
        Ok(run_op(
            "roll",
            OpCategory::DataTransform,
            || {
                if n == 0 {
                    return Tensor::from_vec_unchecked(Vec::new(), Shape::new(&[0]));
                }
                let k = k % n;
                let mut out = Vec::with_capacity(n);
                out.extend_from_slice(&self.data()[n - k..]);
                out.extend_from_slice(&self.data()[..n - k]);
                Tensor::from_vec_unchecked(out, Shape::new(&[n]))
            },
            |out| move_meta(n, out),
        ))
    }

    /// One-hot encode a class index into a length-`n` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `index >= n`.
    pub fn one_hot(index: usize, n: usize) -> Result<Tensor, TensorError> {
        if index >= n {
            return Err(TensorError::IndexOutOfBounds { index, bound: n });
        }
        Ok(run_op(
            "one_hot",
            OpCategory::DataTransform,
            || {
                let mut out = vec![0.0f32; n];
                out[index] = 1.0;
                Tensor::from_vec_unchecked(out, Shape::new(&[n]))
            },
            |out| move_meta(1, out),
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
    fn reshape_preserves_data() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = a.transpose().unwrap();
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::zeros(&[2]).transpose().is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::rand_uniform(&[4, 7], -1.0, 1.0, 9);
        let b = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn permute_axes_matches_transpose_for_rank2() {
        let a = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, 10);
        let p = a.permute_axes(&[1, 0]).unwrap();
        let tr = a.transpose().unwrap();
        assert_eq!(p.data(), tr.data());
        assert_eq!(p.dims(), tr.dims());
    }

    #[test]
    fn permute_axes_rank3() {
        let a = t(&(0..24).map(|v| v as f32).collect::<Vec<_>>(), &[2, 3, 4]);
        let p = a.permute_axes(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        // p[i,j,k] = a[j,k,i]
        assert_eq!(p.at(&[1, 0, 2]).unwrap(), a.at(&[0, 2, 1]).unwrap());
    }

    #[test]
    fn permute_axes_validation() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(a.permute_axes(&[0]).is_err());
        assert!(a.permute_axes(&[0, 0]).is_err());
        assert!(a.permute_axes(&[0, 2]).is_err());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0], &[1, 2]);
        let c = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);

        let d = t(&[9.0, 10.0], &[2, 1]);
        let e = Tensor::concat(&[&a, &d], 1).unwrap();
        assert_eq!(e.dims(), &[2, 3]);
        assert_eq!(e.data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 10.0]);
    }

    #[test]
    fn concat_validation() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(Tensor::concat(&[], 0).is_err());
        assert!(Tensor::concat(&[&a, &b], 0).is_err());
        assert!(Tensor::concat(&[&a], 5).is_err());
    }

    #[test]
    fn slice_axis_extracts_window() {
        let a = t(&(0..12).map(|v| v as f32).collect::<Vec<_>>(), &[3, 4]);
        let s = a.slice_axis(0, 1, 2).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.data()[0], 4.0);
        let s1 = a.slice_axis(1, 2, 2).unwrap();
        assert_eq!(s1.dims(), &[3, 2]);
        assert_eq!(s1.data(), &[2.0, 3.0, 6.0, 7.0, 10.0, 11.0]);
        assert!(a.slice_axis(0, 2, 2).is_err());
    }

    #[test]
    fn gather_rows_reorders() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = a.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn masked_select_filters() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        let m = t(&[1.0, 0.0, 1.0, 0.0], &[4]);
        let s = a.masked_select(&m).unwrap();
        assert_eq!(s.data(), &[1.0, 3.0]);
        assert!(a.masked_select(&t(&[1.0], &[1])).is_err());
    }

    #[test]
    fn roll_is_cyclic() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.roll(1).unwrap().data(), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.roll(4).unwrap().data(), a.data());
        assert_eq!(a.roll(5).unwrap().data(), a.roll(1).unwrap().data());
        assert!(Tensor::zeros(&[2, 2]).roll(1).is_err());
    }

    #[test]
    fn one_hot_sets_one_index() {
        let h = Tensor::one_hot(2, 4).unwrap();
        assert_eq!(h.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(Tensor::one_hot(4, 4).is_err());
    }
}
