//! Sparse matrices: COO and CSR formats, SpMM, SDDMM, and coalescing.
//!
//! Tab. I lists SpMM and SDDMM as the underlying operations of
//! GNN-with-attention neuro-symbolic systems, and Sec. IV-B's data
//! transformation category includes *coalescing* — summing duplicate
//! coordinates in a sparse matrix. Sparse kernels report their true
//! (nnz-proportional) FLOP and byte counts, so sparsity-aware ablations
//! (Recommendation 7) can be run against dense baselines.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// Coordinate-format sparse matrix (possibly with duplicate coordinates
/// until [`CooMatrix::coalesce`] is called).
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    /// (row, col, value) triplets.
    entries: Vec<(usize, usize, f32)>,
}

impl CooMatrix {
    /// Create from triplets.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any coordinate exceeds
    /// the matrix extent.
    pub fn new(
        rows: usize,
        cols: usize,
        entries: Vec<(usize, usize, f32)>,
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in &entries {
            if r >= rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                });
            }
            if c >= cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                });
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            entries,
        })
    }

    /// Build from a dense tensor, keeping non-zero entries.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn from_dense(t: &Tensor) -> Result<Self, TensorError> {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "coo_from_dense",
                expected: 2,
                actual: t.rank(),
            });
        }
        let (m, n) = (t.dims()[0], t.dims()[1]);
        let entries = run_op(
            "dense_to_coo",
            OpCategory::DataTransform,
            || {
                let mut entries = Vec::new();
                for i in 0..m {
                    for j in 0..n {
                        let v = t.data()[i * n + j];
                        if v != 0.0 {
                            entries.push((i, j, v));
                        }
                    }
                }
                entries
            },
            |entries| {
                OpMeta::new()
                    .bytes_read((m * n) as u64 * ELEM)
                    .bytes_written(entries.len() as u64 * 3 * ELEM)
                    .output_elems((m * n) as u64)
                    .output_nonzeros(entries.len() as u64)
            },
        );
        Ok(CooMatrix {
            rows: m,
            cols: n,
            entries,
        })
    }

    /// Stored entries (may contain duplicates before coalescing).
    pub fn entries(&self) -> &[(usize, usize, f32)] {
        &self.entries
    }

    /// Stored-entry count.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Sum duplicate coordinates, dropping resulting explicit zeros — the
    /// "coalescing" transform of Sec. IV-B.
    pub fn coalesce(&self) -> CooMatrix {
        let n_in = self.entries.len();
        let entries = run_op(
            "coalesce",
            OpCategory::DataTransform,
            || {
                let mut sorted = self.entries.clone();
                sorted.sort_by_key(|&(r, c, _)| (r, c));
                let mut out: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
                for (r, c, v) in sorted {
                    match out.last_mut() {
                        Some(last) if last.0 == r && last.1 == c => last.2 += v,
                        _ => out.push((r, c, v)),
                    }
                }
                out.retain(|&(_, _, v)| v != 0.0);
                out
            },
            |out| {
                OpMeta::new()
                    .flops(n_in as u64)
                    .bytes_read(n_in as u64 * 3 * ELEM)
                    .bytes_written(out.len() as u64 * 3 * ELEM)
                    .output_elems(n_in as u64)
                    .output_nonzeros(out.len() as u64)
            },
        );
        CooMatrix {
            rows: self.rows,
            cols: self.cols,
            entries,
        }
    }

    /// Convert to CSR (coalescing first).
    pub fn to_csr(&self) -> CsrMatrix {
        let coalesced = self.coalesce();
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &coalesced.entries {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = coalesced.entries.iter().map(|&(_, c, _)| c).collect();
        let values = coalesced.entries.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materialize to a dense tensor (duplicates summed).
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(&[self.rows, self.cols]);
        for &(r, c, v) in &self.entries {
            t.data_mut()[r * self.cols + c] += v;
        }
        t
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Values per non-zero.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Density of the matrix in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Sparse × dense matrix product (SpMM): `[m,k] × [k,n] → [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `dense` is not `[k, n]`.
    pub fn spmm(&self, dense: &Tensor) -> Result<Tensor, TensorError> {
        if dense.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "spmm",
                expected: 2,
                actual: dense.rank(),
            });
        }
        if dense.dims()[0] != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "spmm",
                lhs: vec![self.rows, self.cols],
                rhs: dense.dims().to_vec(),
            });
        }
        let n = dense.dims()[1];
        let nnz_count = self.nnz();
        Ok(run_op(
            "spmm",
            OpCategory::MatMul,
            || {
                let mut out = vec![0.0f32; self.rows * n];
                for r in 0..self.rows {
                    for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                        let c = self.col_idx[e];
                        let v = self.values[e];
                        let d_row = &dense.data()[c * n..(c + 1) * n];
                        let o_row = &mut out[r * n..(r + 1) * n];
                        for j in 0..n {
                            o_row[j] += v * d_row[j];
                        }
                    }
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[self.rows, n]))
            },
            |out| {
                OpMeta::new()
                    .flops(2 * (nnz_count * n) as u64)
                    // Irregular gathers: each nnz touches an index, a value,
                    // and a dense row.
                    .bytes_read((nnz_count as u64 * (2 + n as u64)) * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Sampled dense-dense matrix multiplication (SDDMM): computes
    /// `(A·Bᵀ)` only at this matrix's sparsity pattern, scaled by the stored
    /// values — the attention-score kernel of GNN neuro-symbolic systems.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless `a` is `[m,d]` and `b` is `[n,d]`.
    pub fn sddmm(&self, a: &Tensor, b: &Tensor) -> Result<CooMatrix, TensorError> {
        if a.rank() != 2 || b.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sddmm",
                expected: 2,
                actual: a.rank().min(b.rank()),
            });
        }
        if a.dims()[0] != self.rows || b.dims()[0] != self.cols || a.dims()[1] != b.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "sddmm",
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
        let d = a.dims()[1];
        let nnz_count = self.nnz();
        let entries = run_op(
            "sddmm",
            OpCategory::MatMul,
            || {
                let mut entries = Vec::with_capacity(nnz_count);
                for r in 0..self.rows {
                    for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                        let c = self.col_idx[e];
                        let dot: f32 = a.data()[r * d..(r + 1) * d]
                            .iter()
                            .zip(&b.data()[c * d..(c + 1) * d])
                            .map(|(x, y)| x * y)
                            .sum();
                        entries.push((r, c, self.values[e] * dot));
                    }
                }
                entries
            },
            |entries| {
                OpMeta::new()
                    .flops((2 * d as u64 + 1) * nnz_count as u64)
                    .bytes_read((nnz_count as u64 * (2 * d as u64 + 2)) * ELEM)
                    .bytes_written(entries.len() as u64 * 3 * ELEM)
                    .output_elems(entries.len() as u64)
                    .output_nonzeros(entries.iter().filter(|(_, _, v)| *v != 0.0).count() as u64)
            },
        );
        CooMatrix::new(self.rows, self.cols, entries)
    }

    /// Sparse matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless `v` has length `cols`.
    pub fn spmv(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        if v.rank() != 1 || v.numel() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "spmv",
                lhs: vec![self.rows, self.cols],
                rhs: v.dims().to_vec(),
            });
        }
        let nnz_count = self.nnz();
        Ok(run_op(
            "spmv",
            OpCategory::MatMul,
            || {
                let mut out = vec![0.0f32; self.rows];
                for (r, slot) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                        acc += self.values[e] * v.data()[self.col_idx[e]];
                    }
                    *slot = acc;
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[self.rows]))
            },
            |out| {
                OpMeta::new()
                    .flops(2 * nnz_count as u64)
                    .bytes_read(3 * nnz_count as u64 * ELEM)
                    .bytes_written(self.rows as u64 * ELEM)
                    .output_elems(self.rows as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Materialize to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(&[self.rows, self.cols]);
        for r in 0..self.rows {
            for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                t.data_mut()[r * self.cols + self.col_idx[e]] = self.values[e];
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Tensor {
        Tensor::from_vec(vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0], &[3, 3]).unwrap()
    }

    #[test]
    fn coo_round_trip_through_dense() {
        let d = sample_dense();
        let coo = CooMatrix::from_dense(&d).unwrap();
        assert_eq!(coo.nnz(), 4);
        assert_eq!(coo.to_dense().data(), d.data());
    }

    #[test]
    fn coo_validates_bounds() {
        assert!(CooMatrix::new(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(CooMatrix::new(2, 2, vec![(0, 2, 1.0)]).is_err());
        assert!(CooMatrix::new(2, 2, vec![(1, 1, 1.0)]).is_ok());
    }

    #[test]
    fn coalesce_sums_duplicates_and_drops_zeros() {
        let coo = CooMatrix::new(
            2,
            2,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (1, 1, -5.0)],
        )
        .unwrap();
        let c = coo.coalesce();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.entries()[0], (0, 0, 3.0));
    }

    #[test]
    fn csr_round_trip() {
        let d = sample_dense();
        let csr = CooMatrix::from_dense(&d).unwrap().to_csr();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_ptr, &[0, 2, 3, 4]);
        assert_eq!(csr.to_dense().data(), d.data());
        assert!((csr.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let d = sample_dense();
        let csr = CooMatrix::from_dense(&d).unwrap().to_csr();
        let b = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, 20);
        let sparse_out = csr.spmm(&b).unwrap();
        let dense_out = d.matmul(&b).unwrap();
        for (x, y) in sparse_out.data().iter().zip(dense_out.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_validates_shapes() {
        let csr = CooMatrix::from_dense(&sample_dense()).unwrap().to_csr();
        let bad = Tensor::zeros(&[4, 2]);
        assert!(csr.spmm(&bad).is_err());
        assert!(csr.spmm(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn spmv_matches_matvec() {
        let d = sample_dense();
        let csr = CooMatrix::from_dense(&d).unwrap().to_csr();
        let v = Tensor::rand_uniform(&[3], -1.0, 1.0, 21);
        let s = csr.spmv(&v).unwrap();
        let m = d.matvec(&v).unwrap();
        for (x, y) in s.data().iter().zip(m.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(csr.spmv(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn sddmm_computes_masked_dot_products() {
        // Pattern matrix with ones at (0,1) and (1,0).
        let pattern = CooMatrix::new(2, 2, vec![(0, 1, 1.0), (1, 0, 2.0)])
            .unwrap()
            .to_csr();
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let out = pattern.sddmm(&a, &b).unwrap();
        // (0,1): a_row0·b_row1 = 1*7+2*8 = 23, scaled by 1.0
        // (1,0): a_row1·b_row0 = 3*5+4*6 = 39, scaled by 2.0
        let dense = out.to_dense();
        assert_eq!(dense.at(&[0, 1]).unwrap(), 23.0);
        assert_eq!(dense.at(&[1, 0]).unwrap(), 78.0);
        assert_eq!(dense.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn sddmm_validates_shapes() {
        let pattern = CooMatrix::new(2, 3, vec![(0, 0, 1.0)]).unwrap().to_csr();
        let a = Tensor::zeros(&[2, 4]);
        let b_bad_rows = Tensor::zeros(&[2, 4]);
        assert!(pattern.sddmm(&a, &b_bad_rows).is_err());
        let b_bad_dim = Tensor::zeros(&[3, 5]);
        assert!(pattern.sddmm(&a, &b_bad_dim).is_err());
    }

    #[test]
    fn spmm_flops_scale_with_nnz_not_size() {
        use nsai_core::Profiler;
        let p = Profiler::new();
        let d = sample_dense(); // 4 nnz in 3x3
        let csr = CooMatrix::from_dense(&d).unwrap().to_csr();
        let b = Tensor::ones(&[3, 3]);
        {
            let _a = p.activate();
            let _ = csr.spmm(&b).unwrap();
        }
        let e = p
            .events()
            .iter()
            .find(|e| e.name == "spmm")
            .cloned()
            .unwrap();
        assert_eq!(e.flops, 2 * 4 * 3); // 2 * nnz * n, not 2 * 27
    }
}
