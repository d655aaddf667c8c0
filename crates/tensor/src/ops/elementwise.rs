//! Vector / element-wise tensor operations (`OpCategory::VectorElementwise`).
//!
//! These are the kernels that dominate symbolic workloads (Takeaway 3):
//! low operational intensity — one or two FLOPs per 12 bytes moved — which
//! is what puts the symbolic phases in the memory-bound region of Fig. 3c.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::par;
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// Elements per parallel chunk of the aligned fast paths. Fixed so the
/// decomposition is pool-width invariant; elementwise maps are bitwise
/// order-independent anyway, but a fixed grain keeps the dispatch shape
/// deterministic too.
const ELEMWISE_GRAIN: usize = 32 * 1024;

impl Tensor {
    /// Apply a binary elementwise kernel with NumPy broadcasting.
    ///
    /// Both paths run chunked on the parallel engine: the aligned
    /// (same-shape) fast path zips the buffers directly, and the
    /// broadcasting path walks precomputed broadcast strides with an
    /// odometer counter — no per-element index materialization.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn binary_op(
        &self,
        other: &Tensor,
        name: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor, TensorError> {
        let out_shape = self.shape().broadcast(other.shape())?;
        let read_bytes = (self.numel() + other.numel()) as u64 * ELEM;
        let out = run_op(
            name,
            OpCategory::VectorElementwise,
            || {
                if self.shape() == other.shape() {
                    // Fast path: aligned buffers, chunked in parallel.
                    let (a, b) = (self.data(), other.data());
                    let mut data = vec![0.0f32; a.len()];
                    par::fill_chunks(&mut data, ELEMWISE_GRAIN, |range, dst| {
                        for ((d, x), y) in dst.iter_mut().zip(&a[range.clone()]).zip(&b[range]) {
                            *d = f(*x, *y);
                        }
                    });
                    Tensor::from_vec_unchecked(data, out_shape.clone())
                } else {
                    let out_dims = out_shape.dims();
                    let sa = broadcast_strides(self.shape(), out_dims);
                    let sb = broadcast_strides(other.shape(), out_dims);
                    let (a, b) = (self.data(), other.data());
                    let mut data = vec![0.0f32; out_shape.numel()];
                    par::fill_chunks(&mut data, ELEMWISE_GRAIN, |range, dst| {
                        let mut idx = linear_to_multi(range.start, out_dims);
                        let mut off_a = offset_of(&idx, &sa);
                        let mut off_b = offset_of(&idx, &sb);
                        for d in dst {
                            *d = f(a[off_a], b[off_b]);
                            // Odometer increment: bump the innermost axis,
                            // carrying into outer axes as they wrap.
                            for axis in (0..out_dims.len()).rev() {
                                idx[axis] += 1;
                                off_a += sa[axis];
                                off_b += sb[axis];
                                if idx[axis] < out_dims[axis] {
                                    break;
                                }
                                idx[axis] = 0;
                                off_a -= sa[axis] * out_dims[axis];
                                off_b -= sb[axis] * out_dims[axis];
                            }
                        }
                    });
                    Tensor::from_vec_unchecked(data, out_shape.clone())
                }
            },
            |out| {
                OpMeta::new()
                    .flops(out.numel() as u64)
                    .bytes_read(read_bytes)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        );
        Ok(out)
    }

    /// Apply a unary elementwise kernel (chunked on the parallel engine).
    pub fn unary_op(&self, name: &'static str, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        run_op(
            name,
            OpCategory::VectorElementwise,
            || {
                let src = self.data();
                let mut data = vec![0.0f32; src.len()];
                par::fill_chunks(&mut data, ELEMWISE_GRAIN, |range, dst| {
                    for (d, s) in dst.iter_mut().zip(&src[range]) {
                        *d = f(*s);
                    }
                });
                Tensor::from_vec_unchecked(data, self.shape().clone())
            },
            |out| {
                OpMeta::new()
                    .flops(out.numel() as u64)
                    .bytes_read(self.numel() as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        )
    }

    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_op(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_op(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication with broadcasting — the VSA
    /// *binding* kernel for bipolar hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_op(other, "mul", |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn div(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_op(other, "div", |a, b| a / b)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary_op("add_scalar", |v| v + s)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary_op("mul_scalar", |v| v * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.unary_op("neg", |v| -v)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.unary_op("abs", f32::abs)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary_op("exp", f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary_op("ln", f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary_op("sqrt", f32::sqrt)
    }

    /// Elementwise ReLU activation.
    pub fn relu(&self) -> Tensor {
        self.unary_op("relu", |v| v.max(0.0))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary_op("sigmoid", |v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary_op("tanh", f32::tanh)
    }

    /// Elementwise sign (−1, 0, +1) — the VSA bipolarization kernel.
    pub fn sign(&self) -> Tensor {
        self.unary_op("sign", |v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.unary_op("clamp", |v| v.clamp(lo, hi))
    }

    /// Raise every element to an integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.unary_op("powi", |v| v.powi(n))
    }
}

/// Fetch the element of `t` that broadcasts to position `idx` of
/// `out_shape`.
/// Per-output-axis element strides of an operand under broadcasting:
/// axes the operand lacks (left-padded) or has size 1 in get stride 0,
/// so walking the output in row-major order re-reads the same operand
/// element along broadcast axes.
fn broadcast_strides(shape: &Shape, out_dims: &[usize]) -> Vec<usize> {
    let dims = shape.dims();
    let strides = shape.strides();
    let rank_diff = out_dims.len() - dims.len();
    let mut out = vec![0usize; out_dims.len()];
    for (axis, (&d, s)) in dims.iter().zip(strides).enumerate() {
        if d != 1 {
            out[axis + rank_diff] = s;
        }
    }
    out
}

/// Decompose a row-major linear index into a multi-index over `dims`.
fn linear_to_multi(linear: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0usize; dims.len()];
    let mut rem = linear;
    for axis in (0..dims.len()).rev() {
        idx[axis] = rem % dims[axis];
        rem /= dims[axis];
    }
    idx
}

fn offset_of(idx: &[usize], strides: &[usize]) -> usize {
    idx.iter().zip(strides).map(|(i, s)| i * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::taxonomy::Phase;
    use nsai_core::Profiler;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_aligned() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[10.0, 20.0], &[2]);
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_odometer_matches_naive_gather_across_chunks() {
        // Output numel exceeds ELEMWISE_GRAIN so later chunks start at a
        // nonzero linear index, exercising the start-offset decomposition.
        let rows = 3;
        let cols = ELEMWISE_GRAIN / 2;
        let col_vals: Vec<f32> = (0..cols).map(|j| (j % 97) as f32).collect();
        let row_vals: Vec<f32> = (0..rows).map(|i| 1000.0 * i as f32).collect();
        let a = t(&col_vals, &[cols]);
        let b = t(&row_vals, &[rows, 1]);
        let c = b.add(&a).unwrap();
        assert_eq!(c.dims(), &[rows, cols]);
        for (i, rv) in row_vals.iter().enumerate() {
            for j in (0..cols).step_by(1013) {
                assert_eq!(c.data()[i * cols + j], rv + col_vals[j]);
            }
        }
    }

    #[test]
    fn broadcast_mid_axis_size_one() {
        // [2, 1, 3] + [2, 2, 3]: the middle axis broadcasts, so the
        // operand's stride there must collapse to zero.
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 1, 3]);
        let b = t(&[10.0; 12], &[2, 2, 3]);
        let c = a.add(&b).unwrap();
        assert_eq!(
            c.data(),
            &[11.0, 12.0, 13.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 14.0, 15.0, 16.0]
        );
    }

    #[test]
    fn broadcast_row_and_column() {
        let a = t(&[1.0, 2.0, 3.0], &[3, 1]);
        let b = t(&[10.0, 20.0], &[1, 2]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[11.0, 21.0, 12.0, 22.0, 13.0, 23.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = t(&[1.0, 2.0], &[2]);
        let s = Tensor::scalar(100.0);
        assert_eq!(a.add(&s).unwrap().data(), &[101.0, 102.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn arithmetic_kernels() {
        let a = t(&[4.0, 9.0], &[2]);
        let b = t(&[2.0, 3.0], &[2]);
        assert_eq!(a.sub(&b).unwrap().data(), &[2.0, 6.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[8.0, 27.0]);
        assert_eq!(a.div(&b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn unary_kernels() {
        let a = t(&[-1.0, 4.0], &[2]);
        assert_eq!(a.neg().data(), &[1.0, -4.0]);
        assert_eq!(a.abs().data(), &[1.0, 4.0]);
        assert_eq!(a.relu().data(), &[0.0, 4.0]);
        assert_eq!(a.sqrt().data()[1], 2.0);
        assert_eq!(a.sign().data(), &[-1.0, 1.0]);
        assert_eq!(a.clamp(0.0, 2.0).data(), &[0.0, 2.0]);
        assert_eq!(a.powi(2).data(), &[1.0, 16.0]);
        assert_eq!(t(&[0.0], &[1]).sign().data(), &[0.0]);
    }

    #[test]
    fn sigmoid_and_tanh_ranges() {
        let a = t(&[-100.0, 0.0, 100.0], &[3]);
        let s = a.sigmoid();
        assert!(s.data()[0] < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 1.0 - 1e-6);
        let th = a.tanh();
        assert!((th.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn scalar_helpers() {
        let a = t(&[1.0, 2.0], &[2]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
        assert_eq!(a.mul_scalar(3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn exp_ln_round_trip() {
        let a = t(&[0.5, 1.0, 2.0], &[3]);
        let back = a.exp().ln();
        for (x, y) in a.data().iter().zip(back.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn events_are_recorded_with_sparsity() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            let a = t(&[-1.0, 2.0], &[2]);
            let _r = a.relu();
        }
        let events = p.events();
        let relu = events.iter().find(|e| e.name == "relu").unwrap();
        assert_eq!(relu.category, OpCategory::VectorElementwise);
        assert_eq!(relu.phase, Phase::Neural);
        assert_eq!(relu.output_elems, 2);
        assert_eq!(relu.output_nonzeros, 1);
        assert_eq!(relu.flops, 2);
        assert_eq!(relu.bytes_read, 8);
        assert_eq!(relu.bytes_written, 8);
    }

    #[test]
    fn no_events_without_profiler() {
        let p = Profiler::new();
        let a = t(&[1.0], &[1]);
        let _r = a.relu(); // no active profiler
        assert!(p.is_empty());
    }
}
