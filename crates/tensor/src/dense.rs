//! The dense `f32` tensor with allocation tracking.
//!
//! Construction reports the storage size to the active profiler's memory
//! tracker; `Drop` reports the release. This is what makes Fig. 3b's
//! memory-high-water measurements possible without any bookkeeping in
//! workload code.

use crate::error::TensorError;
use crate::instrument::ELEM;
use crate::shape::Shape;
use nsai_core::profile;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A dense, row-major, `f32` tensor.
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Build a tensor from a flat row-major buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.numel(),
            });
        }
        profile::record_alloc(data.len() as u64 * ELEM);
        Ok(Tensor { data, shape })
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[]).expect("scalar construction is infallible")
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        profile::record_alloc(shape.numel() as u64 * ELEM);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        profile::record_alloc(shape.numel() as u64 * ELEM);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        let data = (0..n).map(|i| i as f32).collect();
        Tensor::from_vec(data, &[n]).expect("arange length always matches")
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic seed.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(lo, hi);
        let data = (0..shape.numel()).map(|_| dist.sample(&mut rng)).collect();
        profile::record_alloc(shape.numel() as u64 * ELEM);
        Tensor { data, shape }
    }

    /// Standard-normal random tensor scaled by `std`, from a deterministic
    /// seed (Box–Muller; no external distribution crates needed).
    pub fn rand_normal(dims: &[usize], std: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform = rand::distributions::Uniform::new(f32::EPSILON, 1.0f32);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = uniform.sample(&mut rng);
            let u2: f32 = uniform.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        profile::record_alloc(n as u64 * ELEM);
        Tensor { data, shape }
    }

    /// Random ±1 (bipolar) tensor from a deterministic seed — the native
    /// format of bipolar hypervectors.
    pub fn rand_bipolar(dims: &[usize], seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new_inclusive(0u8, 1u8);
        let data = (0..shape.numel())
            .map(|_| {
                if dist.sample(&mut rng) == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        profile::record_alloc(shape.numel() as u64 * ELEM);
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Storage size in bytes.
    pub fn bytes(&self) -> u64 {
        self.numel() as u64 * ELEM
    }

    /// Read-only view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    ///
    /// Direct mutation bypasses operator instrumentation; preferred only in
    /// construction code.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index validation from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Set the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index validation from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Zero fraction of the tensor, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            1.0 - self.count_nonzero() as f64 / self.data.len() as f64
        }
    }

    /// Construct without reporting the allocation (used by kernels that
    /// account for output allocation in their own event bytes).
    pub(crate) fn from_vec_unchecked(data: Vec<f32>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        profile::record_alloc(data.len() as u64 * ELEM);
        Tensor { data, shape }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        profile::record_dealloc(self.data.len() as u64 * ELEM);
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        profile::record_alloc(self.data.len() as u64 * ELEM);
        Tensor {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.numel() <= 16 {
            write!(f, "Tensor{} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{} [{} elements, {:.1}% sparse]",
                self.shape,
                self.numel(),
                self.sparsity() * 100.0
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn constructors_produce_expected_values() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
        let eye = Tensor::eye(2);
        assert_eq!(eye.data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn random_constructors_are_deterministic() {
        let a = Tensor::rand_uniform(&[100], -1.0, 1.0, 42);
        let b = Tensor::rand_uniform(&[100], -1.0, 1.0, 42);
        assert_eq!(a, b);
        let c = Tensor::rand_uniform(&[100], -1.0, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn bipolar_has_only_plus_minus_one() {
        let t = Tensor::rand_bipolar(&[1000], 7);
        assert!(t.data().iter().all(|v| *v == 1.0 || *v == -1.0));
        // Roughly balanced.
        let ones = t.data().iter().filter(|v| **v == 1.0).count();
        assert!((400..=600).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let t = Tensor::rand_normal(&[10_000], 2.0, 1);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn sparsity_counts() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 2.0], &[4]).unwrap();
        assert_eq!(t.count_nonzero(), 2);
        assert!((t.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn allocation_is_reported_to_active_profiler() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            let t = Tensor::zeros(&[256]); // 1 KiB
            assert_eq!(p.memory().live_bytes(), 1024);
            drop(t);
            assert_eq!(p.memory().live_bytes(), 0);
            assert_eq!(p.memory().high_water_bytes(), 1024);
        }
    }

    #[test]
    fn clone_reports_second_allocation() {
        let p = Profiler::new();
        let _a = p.activate();
        let t = Tensor::zeros(&[256]);
        let _u = t.clone();
        assert_eq!(p.memory().live_bytes(), 2048);
    }

    #[test]
    fn debug_formats_small_and_large() {
        let small = Tensor::zeros(&[2]);
        assert!(format!("{small:?}").contains("[0.0, 0.0]"));
        let large = Tensor::zeros(&[100]);
        assert!(format!("{large:?}").contains("100 elements"));
    }
}
