//! Tabular classification data with group axioms — the LTN workload's
//! stand-in for UCI-style datasets.
//!
//! LTN grounds predicates like `ClassA(x)` as neural networks over feature
//! vectors and trains them to satisfy logical axioms
//! (`∀x: ClassA(x) → ¬ClassB(x)`, exhaustiveness, ...). The generator
//! produces separable Gaussian blobs so those axioms are satisfiable.

use nsai_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labeled tabular dataset of Gaussian class blobs.
#[derive(Debug, Clone)]
pub struct BlobDataset {
    /// Feature matrix `[n, dim]`.
    pub features: Tensor,
    /// Class label per row.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub dim: usize,
}

impl BlobDataset {
    /// Generate `per_class` points for each of `classes` Gaussian blobs in
    /// `dim` dimensions. Blob centres are placed on scaled unit axes so
    /// classes are linearly separable at `spread < 1`.
    ///
    /// # Panics
    ///
    /// Panics for zero sizes or `classes > 2·dim`.
    pub fn generate(classes: usize, per_class: usize, dim: usize, spread: f32, seed: u64) -> Self {
        assert!(
            classes > 0 && per_class > 0 && dim > 0,
            "sizes must be positive"
        );
        assert!(
            classes <= 2 * dim,
            "cannot place {classes} separable centres in {dim} dimensions"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(classes * per_class * dim);
        let mut labels = Vec::with_capacity(classes * per_class);
        for c in 0..classes {
            // Centre: ±3 along axis c/2.
            let axis = c / 2;
            let sign = if c % 2 == 0 { 3.0 } else { -3.0 };
            for _ in 0..per_class {
                for d in 0..dim {
                    let centre = if d == axis { sign } else { 0.0 };
                    let noise: f32 = {
                        // Box–Muller.
                        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                        let u2: f32 = rng.gen_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                    };
                    data.push(centre + noise * spread);
                }
                labels.push(c);
            }
        }
        let n = classes * per_class;
        BlobDataset {
            features: Tensor::from_vec(data, &[n, dim]).expect("length matches"),
            labels,
            classes,
            dim,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty (never true for generated data).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_counts() {
        let d = BlobDataset::generate(3, 10, 4, 0.5, 1);
        assert_eq!(d.len(), 30);
        assert_eq!(d.features.dims(), &[30, 4]);
        assert_eq!(d.labels.iter().filter(|&&l| l == 2).count(), 10);
    }

    #[test]
    fn blobs_are_separated() {
        let d = BlobDataset::generate(2, 50, 2, 0.5, 2);
        let mean = |c: usize| -> f32 {
            let rows = d.labels.iter().enumerate().filter(|(_, &l)| l == c);
            rows.map(|(r, _)| d.features.data()[r * 2]).sum::<f32>() / 50.0
        };
        let (mean_a, mean_b) = (mean(0), mean(1));
        // Classes 0 and 1 sit at +3 and −3 along axis 0.
        assert!(mean_a > 2.0, "mean_a {mean_a}");
        assert!(mean_b < -2.0, "mean_b {mean_b}");
    }

    #[test]
    fn determinism() {
        let a = BlobDataset::generate(2, 5, 2, 0.4, 4);
        let b = BlobDataset::generate(2, 5, 2, 0.4, 4);
        assert_eq!(a.features.data(), b.features.data());
    }

    #[test]
    #[should_panic(expected = "separable centres")]
    fn too_many_classes_rejected() {
        let _ = BlobDataset::generate(5, 5, 2, 0.3, 1);
    }
}
