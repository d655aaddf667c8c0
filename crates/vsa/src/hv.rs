//! Hypervectors and the core VSA algebra.

use crate::error::VsaError;
use nsai_tensor::Tensor;
use std::fmt;

/// The algebraic family a hypervector belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VsaModel {
    /// Multiply-Add-Permute over {−1, +1}: binding = Hadamard product
    /// (self-inverse), bundling = sign of sum.
    Bipolar,
    /// Holographic reduced representations over reals: binding = circular
    /// convolution, unbinding = circular correlation. Dimension must be a
    /// power of two (FFT binding).
    Hrr,
    /// Binary spatter codes over {0, 1}: binding = XOR (self-inverse),
    /// bundling = majority vote, similarity = normalized Hamming
    /// agreement.
    Binary,
}

impl VsaModel {
    /// Short model name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            VsaModel::Bipolar => "bipolar",
            VsaModel::Hrr => "hrr",
            VsaModel::Binary => "binary",
        }
    }
}

/// A high-dimensional distributed representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypervector {
    model: VsaModel,
    values: Tensor,
}

impl Hypervector {
    /// Draw a fresh random (quasi-orthogonal) hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, or not a power of two for
    /// [`VsaModel::Hrr`].
    pub fn random(model: VsaModel, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let values = match model {
            VsaModel::Bipolar => Tensor::rand_bipolar(&[dim], seed),
            VsaModel::Hrr => {
                assert!(
                    dim.is_power_of_two(),
                    "HRR dimension must be a power of two, got {dim}"
                );
                Tensor::rand_normal(&[dim], 1.0 / (dim as f32).sqrt(), seed)
            }
            // 0/1 with equal probability: rescale a bipolar draw.
            VsaModel::Binary => Tensor::rand_bipolar(&[dim], seed)
                .add_scalar(1.0)
                .mul_scalar(0.5),
        };
        Hypervector { model, values }
    }

    /// Wrap an existing rank-1 tensor as a hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] for non-vectors or HRR vectors
    /// with non-power-of-two length.
    pub fn from_tensor(model: VsaModel, values: Tensor) -> Result<Self, VsaError> {
        if values.rank() != 1 {
            return Err(VsaError::InvalidArgument(format!(
                "hypervector must be rank 1, got rank {}",
                values.rank()
            )));
        }
        if model == VsaModel::Hrr && !values.numel().is_power_of_two() {
            return Err(VsaError::InvalidArgument(format!(
                "HRR dimension must be a power of two, got {}",
                values.numel()
            )));
        }
        Ok(Hypervector { model, values })
    }

    /// Draw a random **unitary** HRR vector: unit-magnitude spectrum with
    /// random phases, so repeated self-convolution (`conv_power`) neither
    /// grows nor shrinks the vector — the base of fractional-power
    /// encoding, which NVSA's arithmetic-rule algebra relies on.
    ///
    /// # Panics
    ///
    /// Panics unless `dim` is a power of two (≥ 2).
    pub fn random_unitary(dim: usize, seed: u64) -> Self {
        assert!(
            dim.is_power_of_two() && dim >= 2,
            "unitary dimension must be a power of two >= 2, got {dim}"
        );
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Conjugate-symmetric unit spectrum -> real time-domain vector.
        let mut re = vec![0.0f32; dim];
        let mut im = vec![0.0f32; dim];
        re[0] = 1.0; // DC
        re[dim / 2] = if rng.gen_bool(0.5) { 1.0 } else { -1.0 }; // Nyquist
        for k in 1..dim / 2 {
            let theta: f32 = rng.gen_range(0.0..(2.0 * std::f32::consts::PI));
            re[k] = theta.cos();
            im[k] = theta.sin();
            re[dim - k] = theta.cos();
            im[dim - k] = -theta.sin();
        }
        let time = nsai_tensor::fft::irfft(&re, &im).expect("power-of-two length");
        let values = Tensor::from_vec(time, &[dim]).expect("length matches");
        Hypervector {
            model: VsaModel::Hrr,
            values,
        }
    }

    /// `k`-fold binding power `v ⊛ v ⊛ ... ⊛ v` (`k = 0` gives the binding
    /// identity). For unitary HRR vectors this is fractional-power
    /// encoding: `conv_power(a) ⊛ conv_power(b) = conv_power(a + b)`.
    ///
    /// # Errors
    ///
    /// Propagates binding errors (non-power-of-two HRR dimensions).
    pub fn conv_power(&self, k: usize) -> Result<Hypervector, VsaError> {
        let mut acc = Hypervector::identity(self.model, self.dim());
        for _ in 0..k {
            acc = acc.bind(self)?;
        }
        Ok(acc)
    }

    /// The identity element of binding for this model and dimension
    /// (all-ones for bipolar, unit impulse for HRR, all-zeros for binary
    /// XOR).
    pub fn identity(model: VsaModel, dim: usize) -> Self {
        let values = match model {
            VsaModel::Bipolar => Tensor::ones(&[dim]),
            VsaModel::Hrr => {
                let mut t = Tensor::zeros(&[dim]);
                t.data_mut()[0] = 1.0;
                t
            }
            VsaModel::Binary => Tensor::zeros(&[dim]),
        };
        Hypervector { model, values }
    }

    /// The VSA model.
    pub fn model(&self) -> VsaModel {
        self.model
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.numel()
    }

    /// Underlying tensor.
    pub fn as_tensor(&self) -> &Tensor {
        &self.values
    }

    fn check_compatible(&self, other: &Hypervector) -> Result<(), VsaError> {
        if self.model != other.model {
            return Err(VsaError::ModelMismatch {
                lhs: self.model.name(),
                rhs: other.model.name(),
            });
        }
        if self.dim() != other.dim() {
            return Err(VsaError::DimensionMismatch {
                lhs: self.dim(),
                rhs: other.dim(),
            });
        }
        Ok(())
    }

    /// Bind two hypervectors (⊛). Binding produces a vector dissimilar to
    /// both inputs that can be inverted with [`Hypervector::unbind`].
    ///
    /// # Errors
    ///
    /// Returns model/dimension mismatch errors.
    pub fn bind(&self, other: &Hypervector) -> Result<Hypervector, VsaError> {
        self.check_compatible(other)?;
        let values = match self.model {
            VsaModel::Bipolar => self.values.mul(&other.values)?,
            VsaModel::Hrr => self.values.circular_conv_fft(&other.values)?,
            // XOR over {0, 1} floats: |a − b|.
            VsaModel::Binary => self.values.sub(&other.values)?.abs(),
        };
        Ok(Hypervector {
            model: self.model,
            values,
        })
    }

    /// Unbind: recover `b` from `a ⊛ b` given `a` (exact for bipolar and
    /// binary, approximate for HRR).
    ///
    /// # Errors
    ///
    /// Returns model/dimension mismatch errors.
    pub fn unbind(&self, key: &Hypervector) -> Result<Hypervector, VsaError> {
        self.check_compatible(key)?;
        let values = match self.model {
            // Bipolar binding is self-inverse.
            VsaModel::Bipolar => self.values.mul(&key.values)?,
            VsaModel::Hrr => key.values.circular_corr(&self.values)?,
            // XOR is self-inverse.
            VsaModel::Binary => self.values.sub(&key.values)?.abs(),
        };
        Ok(Hypervector {
            model: self.model,
            values,
        })
    }

    /// Bundle (superpose, ⊕) many hypervectors into one similar to each
    /// input. Bipolar bundling is sign-of-sum with deterministic tie-break;
    /// HRR bundling is the normalized sum.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] for an empty list and
    /// mismatch errors for incompatible members.
    pub fn bundle(vectors: &[&Hypervector]) -> Result<Hypervector, VsaError> {
        let first = vectors
            .first()
            .ok_or_else(|| VsaError::InvalidArgument("bundle of empty list".into()))?;
        let mut acc = first.values.clone();
        for hv in &vectors[1..] {
            first.check_compatible(hv)?;
            acc = acc.add(&hv.values)?;
        }
        let values = match first.model {
            VsaModel::Bipolar => {
                // Deterministic tie-break: ties (sum == 0) go to +1.
                let signed = acc.sign();
                let zero_mask = signed.abs().neg().add_scalar(1.0); // 1 where zero
                signed.add(&zero_mask)?
            }
            VsaModel::Hrr => acc.mul_scalar(1.0 / vectors.len() as f32),
            VsaModel::Binary => {
                // Majority vote with ties to 1: centre the counts around
                // zero, take the sign, map back to {0, 1}.
                let centred = acc.mul_scalar(2.0).add_scalar(-(vectors.len() as f32));
                let signed = centred.sign();
                let zero_mask = signed.abs().neg().add_scalar(1.0);
                signed.add(&zero_mask)?.add_scalar(1.0).mul_scalar(0.5)
            }
        };
        Ok(Hypervector {
            model: first.model,
            values,
        })
    }

    /// Weighted superposition `Σ wᵢ·vᵢ` without re-quantization — the
    /// PMF→VSA transform of NVSA (weights are probability masses).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] for an empty or mismatched
    /// weight list and compatibility errors for the vectors.
    pub fn weighted_superpose(
        vectors: &[&Hypervector],
        weights: &[f32],
    ) -> Result<Hypervector, VsaError> {
        if vectors.is_empty() || vectors.len() != weights.len() {
            return Err(VsaError::InvalidArgument(format!(
                "need equal non-zero counts of vectors ({}) and weights ({})",
                vectors.len(),
                weights.len()
            )));
        }
        let first = vectors[0];
        let mut acc = first.values.mul_scalar(weights[0]);
        for (hv, w) in vectors[1..].iter().zip(&weights[1..]) {
            first.check_compatible(hv)?;
            // Skip zero-mass members entirely: this is what makes the
            // PMF→VSA transform sparse (Fig. 5).
            if *w != 0.0 {
                acc = acc.add(&hv.values.mul_scalar(*w))?;
            }
        }
        Ok(Hypervector {
            model: first.model,
            values: acc,
        })
    }

    /// Cyclic permutation ρᵏ — the sequence/position encoding operator.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (unreachable for valid hypervectors).
    pub fn permute(&self, k: usize) -> Result<Hypervector, VsaError> {
        Ok(Hypervector {
            model: self.model,
            values: self.values.roll(k)?,
        })
    }

    /// Cosine similarity in `[−1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns model/dimension mismatch errors.
    pub fn similarity(&self, other: &Hypervector) -> Result<f32, VsaError> {
        self.check_compatible(other)?;
        match self.model {
            // Normalized Hamming agreement in [−1, 1], computed as the
            // cosine of the {0,1} → {−1,+1} recentred vectors (equivalent
            // for pure binary vectors, well-defined for superpositions).
            VsaModel::Binary => {
                let a = self.values.mul_scalar(2.0).add_scalar(-1.0);
                let b = other.values.mul_scalar(2.0).add_scalar(-1.0);
                Ok(a.cosine_similarity(&b)?)
            }
            _ => Ok(self.values.cosine_similarity(&other.values)?),
        }
    }

    /// Zero fraction of the underlying vector.
    pub fn sparsity(&self) -> f64 {
        self.values.sparsity()
    }
}

impl fmt::Display for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypervector<{}, d={}>", self.model.name(), self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 2048;

    #[test]
    fn random_vectors_are_quasi_orthogonal() {
        for model in [VsaModel::Bipolar, VsaModel::Hrr] {
            let a = Hypervector::random(model, D, 1);
            let b = Hypervector::random(model, D, 2);
            let sim = a.similarity(&b).unwrap();
            assert!(sim.abs() < 0.1, "{model:?}: {sim}");
            assert!((a.similarity(&a).unwrap() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn bind_produces_dissimilar_vector() {
        for model in [VsaModel::Bipolar, VsaModel::Hrr] {
            let a = Hypervector::random(model, D, 3);
            let b = Hypervector::random(model, D, 4);
            let bound = a.bind(&b).unwrap();
            assert!(bound.similarity(&a).unwrap().abs() < 0.1, "{model:?}");
            assert!(bound.similarity(&b).unwrap().abs() < 0.1, "{model:?}");
        }
    }

    #[test]
    fn unbind_inverts_bind() {
        for (model, threshold) in [(VsaModel::Bipolar, 0.999), (VsaModel::Hrr, 0.6)] {
            let a = Hypervector::random(model, D, 5);
            let b = Hypervector::random(model, D, 6);
            let bound = a.bind(&b).unwrap();
            let recovered = bound.unbind(&a).unwrap();
            let sim = recovered.similarity(&b).unwrap();
            assert!(sim > threshold, "{model:?}: {sim}");
        }
    }

    #[test]
    fn bind_with_identity_is_noop() {
        for model in [VsaModel::Bipolar, VsaModel::Hrr] {
            let a = Hypervector::random(model, D, 7);
            let id = Hypervector::identity(model, D);
            let bound = a.bind(&id).unwrap();
            assert!(bound.similarity(&a).unwrap() > 0.99, "{model:?}");
        }
    }

    #[test]
    fn bundle_is_similar_to_members() {
        let members: Vec<Hypervector> = (0..5)
            .map(|i| Hypervector::random(VsaModel::Bipolar, D, 100 + i))
            .collect();
        let refs: Vec<&Hypervector> = members.iter().collect();
        let bundled = Hypervector::bundle(&refs).unwrap();
        for m in &members {
            let sim = bundled.similarity(m).unwrap();
            assert!(sim > 0.25, "member similarity {sim}");
        }
        // And dissimilar to a non-member.
        let outsider = Hypervector::random(VsaModel::Bipolar, D, 999);
        assert!(bundled.similarity(&outsider).unwrap().abs() < 0.1);
    }

    #[test]
    fn bipolar_bundle_stays_bipolar() {
        let a = Hypervector::random(VsaModel::Bipolar, 64, 1);
        let b = Hypervector::random(VsaModel::Bipolar, 64, 2);
        let bundled = Hypervector::bundle(&[&a, &b]).unwrap();
        assert!(bundled
            .as_tensor()
            .data()
            .iter()
            .all(|v| *v == 1.0 || *v == -1.0));
    }

    #[test]
    fn weighted_superpose_tracks_dominant_mass() {
        let a = Hypervector::random(VsaModel::Bipolar, D, 8);
        let b = Hypervector::random(VsaModel::Bipolar, D, 9);
        let s = Hypervector::weighted_superpose(&[&a, &b], &[0.9, 0.1]).unwrap();
        assert!(s.similarity(&a).unwrap() > s.similarity(&b).unwrap());
    }

    #[test]
    fn weighted_superpose_skips_zero_mass() {
        let a = Hypervector::random(VsaModel::Bipolar, 64, 10);
        let b = Hypervector::random(VsaModel::Bipolar, 64, 11);
        let s = Hypervector::weighted_superpose(&[&a, &b], &[1.0, 0.0]).unwrap();
        assert!((s.similarity(&a).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn permute_preserves_self_similarity_only_at_zero() {
        let a = Hypervector::random(VsaModel::Bipolar, D, 12);
        let p = a.permute(1).unwrap();
        assert!(p.similarity(&a).unwrap().abs() < 0.1);
        let back = p.permute(D - 1).unwrap();
        assert!((back.similarity(&a).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn compatibility_validation() {
        let a = Hypervector::random(VsaModel::Bipolar, 64, 1);
        let b = Hypervector::random(VsaModel::Bipolar, 128, 2);
        assert!(matches!(
            a.bind(&b),
            Err(VsaError::DimensionMismatch { .. })
        ));
        let h = Hypervector::random(VsaModel::Hrr, 64, 3);
        assert!(matches!(a.bind(&h), Err(VsaError::ModelMismatch { .. })));
    }

    #[test]
    fn from_tensor_validation() {
        let m = Tensor::zeros(&[2, 2]);
        assert!(Hypervector::from_tensor(VsaModel::Bipolar, m).is_err());
        let odd = Tensor::zeros(&[100]);
        assert!(Hypervector::from_tensor(VsaModel::Hrr, odd).is_err());
        let ok = Tensor::zeros(&[128]);
        assert!(Hypervector::from_tensor(VsaModel::Hrr, ok).is_ok());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hrr_random_requires_power_of_two() {
        let _ = Hypervector::random(VsaModel::Hrr, 100, 1);
    }

    #[test]
    fn bundle_empty_is_error() {
        assert!(Hypervector::bundle(&[]).is_err());
        assert!(Hypervector::weighted_superpose(&[], &[]).is_err());
    }

    #[test]
    fn binary_model_is_a_spatter_code() {
        let a = Hypervector::random(VsaModel::Binary, D, 51);
        let b = Hypervector::random(VsaModel::Binary, D, 52);
        // Elements are 0/1, roughly balanced.
        assert!(a.as_tensor().data().iter().all(|v| *v == 0.0 || *v == 1.0));
        let ones = a.as_tensor().data().iter().filter(|v| **v == 1.0).count();
        assert!((D / 3..2 * D / 3).contains(&ones));
        // Quasi-orthogonal under Hamming similarity; self-similar.
        assert!(a.similarity(&b).unwrap().abs() < 0.1);
        assert!((a.similarity(&a).unwrap() - 1.0).abs() < 1e-5);
        // XOR binding: dissimilar to inputs, exactly invertible.
        let bound = a.bind(&b).unwrap();
        assert!(bound.similarity(&a).unwrap().abs() < 0.1);
        let recovered = bound.unbind(&a).unwrap();
        assert!((recovered.similarity(&b).unwrap() - 1.0).abs() < 1e-5);
        // Identity is the all-zeros vector.
        let id = Hypervector::identity(VsaModel::Binary, D);
        assert!((a.bind(&id).unwrap().similarity(&a).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn binary_bundle_is_majority_vote() {
        let members: Vec<Hypervector> = (0..5)
            .map(|i| Hypervector::random(VsaModel::Binary, D, 500 + i))
            .collect();
        let refs: Vec<&Hypervector> = members.iter().collect();
        let bundled = Hypervector::bundle(&refs).unwrap();
        // Output stays binary.
        assert!(bundled
            .as_tensor()
            .data()
            .iter()
            .all(|v| *v == 0.0 || *v == 1.0));
        // Similar to members, dissimilar to strangers.
        for m in &members {
            assert!(bundled.similarity(m).unwrap() > 0.25);
        }
        let stranger = Hypervector::random(VsaModel::Binary, D, 999);
        assert!(bundled.similarity(&stranger).unwrap().abs() < 0.1);
    }

    #[test]
    fn unitary_vectors_have_unit_norm_and_stable_powers() {
        let u = Hypervector::random_unitary(512, 77);
        let norm = u.as_tensor().norm();
        assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
        // Powers keep their norm (unitary spectrum).
        let p5 = u.conv_power(5).unwrap();
        let n5 = p5.as_tensor().norm();
        assert!((n5 - 1.0).abs() < 1e-2, "power-5 norm {n5}");
    }

    #[test]
    fn conv_powers_are_quasi_orthogonal() {
        let u = Hypervector::random_unitary(1024, 78);
        let p2 = u.conv_power(2).unwrap();
        let p3 = u.conv_power(3).unwrap();
        assert!(p2.similarity(&p3).unwrap().abs() < 0.15);
        assert!((p2.similarity(&p2).unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn conv_power_is_additive_in_exponent() {
        // conv_power(a) ⊛ conv_power(b) == conv_power(a + b).
        let u = Hypervector::random_unitary(512, 79);
        let lhs = u
            .conv_power(2)
            .unwrap()
            .bind(&u.conv_power(3).unwrap())
            .unwrap();
        let rhs = u.conv_power(5).unwrap();
        assert!(lhs.similarity(&rhs).unwrap() > 0.98);
    }

    #[test]
    fn conv_power_zero_is_identity() {
        let u = Hypervector::random_unitary(256, 80);
        let id = u.conv_power(0).unwrap();
        let bound = u.bind(&id).unwrap();
        assert!(bound.similarity(&u).unwrap() > 0.98);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn unitary_rejects_odd_dims() {
        let _ = Hypervector::random_unitary(100, 1);
    }

    #[test]
    fn display_shows_model_and_dim() {
        let a = Hypervector::random(VsaModel::Bipolar, 64, 1);
        assert_eq!(a.to_string(), "Hypervector<bipolar, d=64>");
    }
}
