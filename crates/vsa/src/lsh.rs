//! Locality-sensitive hashing into hypervector space.
//!
//! VSAIT "extracts features and uses locality-sensitive hashing with a
//! neural network to encode source, target, and translated images into the
//! random vector-symbolic hyperspace" (Sec. III-F). [`LshEncoder`] is that
//! projection: a fixed random hyperplane matrix followed by sign
//! quantization, so nearby feature vectors map to similar bipolar
//! hypervectors.

use crate::error::VsaError;
use crate::hv::{Hypervector, VsaModel};
use nsai_core::profile;
use nsai_tensor::Tensor;

/// A random-hyperplane LSH projection from feature space to bipolar
/// hypervector space.
#[derive(Debug, Clone, PartialEq)]
pub struct LshEncoder {
    projection: Tensor, // [dim, in_features]
    in_features: usize,
    dim: usize,
}

impl LshEncoder {
    /// Build an encoder from `in_features`-dimensional features into
    /// `dim`-dimensional bipolar hypervectors. The projection matrix is
    /// registered as persistent storage.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, dim: usize, seed: u64) -> Self {
        assert!(in_features > 0 && dim > 0, "dimensions must be positive");
        let projection = Tensor::rand_normal(&[dim, in_features], 1.0, seed);
        profile::register_storage("lsh.projection", (dim * in_features * 4) as u64);
        LshEncoder {
            projection,
            in_features,
            dim,
        }
    }

    /// Output hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encode one feature vector into a bipolar hypervector:
    /// `sign(P·x)` with deterministic tie-break to +1.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] when `features` is not a
    /// vector of length `in_features`.
    pub fn encode(&self, features: &Tensor) -> Result<Hypervector, VsaError> {
        if features.rank() != 1 || features.numel() != self.in_features {
            return Err(VsaError::InvalidArgument(format!(
                "expected feature vector of length {}, got shape {:?}",
                self.in_features,
                features.dims()
            )));
        }
        let projected = self.projection.matvec(features)?;
        let signed = projected.sign();
        let zero_mask = signed.abs().neg().add_scalar(1.0);
        let bipolar = signed.add(&zero_mask)?;
        Hypervector::from_tensor(VsaModel::Bipolar, bipolar)
    }

    /// Encode a batch of feature rows `[n, in_features]`.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] for wrong shapes.
    pub fn encode_batch(&self, features: &Tensor) -> Result<Vec<Hypervector>, VsaError> {
        if features.rank() != 2 || features.dims()[1] != self.in_features {
            return Err(VsaError::InvalidArgument(format!(
                "expected [n, {}], got shape {:?}",
                self.in_features,
                features.dims()
            )));
        }
        let n = features.dims()[0];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = features.slice_axis(0, i, 1)?.reshape(&[self.in_features])?;
            out.push(self.encode(&row)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_bipolar_of_requested_dim() {
        let enc = LshEncoder::new(32, 512, 1);
        let x = Tensor::rand_normal(&[32], 1.0, 2);
        let hv = enc.encode(&x).unwrap();
        assert_eq!(hv.dim(), 512);
        assert!(hv
            .as_tensor()
            .data()
            .iter()
            .all(|v| *v == 1.0 || *v == -1.0));
    }

    #[test]
    fn nearby_features_hash_to_similar_hypervectors() {
        let enc = LshEncoder::new(64, 2048, 3);
        let x = Tensor::rand_normal(&[64], 1.0, 4);
        // Small perturbation.
        let noise = Tensor::rand_normal(&[64], 0.05, 5);
        let y = x.add(&noise).unwrap();
        let hx = enc.encode(&x).unwrap();
        let hy = enc.encode(&y).unwrap();
        assert!(hx.similarity(&hy).unwrap() > 0.8);
    }

    #[test]
    fn distant_features_hash_to_dissimilar_hypervectors() {
        let enc = LshEncoder::new(64, 2048, 6);
        let x = Tensor::rand_normal(&[64], 1.0, 7);
        let y = Tensor::rand_normal(&[64], 1.0, 8);
        let sim = enc
            .encode(&x)
            .unwrap()
            .similarity(&enc.encode(&y).unwrap())
            .unwrap();
        assert!(sim.abs() < 0.2, "sim {sim}");
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = LshEncoder::new(16, 256, 9);
        let x = Tensor::rand_normal(&[16], 1.0, 10);
        assert_eq!(enc.encode(&x).unwrap(), enc.encode(&x).unwrap());
    }

    #[test]
    fn batch_matches_single() {
        let enc = LshEncoder::new(8, 128, 11);
        let batch = Tensor::rand_normal(&[3, 8], 1.0, 12);
        let hvs = enc.encode_batch(&batch).unwrap();
        assert_eq!(hvs.len(), 3);
        let row0 = batch.slice_axis(0, 0, 1).unwrap().reshape(&[8]).unwrap();
        assert_eq!(hvs[0], enc.encode(&row0).unwrap());
    }

    #[test]
    fn shape_validation() {
        let enc = LshEncoder::new(8, 128, 13);
        assert!(enc.encode(&Tensor::zeros(&[7])).is_err());
        assert!(enc.encode(&Tensor::zeros(&[2, 8])).is_err());
        assert!(enc.encode_batch(&Tensor::zeros(&[3, 7])).is_err());
    }
}
