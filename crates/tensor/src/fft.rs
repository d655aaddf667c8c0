//! Radix-2 FFT and circular convolution.
//!
//! Circular convolution is the binding operator of holographic reduced
//! representations and the kernel NVSA uses for arithmetic rule execution
//! (Tab. II: *"Mul, Add, and Circular Conv."*). The paper highlights it as a
//! memory-bandwidth pressure point: *"NVSA and PrAE symbolic operations
//! require streaming vector elements to circular convolution computing
//! units."* Both a direct `O(d²)` kernel and an `O(d log d)` FFT kernel are
//! provided; the perf suite's `ablate/circconv/*` entries quantify the
//! difference.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// In-place iterative radix-2 Cooley–Tukey FFT over interleaved complex
/// values. `invert` selects the inverse transform (including 1/n scaling).
///
/// # Panics
///
/// Debug-asserts that `re.len() == im.len()` is a power of two.
fn fft_in_place(re: &mut [f32], im: &mut [f32], invert: bool) {
    let n = re.len();
    debug_assert_eq!(n, im.len());
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = 2.0 * std::f64::consts::PI / len as f64 * if invert { 1.0 } else { -1.0 };
        let (w_re, w_im) = (ang.cos() as f32, ang.sin() as f32);
        let mut i = 0;
        while i < n {
            let mut cur_re = 1.0f32;
            let mut cur_im = 0.0f32;
            for k in 0..len / 2 {
                let (u_re, u_im) = (re[i + k], im[i + k]);
                let (v_re, v_im) = (
                    re[i + k + len / 2] * cur_re - im[i + k + len / 2] * cur_im,
                    re[i + k + len / 2] * cur_im + im[i + k + len / 2] * cur_re,
                );
                re[i + k] = u_re + v_re;
                im[i + k] = u_im + v_im;
                re[i + k + len / 2] = u_re - v_re;
                im[i + k + len / 2] = u_im - v_im;
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
            i += len;
        }
        len <<= 1;
    }
    if invert {
        let inv = 1.0 / n as f32;
        for v in re.iter_mut() {
            *v *= inv;
        }
        for v in im.iter_mut() {
            *v *= inv;
        }
    }
}

fn check_vectors(a: &Tensor, b: &Tensor, op: &'static str) -> Result<usize, TensorError> {
    if a.rank() != 1 || b.rank() != 1 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 1,
            actual: a.rank().max(b.rank()),
        });
    }
    if a.numel() != b.numel() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(a.numel())
}

impl Tensor {
    /// Circular convolution by the direct `O(d²)` definition:
    /// `out[k] = Σ_i a[i] · b[(k − i) mod d]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless both operands are equal-length vectors.
    pub fn circular_conv_direct(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let n = check_vectors(self, other, "circular_conv_direct")?;
        Ok(run_op(
            "circular_conv_direct",
            OpCategory::VectorElementwise,
            || {
                let mut out = vec![0.0f32; n];
                for (k, slot) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for i in 0..n {
                        acc += self.data()[i] * other.data()[(k + n - i) % n];
                    }
                    *slot = acc;
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[n]))
            },
            |out| {
                OpMeta::new()
                    .flops(2 * (n * n) as u64)
                    // Direct kernel re-streams `other` for every output
                    // element — the bandwidth pressure the paper describes.
                    .bytes_read(((n + n * n) as u64) * ELEM)
                    .bytes_written(n as u64 * ELEM)
                    .output_elems(n as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Circular convolution via FFT in `O(d log d)`.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless both operands are equal-length vectors
    /// with power-of-two length.
    pub fn circular_conv_fft(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let n = check_vectors(self, other, "circular_conv_fft")?;
        if !n.is_power_of_two() {
            return Err(TensorError::InvalidArgument(format!(
                "FFT circular convolution requires power-of-two length, got {n}"
            )));
        }
        let log_n = n.trailing_zeros() as u64;
        Ok(run_op(
            "circular_conv_fft",
            OpCategory::VectorElementwise,
            || {
                let mut a_re = self.data().to_vec();
                let mut a_im = vec![0.0f32; n];
                let mut b_re = other.data().to_vec();
                let mut b_im = vec![0.0f32; n];
                fft_in_place(&mut a_re, &mut a_im, false);
                fft_in_place(&mut b_re, &mut b_im, false);
                for i in 0..n {
                    let re = a_re[i] * b_re[i] - a_im[i] * b_im[i];
                    let im = a_re[i] * b_im[i] + a_im[i] * b_re[i];
                    a_re[i] = re;
                    a_im[i] = im;
                }
                fft_in_place(&mut a_re, &mut a_im, true);
                Tensor::from_vec_unchecked(a_re, Shape::new(&[n]))
            },
            |out| {
                // 3 FFTs of ~5 n log n flops plus the pointwise product.
                OpMeta::new()
                    .flops(15 * n as u64 * log_n.max(1) + 6 * n as u64)
                    .bytes_read(2 * n as u64 * ELEM)
                    .bytes_written(n as u64 * ELEM)
                    .output_elems(n as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// Circular *correlation* — the approximate inverse of circular
    /// convolution used for unbinding holographic representations:
    /// `out[k] = Σ_i a[i] · b[(i + k) mod d]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless both operands are equal-length vectors.
    pub fn circular_corr(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let n = check_vectors(self, other, "circular_corr")?;
        Ok(run_op(
            "circular_corr",
            OpCategory::VectorElementwise,
            || {
                let mut out = vec![0.0f32; n];
                for (k, slot) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for i in 0..n {
                        acc += self.data()[i] * other.data()[(i + k) % n];
                    }
                    *slot = acc;
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[n]))
            },
            |out| {
                OpMeta::new()
                    .flops(2 * (n * n) as u64)
                    .bytes_read(((n + n * n) as u64) * ELEM)
                    .bytes_written(n as u64 * ELEM)
                    .output_elems(n as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }
}

/// Inverse FFT back to (approximately real) time domain; returns the real
/// part.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for mismatched or
/// non-power-of-two lengths.
pub fn irfft(re: &[f32], im: &[f32]) -> Result<Vec<f32>, TensorError> {
    if re.len() != im.len() {
        return Err(TensorError::InvalidArgument("re/im length mismatch".into()));
    }
    if !re.len().is_power_of_two() {
        return Err(TensorError::InvalidArgument(format!(
            "FFT requires power-of-two length, got {}",
            re.len()
        )));
    }
    let n = re.len();
    let log_n = n.trailing_zeros() as u64;
    Ok(run_op(
        "irfft",
        OpCategory::DataTransform,
        || {
            let mut r = re.to_vec();
            let mut i = im.to_vec();
            fft_in_place(&mut r, &mut i, true);
            r
        },
        |out| {
            // One inverse complex FFT plus the 1/n scaling pass.
            OpMeta::new()
                .flops(5 * n as u64 * log_n.max(1) + 2 * n as u64)
                .bytes_read(2 * n as u64 * ELEM)
                .bytes_written(n as u64 * ELEM)
                .output_elems(n as u64)
                .output_nonzeros(nnz(out))
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    /// Forward transform of a real vector: `(re, im)` spectra.
    fn forward(x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut re = x.to_vec();
        let mut im = vec![0.0f32; x.len()];
        fft_in_place(&mut re, &mut im, false);
        (re, im)
    }

    #[test]
    fn fft_round_trip() {
        let x = vec![1.0, 2.0, -0.5, 3.0, 0.0, -1.0, 2.5, 0.25];
        let (re, im) = forward(&x);
        let back = irfft(&re, &im).unwrap();
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![0.0f32; 8];
        x[0] = 1.0;
        let (re, im) = forward(&x);
        assert!(re.iter().all(|v| (v - 1.0).abs() < 1e-6));
        assert!(im.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let a = t(&[1.0, 2.0, 3.0]);
        assert!(a.circular_conv_fft(&a).is_err());
    }

    #[test]
    fn direct_conv_with_delta_shifts() {
        let a = t(&[1.0, 2.0, 3.0, 4.0]);
        let mut delta = vec![0.0f32; 4];
        delta[1] = 1.0; // convolve with shifted delta = cyclic shift by 1
        let d = t(&delta);
        let out = a.circular_conv_direct(&d).unwrap();
        assert_eq!(out.data(), &[4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fft_conv_matches_direct() {
        let a = Tensor::rand_uniform(&[64], -1.0, 1.0, 11);
        let b = Tensor::rand_uniform(&[64], -1.0, 1.0, 12);
        let direct = a.circular_conv_direct(&b).unwrap();
        let fast = a.circular_conv_fft(&b).unwrap();
        for (x, y) in direct.data().iter().zip(fast.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn conv_is_commutative() {
        let a = Tensor::rand_uniform(&[32], -1.0, 1.0, 13);
        let b = Tensor::rand_uniform(&[32], -1.0, 1.0, 14);
        let ab = a.circular_conv_fft(&b).unwrap();
        let ba = b.circular_conv_fft(&a).unwrap();
        for (x, y) in ab.data().iter().zip(ba.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn correlation_unbinds_convolution() {
        // For unit-norm random vectors, corr(b, conv(a, b)) ≈ a.
        let d = 512;
        let a = Tensor::rand_normal(&[d], 1.0 / (d as f32).sqrt(), 15);
        let b = Tensor::rand_normal(&[d], 1.0 / (d as f32).sqrt(), 16);
        let bound = a.circular_conv_fft(&b).unwrap();
        let recovered = b.circular_corr(&bound).unwrap();
        let sim = recovered.cosine_similarity(&a).unwrap();
        assert!(sim > 0.6, "similarity {sim}");
    }

    #[test]
    fn shape_validation() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(a.circular_conv_direct(&b).is_err());
        assert!(a.circular_corr(&b).is_err());
        let m = Tensor::zeros(&[2, 2]);
        assert!(m.circular_conv_direct(&m).is_err());
    }
}
