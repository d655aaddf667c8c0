//! 2-D convolution and pooling (`OpCategory::Convolution`).
//!
//! NCHW layout. Convolution is the highest-operational-intensity kernel in
//! the workspace — the backbone of the NVSA / VSAIT / PrAE neural frontends.

use crate::dense::Tensor;
use crate::error::TensorError;
use crate::instrument::{nnz, run_op, ELEM};
use crate::par;
use crate::shape::Shape;
use nsai_core::profile::OpMeta;
use nsai_core::taxonomy::OpCategory;

/// `(batch, out-channel)` output planes per parallel `conv2d` chunk, and
/// `(batch, output-row)` groups per parallel `im2col` chunk. Fixed so the
/// decomposition is pool-width invariant.
const CONV_PLANE_GRAIN: usize = 1;
const IM2COL_ROW_GRAIN: usize = 4;

/// Convolution hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

/// Output spatial size for a conv/pool window.
fn out_size(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding).saturating_sub(kernel) / stride + 1
}

impl Tensor {
    /// 2-D convolution: input `[n, c_in, h, w]`, weight
    /// `[c_out, c_in, kh, kw]`, optional bias `[c_out]`.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when operand ranks are wrong, channel
    /// counts disagree, or the kernel exceeds the padded input.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: Conv2dParams,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: self.rank(),
            });
        }
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d.weight",
                expected: 4,
                actual: weight.rank(),
            });
        }
        let (n, c_in, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let (c_out, c_in_w, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        if c_in != c_in_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.rank() != 1 || b.dims()[0] != c_out {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d.bias",
                    lhs: vec![c_out],
                    rhs: b.dims().to_vec(),
                });
            }
        }
        if params.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "stride must be nonzero".into(),
            ));
        }
        if h + 2 * params.padding < kh || w + 2 * params.padding < kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kh}x{kw} larger than padded input {}x{}",
                h + 2 * params.padding,
                w + 2 * params.padding
            )));
        }
        let oh = out_size(h, kh, params.stride, params.padding);
        let ow = out_size(w, kw, params.stride, params.padding);

        Ok(run_op(
            "conv2d",
            OpCategory::Convolution,
            || {
                // Parallel over (batch, out-channel) output planes; each
                // plane runs the serial spatial loops unchanged.
                let mut out = vec![0.0f32; n * c_out * oh * ow];
                let pad = params.padding as isize;
                let plane = oh * ow;
                if plane > 0 {
                    par::fill_chunks(&mut out, CONV_PLANE_GRAIN * plane, |range, dst| {
                        let p0 = range.start / plane;
                        for (local, o_plane) in dst.chunks_mut(plane).enumerate() {
                            let (b_i, co) = ((p0 + local) / c_out, (p0 + local) % c_out);
                            let base_b = bias.map(|b| b.data()[co]).unwrap_or(0.0);
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut acc = base_b;
                                    for ci in 0..c_in {
                                        for ky in 0..kh {
                                            let iy = (oy * params.stride + ky) as isize - pad;
                                            if iy < 0 || iy >= h as isize {
                                                continue;
                                            }
                                            for kx in 0..kw {
                                                let ix = (ox * params.stride + kx) as isize - pad;
                                                if ix < 0 || ix >= w as isize {
                                                    continue;
                                                }
                                                let in_idx = ((b_i * c_in + ci) * h + iy as usize)
                                                    * w
                                                    + ix as usize;
                                                let w_idx = ((co * c_in + ci) * kh + ky) * kw + kx;
                                                acc += self.data()[in_idx] * weight.data()[w_idx];
                                            }
                                        }
                                    }
                                    o_plane[oy * ow + ox] = acc;
                                }
                            }
                        }
                    });
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[n, c_out, oh, ow]))
            },
            |out| {
                let flops = 2 * (n * c_out * oh * ow * c_in * kh * kw) as u64;
                OpMeta::new()
                    .flops(flops)
                    .bytes_read((self.numel() + weight.numel()) as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }

    /// 2-D convolution via **im2col + GEMM** — the lowering real BLAS-backed
    /// frameworks use: unfold every receptive field into a column
    /// (a data-transformation kernel), then one large matrix multiply.
    /// Produces results identical to [`Tensor::conv2d`] but with the
    /// GEMM-heavy trace signature of cuDNN-style execution
    /// (the perf suite's `ablate/conv_algo/*` entries measure both).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::conv2d`].
    pub fn conv2d_im2col(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: Conv2dParams,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 4 || weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d_im2col",
                expected: 4,
                actual: if self.rank() != 4 {
                    self.rank()
                } else {
                    weight.rank()
                },
            });
        }
        let (n, c_in, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let (c_out, c_in_w, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        if c_in != c_in_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_im2col",
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.rank() != 1 || b.dims()[0] != c_out {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d_im2col.bias",
                    lhs: vec![c_out],
                    rhs: b.dims().to_vec(),
                });
            }
        }
        if params.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "stride must be nonzero".into(),
            ));
        }
        if h + 2 * params.padding < kh || w + 2 * params.padding < kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kh}x{kw} larger than padded input {}x{}",
                h + 2 * params.padding,
                w + 2 * params.padding
            )));
        }
        let oh = out_size(h, kh, params.stride, params.padding);
        let ow = out_size(w, kw, params.stride, params.padding);
        let patch = c_in * kh * kw;
        let cols_n = n * oh * ow;

        // Unfold: [patch, n*oh*ow] column matrix (data transformation).
        let columns = run_op(
            "im2col",
            OpCategory::DataTransform,
            || {
                // Parallel over (batch, output-row) groups. Each group
                // owns the column indices derived from its own (b_i, oy),
                // so the scattered writes are disjoint across chunks.
                let pad = params.padding as isize;
                let mut cols = vec![0.0f32; patch * cols_n];
                let groups = n * oh;
                let slice = par::UnsafeSlice::new(&mut cols);
                par::parallel_for(par::chunk_count(groups, IM2COL_ROW_GRAIN), &|chunk| {
                    for g in par::chunk_range(groups, IM2COL_ROW_GRAIN, chunk) {
                        let (b_i, oy) = (g / oh, g % oh);
                        for ox in 0..ow {
                            let col = (b_i * oh + oy) * ow + ox;
                            for ci in 0..c_in {
                                for ky in 0..kh {
                                    let iy = (oy * params.stride + ky) as isize - pad;
                                    for kx in 0..kw {
                                        let ix = (ox * params.stride + kx) as isize - pad;
                                        let row = (ci * kh + ky) * kw + kx;
                                        let value = if iy >= 0
                                            && ix >= 0
                                            && (iy as usize) < h
                                            && (ix as usize) < w
                                        {
                                            self.data()[((b_i * c_in + ci) * h + iy as usize) * w
                                                + ix as usize]
                                        } else {
                                            0.0
                                        };
                                        // SAFETY: `col` is unique to this
                                        // chunk's (b_i, oy) group.
                                        unsafe { slice.write(row * cols_n + col, value) };
                                    }
                                }
                            }
                        }
                    }
                });
                Tensor::from_vec_unchecked(cols, Shape::new(&[patch, cols_n]))
            },
            |out| {
                OpMeta::new()
                    .bytes_read(self.numel() as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        );

        // GEMM: [c_out, patch] x [patch, n*oh*ow].
        let flat_weight = weight.reshape(&[c_out, patch])?;
        let product = flat_weight.matmul(&columns)?;

        // Fold back to NCHW and add bias.
        let mut out = vec![0.0f32; n * c_out * oh * ow];
        for co in 0..c_out {
            let base_b = bias.map(|b| b.data()[co]).unwrap_or(0.0);
            for b_i in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let col = (b_i * oh + oy) * ow + ox;
                        out[((b_i * c_out + co) * oh + oy) * ow + ox] =
                            product.data()[co * cols_n + col] + base_b;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, oh, ow])
    }

    /// 2-D max pooling over square windows of size `k` with stride `k`.
    ///
    /// # Errors
    ///
    /// Returns rank errors for non-NCHW tensors and invalid-argument errors
    /// when `k` is zero or exceeds the spatial size.
    pub fn maxpool2d(&self, k: usize) -> Result<Tensor, TensorError> {
        self.pool2d("maxpool2d", k, f32::NEG_INFINITY, f32::max, |acc, _| acc)
    }

    fn pool2d(
        &self,
        name: &'static str,
        k: usize,
        init: f32,
        fold: impl Fn(f32, f32) -> f32,
        finish: impl Fn(f32, usize) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "pool2d",
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        if k == 0 || k > h || k > w {
            return Err(TensorError::InvalidArgument(format!(
                "pool window {k} invalid for {h}x{w} input"
            )));
        }
        let oh = h / k;
        let ow = w / k;
        Ok(run_op(
            name,
            OpCategory::Convolution,
            || {
                let mut out = vec![0.0f32; n * c * oh * ow];
                for b_i in 0..n {
                    for ci in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = init;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let idx =
                                            ((b_i * c + ci) * h + oy * k + ky) * w + ox * k + kx;
                                        acc = fold(acc, self.data()[idx]);
                                    }
                                }
                                out[((b_i * c + ci) * oh + oy) * ow + ox] = finish(acc, k * k);
                            }
                        }
                    }
                }
                Tensor::from_vec_unchecked(out, Shape::new(&[n, c, oh, ow]))
            },
            |out| {
                OpMeta::new()
                    .flops((n * c * oh * ow * k * k) as u64)
                    .bytes_read(self.numel() as u64 * ELEM)
                    .bytes_written(out.numel() as u64 * ELEM)
                    .output_elems(out.numel() as u64)
                    .output_nonzeros(nnz(out.data()))
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    #[test]
    fn conv2d_identity_kernel() {
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let kernel = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let out = input
            .conv2d(&kernel, None, Conv2dParams::default())
            .unwrap();
        assert_eq!(out.dims(), &[1, 1, 3, 3]);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_box_filter() {
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let kernel = Tensor::ones(&[1, 1, 2, 2]);
        let out = input
            .conv2d(&kernel, None, Conv2dParams::default())
            .unwrap();
        assert_eq!(out.dims(), &[1, 1, 3, 3]);
        assert!(out.data().iter().all(|v| *v == 4.0));
    }

    #[test]
    fn conv2d_with_stride_and_padding() {
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let kernel = Tensor::ones(&[1, 1, 3, 3]);
        let params = Conv2dParams {
            stride: 2,
            padding: 1,
        };
        let out = input.conv2d(&kernel, None, params).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Corner window covers 2x2 ones within padded area.
        assert_eq!(out.data()[0], 4.0);
    }

    #[test]
    fn conv2d_bias_offsets_output() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let kernel = Tensor::ones(&[2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let out = input
            .conv2d(&kernel, Some(&bias), Conv2dParams::default())
            .unwrap();
        assert_eq!(out.dims(), &[1, 2, 2, 2]);
        assert!(out.data()[..4].iter().all(|v| *v == 1.5));
        assert!(out.data()[4..].iter().all(|v| *v == -2.0));
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let input = Tensor::ones(&[1, 3, 2, 2]);
        let kernel = Tensor::ones(&[1, 3, 1, 1]);
        let out = input
            .conv2d(&kernel, None, Conv2dParams::default())
            .unwrap();
        assert!(out.data().iter().all(|v| *v == 3.0));
    }

    #[test]
    fn conv2d_validation() {
        let input = Tensor::zeros(&[1, 2, 3, 3]);
        let bad_kernel = Tensor::zeros(&[1, 3, 1, 1]);
        assert!(input
            .conv2d(&bad_kernel, None, Conv2dParams::default())
            .is_err());
        let big_kernel = Tensor::zeros(&[1, 2, 5, 5]);
        assert!(input
            .conv2d(&big_kernel, None, Conv2dParams::default())
            .is_err());
        let kernel = Tensor::zeros(&[1, 2, 1, 1]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(input
            .conv2d(&kernel, Some(&bad_bias), Conv2dParams::default())
            .is_err());
        let zero_stride = Conv2dParams {
            stride: 0,
            padding: 0,
        };
        assert!(input.conv2d(&kernel, None, zero_stride).is_err());
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let out = input.maxpool2d(2).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn pool_validation() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(input.maxpool2d(0).is_err());
        assert!(input.maxpool2d(3).is_err());
        assert!(Tensor::zeros(&[2, 2]).maxpool2d(1).is_err());
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        let input = Tensor::rand_uniform(&[2, 3, 7, 7], -1.0, 1.0, 40);
        let kernel = Tensor::rand_uniform(&[4, 3, 3, 3], -1.0, 1.0, 41);
        let bias = Tensor::rand_uniform(&[4], -1.0, 1.0, 42);
        for params in [
            Conv2dParams::default(),
            Conv2dParams {
                stride: 2,
                padding: 0,
            },
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
            Conv2dParams {
                stride: 2,
                padding: 1,
            },
        ] {
            let direct = input.conv2d(&kernel, Some(&bias), params).unwrap();
            let lowered = input.conv2d_im2col(&kernel, Some(&bias), params).unwrap();
            assert_eq!(direct.dims(), lowered.dims(), "{params:?}");
            for (a, b) in direct.data().iter().zip(lowered.data()) {
                assert!((a - b).abs() < 1e-4, "{params:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn im2col_trace_is_gemm_plus_transform() {
        let p = Profiler::new();
        {
            let _g = p.activate();
            let input = Tensor::ones(&[1, 2, 8, 8]);
            let kernel = Tensor::ones(&[4, 2, 3, 3]);
            let _ = input
                .conv2d_im2col(&kernel, None, Conv2dParams::default())
                .unwrap();
        }
        let names: Vec<String> = p.events().iter().map(|e| e.name.clone()).collect();
        assert!(names.contains(&"im2col".to_string()), "{names:?}");
        assert!(names.contains(&"sgemm".to_string()), "{names:?}");
    }

    #[test]
    fn im2col_validates_like_direct() {
        let input = Tensor::zeros(&[1, 2, 3, 3]);
        let bad_kernel = Tensor::zeros(&[1, 3, 1, 1]);
        assert!(input
            .conv2d_im2col(&bad_kernel, None, Conv2dParams::default())
            .is_err());
        let kernel = Tensor::zeros(&[1, 2, 1, 1]);
        let zero_stride = Conv2dParams {
            stride: 0,
            padding: 0,
        };
        assert!(input.conv2d_im2col(&kernel, None, zero_stride).is_err());
    }

    #[test]
    fn conv_event_has_high_intensity() {
        let p = Profiler::new();
        {
            let _g = p.activate();
            let input = Tensor::ones(&[1, 8, 16, 16]);
            let kernel = Tensor::ones(&[16, 8, 3, 3]);
            let _ = input
                .conv2d(&kernel, None, Conv2dParams::default())
                .unwrap();
        }
        let e = &p.events()[0];
        assert_eq!(e.name, "conv2d");
        assert_eq!(e.category, OpCategory::Convolution);
        // 2*1*16*14*14*8*3*3 flops
        assert_eq!(e.flops, 2 * 16 * 14 * 14 * 8 * 3 * 3);
        assert!(e.operational_intensity().unwrap() > 10.0);
    }
}
