//! Convolutional feature extractor (inference-focused).
//!
//! The perception frontends of NVSA, VSAIT, and PrAE are ConvNets used for
//! feature extraction. For the characterization reproduction, convolution
//! weights are fixed random features (with trained heads elsewhere) — the
//! kernel *mix* of inference is identical, and the paper's measurements are
//! inference-side. `backward` therefore propagates no gradients and is
//! documented as unsupported.
//!
//! The direct `conv2d` kernel invoked here is parallelized over output
//! channels/planes by `nsai_tensor::par`; each `(batch, channel)` plane is
//! computed by the unchanged serial inner loop, so outputs are
//! bitwise-identical to the single-threaded path at any pool width.

use crate::layer::Layer;
use nsai_core::profile;
use nsai_tensor::ops::conv::Conv2dParams;
use nsai_tensor::Tensor;

/// A fixed-random-weight convolution + ReLU + optional max-pool block.
#[derive(Debug)]
pub struct ConvBlock {
    weight: Tensor, // [c_out, c_in, k, k]
    bias: Tensor,   // [c_out]
    params: Conv2dParams,
    pool: Option<usize>,
}

impl ConvBlock {
    /// Create a block with He-style random initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        params: Conv2dParams,
        pool: Option<usize>,
        seed: u64,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && kernel > 0,
            "dimensions must be positive"
        );
        let std = (2.0 / (c_in * kernel * kernel) as f32).sqrt();
        let weight = Tensor::rand_normal(&[c_out, c_in, kernel, kernel], std, seed);
        profile::register_storage(
            "conv.weights",
            ((c_out * c_in * kernel * kernel + c_out) * 4) as u64,
        );
        ConvBlock {
            weight,
            bias: Tensor::zeros(&[c_out]),
            params,
            pool,
        }
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let conv = input
            .conv2d(&self.weight, Some(&self.bias), self.params)
            .expect("conv shapes validated by caller");
        let activated = conv.relu();
        match self.pool {
            Some(k) => activated.maxpool2d(k).expect("pool window validated"),
            None => activated,
        }
    }

    /// Not supported: ConvBlock is a frozen feature extractor.
    ///
    /// # Panics
    ///
    /// Always panics; train the downstream head instead.
    fn backward(&mut self, _grad_output: &Tensor) -> Tensor {
        panic!("ConvBlock is a frozen feature extractor; backward is unsupported")
    }
}

/// A small ConvNet: stacked [`ConvBlock`]s followed by a flatten, used as
/// the perception frontend of the visual workloads.
#[derive(Debug)]
pub struct ConvNet {
    blocks: Vec<ConvBlock>,
}

impl ConvNet {
    /// Stack blocks given `(c_in, c_out, kernel, pool)` specs; stride 1 and
    /// `same`-ish padding `kernel / 2`.
    pub fn new(specs: &[(usize, usize, usize, Option<usize>)], seed: u64) -> Self {
        let blocks = specs
            .iter()
            .enumerate()
            .map(|(i, &(c_in, c_out, k, pool))| {
                ConvBlock::new(
                    c_in,
                    c_out,
                    k,
                    Conv2dParams {
                        stride: 1,
                        padding: k / 2,
                    },
                    pool,
                    seed.wrapping_add(i as u64 * 131),
                )
            })
            .collect();
        ConvNet { blocks }
    }

    /// Run the stack and flatten to `[n, features]`.
    pub fn extract(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for block in &mut self.blocks {
            x = block.forward(&x);
        }
        let n = x.dims()[0];
        let features = x.numel() / n;
        x.reshape(&[n, features]).expect("flatten preserves count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_block_shapes() {
        let mut b = ConvBlock::new(
            1,
            4,
            3,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
            Some(2),
            1,
        );
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], -1.0, 1.0, 2);
        let y = b.forward(&x);
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        // ReLU output is non-negative.
        assert!(y.data().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn convnet_extracts_flat_features() {
        let mut net = ConvNet::new(&[(1, 4, 3, Some(2)), (4, 8, 3, Some(2))], 3);
        let x = Tensor::rand_uniform(&[3, 1, 16, 16], -1.0, 1.0, 4);
        let f = net.extract(&x);
        assert_eq!(f.dims(), &[3, 8 * 4 * 4]);
    }

    #[test]
    fn extraction_is_deterministic() {
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 5);
        let mut a = ConvNet::new(&[(1, 2, 3, None)], 9);
        let mut b = ConvNet::new(&[(1, 2, 3, None)], 9);
        assert_eq!(a.extract(&x).data(), b.extract(&x).data());
    }

    #[test]
    #[should_panic(expected = "frozen feature extractor")]
    fn backward_is_unsupported() {
        let mut b = ConvBlock::new(1, 1, 1, Conv2dParams::default(), None, 1);
        let _ = b.backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }
}
