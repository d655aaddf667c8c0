//! Fully-connected layer.
//!
//! Forward and backward passes dispatch to the row-blocked GEMM kernels in
//! `nsai_tensor::ops::matmul`, which run on the shared work-stealing pool
//! (`nsai_tensor::par`) and fall back to the exact serial code path when
//! `NEUROSYM_THREADS=1`. Results are bitwise-identical at any pool width.

use crate::layer::Layer;
use nsai_core::profile;
use nsai_tensor::Tensor;

/// A dense affine layer `y = x·Wᵀ + b` over batches `[n, in]`.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,      // [out, in]
    bias: Tensor,        // [out]
    grad_weight: Tensor, // [out, in]
    grad_bias: Tensor,   // [out]
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Create with Xavier-style initialization from a deterministic seed.
    /// The weight footprint is registered as persistent neural storage.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dimensions must be positive"
        );
        let std = (2.0 / (in_features + out_features) as f32).sqrt();
        let weight = Tensor::rand_normal(&[out_features, in_features], std, seed);
        profile::register_storage(
            "linear.weights",
            ((out_features * in_features + out_features) * 4) as u64,
        );
        Linear {
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            in_features,
            out_features,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [n, in] input");
        assert_eq!(input.dims()[1], self.in_features, "feature mismatch");
        self.cached_input = Some(input.clone());
        // Fused x·Wᵀ — no materialized transpose (keeps the neural trace
        // MatMul-attributed, as on real BLAS backends).
        let out = input.matmul_bt(&self.weight).expect("validated shapes");
        out.add(
            &self
                .bias
                .reshape(&[1, self.out_features])
                .expect("bias reshape"),
        )
        .expect("broadcast add")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = gradᵀ · x ; db = Σ grad rows ; dx = grad · W
        let d_w = grad_output.matmul_at(input).expect("validated shapes");
        self.grad_weight = self.grad_weight.add(&d_w).expect("same shape");
        let d_b = grad_output.sum_axis(0).expect("axis 0 exists");
        self.grad_bias = self.grad_bias.add(&d_b).expect("same shape");
        grad_output.matmul(&self.weight).expect("validated shapes")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grad(&mut self) {
        self.grad_weight = Tensor::zeros(&[self.out_features, self.in_features]);
        self.grad_bias = Tensor::zeros(&[self.out_features]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::new(3, 2, 1);
        let x = Tensor::zeros(&[4, 3]);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[4, 2]);
        // Zero input -> bias only (zero-initialized).
        assert!(y.data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut l = Linear::new(2, 2, 7);
        let x = Tensor::from_vec(vec![0.3, -0.4, 0.9, 0.1], &[2, 2]).unwrap();
        // Loss = sum(y); grad_output = ones.
        let _ = l.forward(&x);
        let ones = Tensor::ones(&[2, 2]);
        let grad_in = l.backward(&ones);

        // Finite differences on the first weight.
        let eps = 1e-3f32;
        let mut analytic_gw = 0.0f32;
        l.visit_params(&mut |_, g| {
            if analytic_gw == 0.0 {
                analytic_gw = g.data()[0];
            }
        });
        let base: f32 = {
            let mut l2 = Linear::new(2, 2, 7);
            l2.forward(&x).sum()
        };
        let perturbed: f32 = {
            let mut l2 = Linear::new(2, 2, 7);
            l2.visit_params(&mut |p, _| {
                if p.rank() == 2 {
                    p.data_mut()[0] += eps;
                }
            });
            l2.forward(&x).sum()
        };
        let numeric = (perturbed - base) / eps;
        assert!(
            (analytic_gw - numeric).abs() < 1e-2,
            "analytic {analytic_gw} vs numeric {numeric}"
        );

        // Input gradient of sum(x·Wᵀ + b) w.r.t. x is the column sums of W.
        let w = l.weight.clone();
        let expected0 = w.data()[0] + w.data()[2];
        assert!((grad_in.data()[0] - expected0).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = Linear::new(2, 1, 3);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 1]);
        l.forward(&x);
        l.backward(&g);
        let mut first = Vec::new();
        l.visit_params(&mut |_, grad| first.push(grad.data().to_vec()));
        l.forward(&x);
        l.backward(&g);
        let mut second = Vec::new();
        l.visit_params(&mut |_, grad| second.push(grad.data().to_vec()));
        for (a, b) in first.iter().zip(&second) {
            for (x1, x2) in a.iter().zip(b) {
                assert!((x2 - 2.0 * x1).abs() < 1e-5, "gradient did not accumulate");
            }
        }
        l.zero_grad();
        l.visit_params(&mut |_, grad| assert!(grad.data().iter().all(|v| *v == 0.0)));
    }

    #[test]
    fn param_count() {
        let mut l = Linear::new(3, 4, 1);
        assert_eq!(l.param_count(), 3 * 4 + 4);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn forward_rejects_wrong_width() {
        let mut l = Linear::new(3, 2, 1);
        let _ = l.forward(&Tensor::zeros(&[1, 4]));
    }
}
