//! MLP convenience builder.

use crate::activation::{Activation, ActivationKind};
use crate::layer::Layer;
use crate::linear::Linear;
use crate::sequential::Sequential;
use nsai_tensor::Tensor;

/// A multi-layer perceptron: `Linear → act → ... → Linear`, with a
/// configurable hidden activation (default ReLU) and a linear output.
#[derive(Debug)]
pub struct Mlp {
    net: Sequential,
}

impl Mlp {
    /// Build an MLP with the given layer widths (at least input and
    /// output), ReLU hidden activations, and deterministic initialization.
    ///
    /// # Panics
    ///
    /// Panics unless `sizes.len() >= 2`.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        Self::with_activation(sizes, ActivationKind::Relu, seed)
    }

    /// Build with a chosen hidden activation.
    ///
    /// # Panics
    ///
    /// Panics unless `sizes.len() >= 2`.
    pub fn with_activation(sizes: &[usize], act: ActivationKind, seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let mut net = Sequential::new();
        for i in 0..sizes.len() - 1 {
            net.push(Box::new(Linear::new(
                sizes[i],
                sizes[i + 1],
                seed.wrapping_add(i as u64 * 977),
            )));
            if i + 2 < sizes.len() {
                net.push(Box::new(Activation::new(act)));
            }
        }
        Mlp { net }
    }
}

impl Layer for Mlp {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.net.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.net.backward(grad_output)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.net.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;

    #[test]
    fn shapes_and_param_count() {
        let mut mlp = Mlp::new(&[4, 8, 2], 1);
        let x = Tensor::ones(&[3, 4]);
        let y = mlp.forward(&x);
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(mlp.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn learns_xor() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let y = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]).unwrap();
        let mut mlp = Mlp::with_activation(&[2, 8, 1], ActivationKind::Tanh, 7);
        let mut opt = crate::optim::Adam::new(0.05);
        let mut final_loss = f32::INFINITY;
        for _ in 0..2000 {
            let pred = mlp.forward(&x);
            let (l, grad) = loss::mse(&pred, &y).unwrap();
            mlp.backward(&grad);
            opt.step(&mut mlp);
            mlp.zero_grad();
            final_loss = l;
            if l < 1e-3 {
                break;
            }
        }
        assert!(final_loss < 1e-2, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_size() {
        let _ = Mlp::new(&[4], 1);
    }
}
