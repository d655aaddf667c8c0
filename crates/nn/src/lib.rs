//! # nsai-nn
//!
//! A minimal neural-network layer on top of `nsai-tensor`: layers with
//! explicit forward/backward passes, losses, and optimizers. This is the
//! "NN" half of every workload in the paper — perception frontends
//! (ConvNets), predicate groundings (MLPs, for LTN), and the grouped MLPs
//! of NLM.
//!
//! Layers cache what they need during `forward` and return input gradients
//! from `backward`, accumulating parameter gradients internally; optimizers
//! visit `(param, grad)` pairs through [`layer::Layer::visit_params`].
//!
//! ```
//! use nsai_nn::{Mlp, loss, optim::Sgd, layer::Layer};
//! use nsai_tensor::Tensor;
//!
//! // Learn y = x on a toy set.
//! let mut net = Mlp::new(&[1, 8, 1], 42);
//! let mut sgd = Sgd::new(0.05);
//! let x = Tensor::from_vec(vec![0.0, 0.5, 1.0], &[3, 1])?;
//! let y = x.clone();
//! for _ in 0..200 {
//!     let pred = net.forward(&x);
//!     let (l, grad) = loss::mse(&pred, &y)?;
//!     net.backward(&grad);
//!     sgd.step(&mut net);
//!     net.zero_grad();
//!     if l < 1e-4 { break; }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod conv_layer;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod norm;
pub mod optim;
pub mod sequential;

pub use layer::Layer;
pub use linear::Linear;
pub use mlp::Mlp;
pub use sequential::Sequential;
