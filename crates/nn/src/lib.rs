//! From-scratch neural network training substrate.
//!
//! This crate provides everything the `rram-ftt` workspace needs to train
//! the paper's benchmark networks — a modified VGG-11 CNN for a Cifar-10-like
//! task and a 784×100×10 multi-layer perceptron for an MNIST-like task —
//! entirely in safe Rust with no external numerics dependencies:
//!
//! * [`tensor::Tensor`] — a dense `f32` tensor with the matrix kernels
//!   (one SAXPY GEMM loop, the convolution's lowering) that the layers
//!   build on.
//! * [`layers`] — dense, 2-D convolution, max-pooling, ReLU, flatten and
//!   softmax layers, each implementing [`layer::Layer`] with explicit
//!   forward/backward passes and exposed parameters so an external trainer
//!   (the fault-tolerant flow in `ftt-core`) can intercept every weight
//!   update.
//! * [`network::Network`] — a sequential container with forward, backward,
//!   and parameter iteration.
//! * [`loss`] — softmax cross-entropy on logits.
//! * [`optimizer`] — plain SGD with the paper's decayed learning-rate
//!   schedule.
//! * [`pruning`] — magnitude pruning (Han et al. \[8\]) producing the
//!   weight-pruning matrices `P` the re-mapping step consumes.
//! * [`permute`] — neuron re-ordering utilities: coupled column/row
//!   permutations of adjacent weight matrices that keep the network
//!   isomorphic (§5.2 of the paper).
//! * [`synth`] — deterministic synthetic stand-ins for Cifar-10 and MNIST
//!   (see `DESIGN.md` §2 for why this substitution preserves the paper's
//!   comparisons).
//! * [`models`] — constructors for the paper's two benchmark networks.
//!
//! # Example
//!
//! Train a small MLP on the synthetic MNIST task for a few steps:
//!
//! ```
//! use nn::models::mlp_784_100_10;
//! use nn::synth::SyntheticDataset;
//! use nn::optimizer::{Sgd, LrSchedule};
//! use nn::loss::softmax_cross_entropy;
//! use nn::metrics::accuracy;
//!
//! let data = SyntheticDataset::mnist_like(256, 64, 0);
//! let mut net = mlp_784_100_10(0);
//! let mut sgd = Sgd::new(LrSchedule::constant(0.05));
//! for (x, y) in data.train_batches(32).take(20) {
//!     let logits = net.forward_train(&x);
//!     let (_, grad) = nn::loss::softmax_cross_entropy(&logits, &y);
//!     net.backward(&grad);
//!     sgd.step(&mut net);
//! }
//! let (tx, ty) = data.test_set();
//! let logits = net.forward(&tx);
//! assert!(accuracy(&logits, &ty) >= 0.0);
//! # let _ = softmax_cross_entropy; // referenced for the doc example imports
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod error;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod network;
pub mod optimizer;
pub mod permute;
pub mod pruning;
pub mod synth;
pub mod tensor;

pub use error::NnError;
pub use network::Network;
pub use tensor::Tensor;
