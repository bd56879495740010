//! The [`Layer`] trait and the parameter view used by external trainers.

use std::fmt;

use crate::tensor::Tensor;

/// Mutable view over one layer's trainable parameters.
///
/// Weights are exposed as a flat slice with an explicit 2-D crossbar
/// orientation `(rows, cols)` = `(inputs, output neurons)`; this is the
/// matrix that gets mapped onto RRAM crossbars and that the threshold
/// trainer and re-mapping step in `ftt-core` operate on.
#[derive(Debug)]
pub struct LayerParams<'a> {
    /// Flat weight storage, row-major over `weight_shape`.
    pub weights: &'a mut [f32],
    /// Gradient of the loss w.r.t. `weights`, filled by `backward`.
    pub weight_grad: &'a [f32],
    /// `(rows, cols)` of the weight matrix: rows are crossbar inputs,
    /// columns are output neurons.
    pub weight_shape: (usize, usize),
    /// Bias vector (one entry per output neuron), if the layer has one.
    pub bias: Option<&'a mut [f32]>,
    /// Gradient of the loss w.r.t. the bias.
    pub bias_grad: Option<&'a [f32]>,
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during `forward(.., train=true)` so that
/// the subsequent `backward` can run; calling `backward` without a prior
/// training-mode forward pass panics.
pub trait Layer: fmt::Debug {
    /// Computes the layer output. When `train` is true the layer caches
    /// the activations needed for [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// filling the parameter gradients. When `input_grad` is true it
    /// returns the gradient w.r.t. the layer input; when false it returns
    /// `None` without computing it. [`crate::network::Network::backward`]
    /// passes false to the first layer only, whose input gradient is the
    /// gradient w.r.t. the network's input, which no trainer reads.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call.
    fn backward(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor>;

    /// Mutable access to the layer's parameters, if it has any.
    fn params(&mut self) -> Option<LayerParams<'_>> {
        None
    }

    /// Short layer-kind tag, e.g. `"dense"` or `"conv2d"`.
    fn kind(&self) -> &'static str;

    /// Number of trainable weights (excluding biases).
    fn weight_count(&self) -> usize {
        0
    }
}
