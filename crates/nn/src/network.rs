//! Sequential network container.

use std::fmt;

use crate::layer::{Layer, LayerParams};
use crate::tensor::Tensor;

/// A sequential stack of layers.
///
/// # Example
///
/// ```
/// use nn::network::Network;
/// use nn::layers::{Dense, Relu};
/// use nn::init::init_rng;
/// use nn::tensor::Tensor;
///
/// let mut rng = init_rng(0);
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, &mut rng));
///
/// let x = Tensor::zeros(vec![1, 4]);
/// let y = net.forward(&x);
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.kind()).collect();
        f.debug_struct("Network").field("layers", &kinds).finish()
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers (including parameter-free ones).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Inference-mode forward pass (no caches are retained).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.run_forward(input, false)
    }

    /// Training-mode forward pass: layers cache activations for `backward`.
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.run_forward(input, true)
    }

    fn run_forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input, train);
        for layer in rest {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Back-propagates the loss gradient through all layers, filling each
    /// parameterized layer's gradients, and returns the network so the
    /// caller can read them (`net.backward(&g).param_layers_mut()`).
    ///
    /// The gradient w.r.t. the network's input is never computed: the
    /// first layer fills its parameter gradients and stops there.
    ///
    /// # Panics
    ///
    /// Panics if [`Network::forward_train`] did not precede this call.
    pub fn backward(&mut self, grad_out: &Tensor) -> &mut Self {
        let mut g = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let Some(dx) = layer.backward(&g, i > 0) else {
                break;
            };
            g = dx;
        }
        self
    }

    /// Iterates over `(layer_index, params)` for every parameterized layer.
    pub fn param_layers_mut(&mut self) -> impl Iterator<Item = (usize, LayerParams<'_>)> {
        self.layers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.params().map(|p| (i, p)))
    }

    /// The indices of layers that carry weights, in network order.
    pub fn weight_layer_indices(&mut self) -> Vec<usize> {
        self.layers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.params().map(|_| i))
            .collect()
    }

    /// Parameters of one layer by its index, if it has any.
    pub fn layer_params_mut(&mut self, index: usize) -> Option<LayerParams<'_>> {
        self.layers.get_mut(index)?.params()
    }

    /// The kind tag of a layer by index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range; [`Network::try_layer_kind`] is
    /// the non-panicking variant.
    pub fn layer_kind(&self, index: usize) -> &'static str {
        self.layers[index].kind()
    }

    /// The kind tag of a layer by index, or `None` when out of range.
    pub fn try_layer_kind(&self, index: usize) -> Option<&'static str> {
        self.layers.get(index).map(|l| l.kind())
    }

    /// Total number of trainable weights (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::layers::{Dense, Relu};

    fn mlp() -> Network {
        let mut rng = init_rng(1);
        let mut net = Network::new();
        net.push(Dense::new(4, 6, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(6, 3, &mut rng));
        net
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut net = mlp();
        let x = Tensor::zeros(vec![5, 4]);
        assert_eq!(net.forward(&x).shape(), &[5, 3]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn backward_fills_all_param_grads() {
        let mut net = mlp();
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1).collect());
        let y = net.forward_train(&x);
        let g = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        net.backward(&g);
        let mut count = 0;
        for (_, p) in net.param_layers_mut() {
            assert!(
                p.weight_grad.iter().any(|&g| g != 0.0),
                "grads should be non-zero"
            );
            count += 1;
        }
        assert_eq!(count, 2);
    }

    /// Every layer's full backward, the first layer's input gradient
    /// included; returns that gradient.
    fn full_backward(net: &mut Network, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in net.layers.iter_mut().rev() {
            g = layer.backward(&g, true).unwrap();
        }
        g
    }

    /// Every weight and bias gradient's bits, in layer order.
    fn grad_bits(net: &mut Network) -> Vec<Vec<u32>> {
        net.param_layers_mut()
            .flat_map(|(_, p)| [p.weight_grad, p.bias_grad.unwrap()])
            .map(|g| g.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `Network::backward`'s weight and bias gradients equal
    /// [`full_backward`]'s bit for bit at batch 1 and 3. Each walk runs on
    /// its own copy of `build()`, so neither can read gradients the other
    /// left behind.
    fn assert_skip_matches_full_walk(build: fn() -> Network, sample_shape: &[usize]) {
        for batch in [1, 3] {
            let (mut reference, mut net) = (build(), build());
            let shape: Vec<usize> = [&[batch][..], sample_shape].concat();
            let len = shape.iter().product::<usize>();
            let x = Tensor::from_vec(
                shape.clone(),
                (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
            );
            let labels: Vec<usize> = (0..batch).map(|b| (3 * b + 1) % 10).collect();
            let logits = reference.forward_train(&x);
            assert_eq!(logits, net.forward_train(&x));
            let (_, g) = crate::loss::softmax_cross_entropy(&logits, &labels);
            assert_eq!(full_backward(&mut reference, &g).shape(), &shape[..]);
            let full = grad_bits(&mut reference);
            assert_eq!(full.len(), 2 * net.weight_layer_indices().len());
            assert!(
                full == grad_bits(net.backward(&g)),
                "{shape:?}: gradients differ"
            );
        }
    }

    #[test]
    fn skipping_the_input_gradient_leaves_param_grads_bit_identical() {
        assert_skip_matches_full_walk(|| crate::models::mlp_784_100_10(3), &[784]);
        assert_skip_matches_full_walk(|| crate::models::vgg11_cifar(32, 3), &[3, 32, 32]);
    }

    #[test]
    fn weight_layer_indices_skip_activations() {
        let mut net = mlp();
        assert_eq!(net.weight_layer_indices(), vec![0, 2]);
        assert_eq!(net.layer_kind(1), "relu");
        assert_eq!(net.weight_count(), 4 * 6 + 6 * 3);
    }

    #[test]
    fn layer_params_mut_by_index() {
        let mut net = mlp();
        assert!(net.layer_params_mut(0).is_some());
        assert!(net.layer_params_mut(1).is_none());
        assert!(net.layer_params_mut(99).is_none());
    }

    #[test]
    fn debug_lists_layer_kinds() {
        let net = mlp();
        let s = format!("{net:?}");
        assert!(s.contains("dense") && s.contains("relu"));
    }
}
