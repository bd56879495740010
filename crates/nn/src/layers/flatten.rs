//! Flattening between convolutional and dense stages.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Reshapes `[B, C, H, W]` (or any `[B, ...]`) activations to `[B, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self { in_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert!(s.len() >= 2, "flatten expects a batch dimension, got {s:?}");
        let batch = s[0];
        let features: usize = s[1..].iter().product();
        if train {
            self.in_shape = Some(s.to_vec());
        }
        input.clone().reshape(vec![batch, features])
    }

    fn backward(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede \
                      backward (see the trait's `# Panics` section)"
        )]
        let shape = self
            .in_shape
            .take()
            .expect("backward called without a training-mode forward");
        input_grad.then(|| grad_out.clone().reshape(shape))
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = flat.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = Tensor::zeros(vec![2, 48]);
        let dx = flat.backward(&g, true).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn already_flat_input_is_passthrough() {
        let mut flat = Flatten::new();
        let x = Tensor::from_vec(vec![2, 5], vec![1.0; 10]);
        let y = flat.forward(&x, false);
        assert_eq!(y.shape(), &[2, 5]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_requires_forward() {
        let mut flat = Flatten::new();
        let _ = flat.backward(&Tensor::zeros(vec![1, 1]), true);
    }
}
