//! Fully-connected (dense) layer.

use crate::init::he_uniform;
use crate::layer::{Layer, LayerParams};
use crate::tensor::Tensor;
use rand::Rng;

/// A fully-connected layer `y = x · W + b` with `W: [in, out]`.
///
/// The weight orientation matches the paper's crossbar mapping: inputs on
/// rows (word lines), output neurons on columns (bit lines).
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Tensor,
    b: Vec<f32>,
    dw: Tensor,
    db: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dimensions must be non-zero"
        );
        let w = Tensor::from_vec(
            vec![in_features, out_features],
            he_uniform(in_features, in_features * out_features, rng),
        );
        Self {
            in_features,
            out_features,
            w,
            b: vec![0.0; out_features],
            dw: Tensor::zeros(vec![in_features, out_features]),
            db: vec![0.0; out_features],
            cached_input: None,
        }
    }

    /// Input feature count (crossbar rows).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output neuron count (crossbar columns).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_features,
            "dense expects [B, {}] input",
            self.in_features
        );
        if train {
            self.cached_input = Some(input.clone());
        }
        let mut y = input.matmul(&self.w);
        y.add_row_vector(&self.b);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede \
                      backward (see the trait's `# Panics` section)"
        )]
        let x = self
            .cached_input
            .take()
            .expect("backward called without a training-mode forward");
        assert_eq!(grad_out.cols(), self.out_features);
        self.dw = x.matmul_tn(grad_out);
        let n = self.out_features;
        self.db = vec![0.0; n];
        for row in grad_out.data().chunks(n) {
            for (d, &g) in self.db.iter_mut().zip(row) {
                *d += g;
            }
        }
        input_grad.then(|| grad_out.matmul_nt(&self.w))
    }

    fn params(&mut self) -> Option<LayerParams<'_>> {
        Some(LayerParams {
            weights: self.w.data_mut(),
            weight_grad: self.dw.data(),
            weight_shape: (self.in_features, self.out_features),
            bias: Some(&mut self.b),
            bias_grad: Some(&self.db),
        })
    }

    fn kind(&self) -> &'static str {
        "dense"
    }

    fn weight_count(&self) -> usize {
        self.in_features * self.out_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;

    #[test]
    fn forward_matches_manual_math() {
        let mut rng = init_rng(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        // Overwrite with known weights.
        layer.w = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]);
        layer.b = vec![0.5, -0.5];
        let x = Tensor::from_vec(vec![1, 3], vec![1., 2., 3.]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[1. + 3. + 0.5, 2. + 3. - 0.5]);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = init_rng(2);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        // Loss = sum(y); then dL/dy = ones.
        let y = layer.forward(&x, true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let dx = layer.backward(&ones, true).unwrap();

        // Finite-difference check on one weight and one input element.
        let eps = 1e-3;
        let sum_y =
            |layer: &mut Dense, x: &Tensor| -> f32 { layer.forward(x, false).data().iter().sum() };
        let base = sum_y(&mut layer, &x);

        let w_idx = 5;
        layer.w.data_mut()[w_idx] += eps;
        let plus = sum_y(&mut layer, &x);
        layer.w.data_mut()[w_idx] -= eps;
        let fd = (plus - base) / eps;
        let analytic = layer.dw.data()[w_idx];
        assert!((fd - analytic).abs() < 1e-2, "dW: fd {fd} vs {analytic}");

        let mut x2 = x.clone();
        x2.data_mut()[3] += eps;
        let plus = sum_y(&mut layer, &x2);
        let fd = (plus - base) / eps;
        assert!(
            (fd - dx.data()[3]).abs() < 1e-2,
            "dX: fd {fd} vs {}",
            dx.data()[3]
        );
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut rng = init_rng(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![3, 2], vec![1.; 6]);
        let _ = layer.forward(&x, true);
        let g = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let _ = layer.backward(&g, true);
        assert_eq!(layer.db, vec![9.0, 12.0]);
    }

    #[test]
    fn params_expose_crossbar_orientation() {
        let mut rng = init_rng(4);
        let mut layer = Dense::new(5, 7, &mut rng);
        let p = layer.params().unwrap();
        assert_eq!(p.weight_shape, (5, 7));
        assert_eq!(p.weights.len(), 35);
        assert!(p.bias.is_some());
        assert_eq!(layer.weight_count(), 35);
        assert_eq!(layer.kind(), "dense");
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_without_forward_panics() {
        let mut rng = init_rng(5);
        let mut layer = Dense::new(2, 2, &mut rng);
        let g = Tensor::zeros(vec![1, 2]);
        let _ = layer.backward(&g, true);
    }
}
