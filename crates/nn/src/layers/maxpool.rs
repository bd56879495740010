//! 2×2 stride-2 max pooling.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Max pooling with a 2×2 window and stride 2 (the VGG down-sampler).
///
/// Odd trailing rows/columns are dropped, as in most frameworks' default.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    /// For each output element, the flat input index of its argmax.
    argmax: Option<Vec<usize>>,
    in_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a 2×2/2 max-pooling layer.
    pub fn new() -> Self {
        Self {
            argmax: None,
            in_shape: Vec::new(),
        }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "maxpool expects [B, C, H, W], got {s:?}");
        let (batch, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(
            h >= 2 && w >= 2,
            "maxpool needs at least 2x2 input, got {h}x{w}"
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; batch * c * oh * ow];
        let mut argmax = vec![0usize; out.len()];
        let data = input.data();
        for bc in 0..batch * c {
            let plane = bc * h * w;
            let oplane = bc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = plane + (oy * 2 + dy) * w + (ox * 2 + dx);
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[oplane + oy * ow + ox] = best;
                    argmax[oplane + oy * ow + ox] = best_idx;
                }
            }
        }
        if train {
            self.argmax = Some(argmax);
            self.in_shape = s.to_vec();
        }
        Tensor::from_vec(vec![batch, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede \
                      backward (see the trait's `# Panics` section)"
        )]
        let argmax = self
            .argmax
            .take()
            .expect("backward called without a training-mode forward");
        assert_eq!(
            grad_out.len(),
            argmax.len(),
            "gradient shape changed since forward"
        );
        if !input_grad {
            return None;
        }
        let mut dx = Tensor::zeros(self.in_shape.clone());
        let dx_data = dx.data_mut();
        for (&g, &idx) in grad_out.data().iter().zip(&argmax) {
            dx_data[idx] += g;
        }
        Some(dx)
    }

    fn kind(&self) -> &'static str {
        "maxpool2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_takes_window_max() {
        let mut pool = MaxPool2::new();
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 4, 4], vec![
            1., 2., 5., 6.,
            3., 4., 7., 8.,
            9., 10., 13., 14.,
            11., 12., 15., 16.,
        ]);
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2::new();
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![
            1., 9.,
            3., 4.,
        ]);
        let _ = pool.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]);
        let dx = pool.backward(&g, true).unwrap();
        assert_eq!(dx.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn odd_dimensions_are_truncated() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[5.0]); // max of the top-left 2x2 block
    }

    #[test]
    fn multi_channel_batches_pool_independently() {
        let mut pool = MaxPool2::new();
        let mut data = vec![0.0f32; 2 * 2 * 2 * 2];
        data[0] = 1.0; // b0 c0
        data[4] = 2.0; // b0 c1
        data[8] = 3.0; // b1 c0
        data[12] = 4.0; // b1 c1
        let x = Tensor::from_vec(vec![2, 2, 2, 2], data);
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_requires_forward() {
        let mut pool = MaxPool2::new();
        let g = Tensor::zeros(vec![1, 1, 1, 1]);
        let _ = pool.backward(&g, true);
    }
}
