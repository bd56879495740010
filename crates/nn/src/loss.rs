//! Loss functions.

use crate::layers::Softmax;
use crate::tensor::Tensor;

/// Softmax cross-entropy on logits.
///
/// Returns `(mean_loss, grad)` where `grad` is the gradient of the mean loss
/// with respect to the logits (`(softmax(x) − onehot(y)) / B`), ready to be
/// fed to [`crate::network::Network::backward`].
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (b, k) = (logits.rows(), logits.cols());
    assert_eq!(labels.len(), b, "one label per batch row");
    let probs = {
        // Reuse the numerically stable row softmax.
        let mut sm = Softmax::new();
        use crate::layer::Layer;
        sm.forward(logits, false)
    };
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < k, "label {label} out of range for {k} classes");
        let p = probs.at2(i, label).max(1e-12);
        loss -= p.ln();
        *grad.at2_mut(i, label) -= 1.0;
    }
    let scale = 1.0 / b as f32;
    for g in grad.data_mut() {
        *g *= scale;
    }
    (loss * scale, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_ln_k() {
        let logits = Tensor::zeros(vec![2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 0.0, 0.0, 0.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for row in grad.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![1, 3], vec![0.3, -0.4, 0.9]);
        let (base, grad) = softmax_cross_entropy(&logits, &[1]);
        let eps = 1e-3;
        for i in 0..3 {
            let mut l2 = logits.clone();
            l2.data_mut()[i] += eps;
            let (plus, _) = softmax_cross_entropy(&l2, &[1]);
            let fd = (plus - base) / eps;
            assert!((fd - grad.data()[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(vec![1, 3]);
        let _ = softmax_cross_entropy(&logits, &[3]);
    }
}
