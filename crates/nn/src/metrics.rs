//! Classification metrics and shared float-comparison helpers.

use crate::tensor::Tensor;

/// Absolute-tolerance float equality: `|a - b| <= tol`, with exact
/// equality as a fallback so infinities compare equal to themselves.
///
/// This is the workspace's sanctioned alternative to `==` on floats:
/// the F1 lint (DESIGN.md §10) flags equality against non-zero float
/// literals, and call sites are expected to route through this helper
/// (or [`approx_eq`]) instead. Comparisons against exact zero remain
/// `==` by policy — the sparsity skip gate depends on IEEE-exact zero
/// semantics.
#[inline]
#[must_use]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol
}

/// [`approx_eq_tol`] with the default tolerance `1e-12`, suited to
/// values of order one (accuracies, sparsities, normalized weights).
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_tol(a, b, 1e-12)
}

/// Top-1 accuracy of logits (or probabilities) against labels, in `[0, 1]`.
///
/// # Panics
///
/// Panics if the batch sizes differ.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let (b, k) = (logits.rows(), logits.cols());
    assert_eq!(b, labels.len(), "one label per row");
    if b == 0 {
        // An empty batch has no wrong answers; returning 0.0 (not NaN from
        // 0/0) keeps downstream curve aggregation finite.
        return 0.0;
    }
    let mut correct = 0usize;
    for (row, &label) in logits.data().chunks(k).zip(labels) {
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if argmax == label {
            correct += 1;
        }
    }
    correct as f64 / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_rounding_but_not_gaps() {
        assert!(approx_eq(0.1 + 0.2, 0.3), "classic rounding case");
        assert!(approx_eq(1.0, 1.0));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_eq_tol(1.0, 1.5, 0.5));
        assert!(!approx_eq_tol(1.0, 1.51, 0.5));
        assert!(
            approx_eq(f64::INFINITY, f64::INFINITY),
            "inf == inf via exact branch"
        );
        assert!(!approx_eq(f64::NAN, f64::NAN), "NaN never compares equal");
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![3, 2], vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn mismatched_labels_panic() {
        let logits = Tensor::zeros(vec![2, 2]);
        let _ = accuracy(&logits, &[0]);
    }
}
