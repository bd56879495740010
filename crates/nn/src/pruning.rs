//! Magnitude pruning (Han et al., "Deep Compression" — the paper's ref \[8\]).
//!
//! Pruning produces the **weight-pruning matrices `P`** that the re-mapping
//! step consumes: `p(n)_{i,j} = 0` when the weight can be fixed to zero,
//! `∞` otherwise. In this implementation a [`PruneMask`] stores one boolean
//! per weight (`true` = prunable/zero), per weight-carrying layer.

use crate::network::Network;

/// Per-layer pruning masks over a network's weight layers.
///
/// Index `k` of [`PruneMask::layers`] corresponds to the `k`-th
/// weight-carrying layer in network order (activations are skipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneMask {
    layers: Vec<LayerMask>,
}

/// Mask for one weight matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMask {
    /// Index of the layer inside the [`Network`].
    pub layer_index: usize,
    /// `(rows, cols)` of the weight matrix.
    pub shape: (usize, usize),
    /// `true` = this weight is pruned (fixed to zero). Row-major.
    pub pruned: Vec<bool>,
}

impl LayerMask {
    /// Whether the weight at `(row, col)` is pruned.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn is_pruned(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.shape.0 && col < self.shape.1,
            "index out of range"
        );
        self.pruned[row * self.shape.1 + col]
    }

    /// Fraction of pruned weights.
    pub fn sparsity(&self) -> f64 {
        self.pruned.iter().filter(|&&p| p).count() as f64 / self.pruned.len() as f64
    }
}

impl PruneMask {
    /// Builds a mask from explicit layer masks (used when transforming a
    /// mask, e.g. permuting it alongside a neuron re-ordering).
    pub fn from_layers(layers: Vec<LayerMask>) -> Self {
        Self { layers }
    }

    /// The per-layer masks in weight-layer order.
    pub fn layers(&self) -> &[LayerMask] {
        &self.layers
    }

    /// Mask for the `k`-th weight layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn layer(&self, k: usize) -> &LayerMask {
        &self.layers[k]
    }

    /// Number of weight layers covered.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the mask covers no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Overall sparsity across all covered layers.
    pub fn total_sparsity(&self) -> f64 {
        let pruned: usize = self
            .layers
            .iter()
            .map(|l| l.pruned.iter().filter(|&&p| p).count())
            .sum();
        let total: usize = self.layers.iter().map(|l| l.pruned.len()).sum();
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }
}

/// Computes magnitude-pruning masks: in every weight layer, the `fraction`
/// of weights with the smallest absolute values is marked prunable.
///
/// Does **not** modify the network; combine with [`apply_mask`] to zero the
/// pruned weights, mirroring the paper's flow where pruning is generated
/// during training and then enforced.
///
/// # Example
///
/// ```
/// use nn::network::Network;
/// use nn::layers::Dense;
/// use nn::init::init_rng;
/// use nn::pruning::{apply_mask, magnitude_prune};
///
/// let mut rng = init_rng(0);
/// let mut net = Network::new();
/// net.push(Dense::new(4, 4, &mut rng));
/// let mask = magnitude_prune(&mut net, 0.5);
/// assert_eq!(mask.total_sparsity(), 0.5);
/// apply_mask(&mut net, &mask);
/// ```
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
pub fn magnitude_prune(net: &mut Network, fraction: f64) -> PruneMask {
    let count = net.weight_layer_indices().len();
    magnitude_prune_per_layer(net, &vec![fraction; count])
}

/// Like [`magnitude_prune`] but with one fraction per weight layer — the
/// paper notes conv layers tolerate much less sparsity than FC layers, so
/// callers typically pass small fractions for conv and ≥ 0.5 for FC.
///
/// # Panics
///
/// Panics if the fraction count does not match the number of weight layers
/// or any fraction is outside `[0, 1]`. Library code that must not panic
/// should use [`try_magnitude_prune_per_layer`].
pub fn magnitude_prune_per_layer(net: &mut Network, fractions: &[f64]) -> PruneMask {
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper over the fallible variant below"
    )]
    try_magnitude_prune_per_layer(net, fractions).expect("invalid pruning fractions")
}

/// Fallible variant of [`magnitude_prune_per_layer`].
///
/// # Errors
///
/// Returns [`crate::error::NnError::InvalidConfig`] if the fraction count
/// does not match the number of weight layers or any fraction is outside
/// `[0, 1]` (NaN included).
pub fn try_magnitude_prune_per_layer(
    net: &mut Network,
    fractions: &[f64],
) -> Result<PruneMask, crate::error::NnError> {
    let indices = net.weight_layer_indices();
    if indices.len() != fractions.len() {
        return Err(crate::error::NnError::InvalidConfig(format!(
            "need one fraction per weight layer ({} layers, {} fractions)",
            indices.len(),
            fractions.len()
        )));
    }
    let mut layers = Vec::with_capacity(indices.len());
    for (&layer_index, &fraction) in indices.iter().zip(fractions) {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(crate::error::NnError::InvalidConfig(format!(
                "fraction {fraction} outside [0, 1]"
            )));
        }
        #[expect(
            clippy::expect_used,
            reason = "`weight_layer_indices` only returns indices of layers that expose \
                      parameters; a `None` here is an internal Network invariant violation, not a \
                      caller-reachable state"
        )]
        let params = net
            .layer_params_mut(layer_index)
            .expect("weight_layer_indices returned a parameterless layer");
        let n = params.weights.len();
        // The `cut`-th smallest magnitude under `total_cmp`. Values equal
        // under `total_cmp` have equal bits, so selecting it gives the same
        // threshold as sorting would.
        let cut = ((fraction * n as f64).round() as usize).min(n);
        let keep_threshold = cut.checked_sub(1).map(|k| {
            let mut magnitudes: Vec<f32> = params.weights.iter().map(|w| w.abs()).collect();
            let (_, &mut threshold, _) = magnitudes.select_nth_unstable_by(k, f32::total_cmp);
            (cut, threshold)
        });
        let mut pruned = vec![false; n];
        if let Some((cut, threshold)) = keep_threshold {
            // Mark strictly-below-threshold weights, then fill up to `cut`
            // with ties so the count is exact.
            let mut marked = 0usize;
            for (m, &w) in pruned.iter_mut().zip(params.weights.iter()) {
                if w.abs() < threshold {
                    *m = true;
                    marked += 1;
                }
            }
            if marked < cut {
                for (m, &w) in pruned.iter_mut().zip(params.weights.iter()) {
                    if marked >= cut {
                        break;
                    }
                    if !*m && w.abs() == threshold {
                        *m = true;
                        marked += 1;
                    }
                }
            }
        }
        layers.push(LayerMask {
            layer_index,
            shape: params.weight_shape,
            pruned,
        });
    }
    Ok(PruneMask { layers })
}

/// Zeroes every pruned weight in the network.
///
/// # Panics
///
/// Panics if the mask does not match the network's weight layers. Library
/// code that must not panic should use [`try_apply_mask`].
pub fn apply_mask(net: &mut Network, mask: &PruneMask) {
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper over the fallible variant below"
    )]
    try_apply_mask(net, mask).expect("mask does not match network");
}

/// Fallible variant of [`apply_mask`].
///
/// # Errors
///
/// Returns [`crate::error::NnError::ShapeMismatch`] if a mask layer points
/// at a parameterless layer or its size does not match the weight matrix —
/// e.g. a mask computed before a topology change and applied after.
pub fn try_apply_mask(net: &mut Network, mask: &PruneMask) -> Result<(), crate::error::NnError> {
    for layer_mask in mask.layers() {
        let params = net
            .layer_params_mut(layer_mask.layer_index)
            .ok_or_else(|| {
                crate::error::NnError::InvalidConfig(format!(
                    "mask references parameterless layer {}",
                    layer_mask.layer_index
                ))
            })?;
        if params.weights.len() != layer_mask.pruned.len() {
            return Err(crate::error::NnError::ShapeMismatch {
                expected: format!("mask of {} weights", params.weights.len()),
                actual: vec![layer_mask.pruned.len()],
            });
        }
        for (w, &p) in params.weights.iter_mut().zip(&layer_mask.pruned) {
            if p {
                *w = 0.0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::layers::{Dense, Relu};

    fn net() -> Network {
        let mut rng = init_rng(3);
        let mut n = Network::new();
        n.push(Dense::new(10, 20, &mut rng));
        n.push(Relu::new());
        n.push(Dense::new(20, 5, &mut rng));
        n
    }

    /// The sort-based mask that selection replaced, kept as its oracle.
    fn sorted_reference(weights: &[f32], fraction: f64) -> Vec<bool> {
        let n = weights.len();
        let mut magnitudes: Vec<f32> = weights.iter().map(|w| w.abs()).collect();
        magnitudes.sort_by(|a, b| a.total_cmp(b));
        let cut = ((fraction * n as f64).round() as usize).min(n);
        let mut pruned = vec![false; n];
        if cut == 0 {
            return pruned;
        }
        let threshold = magnitudes[cut - 1];
        let mut marked = 0usize;
        for (m, &w) in pruned.iter_mut().zip(weights) {
            if w.abs() < threshold {
                *m = true;
                marked += 1;
            }
        }
        for (m, &w) in pruned.iter_mut().zip(weights) {
            if marked >= cut {
                break;
            }
            if !*m && w.abs() == threshold {
                *m = true;
                marked += 1;
            }
        }
        pruned
    }

    #[test]
    fn selected_threshold_matches_sorted_reference() {
        // Few distinct magnitudes (many ties), ±0.0, subnormals, ±NaN, ±∞.
        let values = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::from_bits(1),
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.25,
            -0.25,
            0.5,
            1e-3,
        ];
        let mut n = net();
        for seed in 0..60u64 {
            for li in n.weight_layer_indices() {
                let params = n.layer_params_mut(li).unwrap();
                for (i, w) in params.weights.iter_mut().enumerate() {
                    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (li * 1_000 + i) as u64;
                    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z ^= z >> 29;
                    // Half the seeds draw only from the first few values.
                    let span = if seed % 2 == 0 {
                        values.len()
                    } else {
                        seed as usize % values.len() + 1
                    };
                    *w = values[z as usize % span];
                }
            }
            for fraction in [0.0, 0.1, 0.25, 0.5, 0.77, 1.0] {
                let mask = magnitude_prune(&mut n, fraction);
                for (k, li) in n.weight_layer_indices().into_iter().enumerate() {
                    let weights = n.layer_params_mut(li).unwrap().weights.to_vec();
                    assert_eq!(
                        mask.layer(k).pruned,
                        sorted_reference(&weights, fraction),
                        "seed {seed}, fraction {fraction}, layer {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_fraction_is_exact() {
        let mut n = net();
        let mask = magnitude_prune(&mut n, 0.5);
        assert_eq!(mask.len(), 2);
        assert!(!mask.is_empty());
        assert!((mask.layer(0).sparsity() - 0.5).abs() < 1e-9);
        assert!((mask.layer(1).sparsity() - 0.5).abs() < 1e-9);
        assert!((mask.total_sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pruned_weights_are_the_smallest() {
        let mut n = net();
        let mask = magnitude_prune(&mut n, 0.3);
        let params = n.layer_params_mut(0).unwrap();
        let mut kept_min = f32::INFINITY;
        let mut pruned_max = 0.0f32;
        for (&w, &p) in params.weights.iter().zip(&mask.layer(0).pruned) {
            if p {
                pruned_max = pruned_max.max(w.abs());
            } else {
                kept_min = kept_min.min(w.abs());
            }
        }
        assert!(pruned_max <= kept_min, "{pruned_max} vs {kept_min}");
    }

    #[test]
    fn apply_mask_zeros_weights() {
        let mut n = net();
        let mask = magnitude_prune(&mut n, 0.5);
        apply_mask(&mut n, &mask);
        let params = n.layer_params_mut(0).unwrap();
        for (&w, &p) in params.weights.iter().zip(&mask.layer(0).pruned) {
            if p {
                assert_eq!(w, 0.0);
            }
        }
        // Unpruned weights survive.
        assert!(params.weights.iter().any(|&w| w != 0.0));
    }

    #[test]
    fn per_layer_fractions() {
        let mut n = net();
        let mask = magnitude_prune_per_layer(&mut n, &[0.1, 0.9]);
        assert!((mask.layer(0).sparsity() - 0.1).abs() < 0.01);
        assert!((mask.layer(1).sparsity() - 0.9).abs() < 0.01);
    }

    #[test]
    fn zero_and_full_fractions() {
        let mut n = net();
        let mask = magnitude_prune(&mut n, 0.0);
        assert_eq!(mask.total_sparsity(), 0.0);
        let mask = magnitude_prune(&mut n, 1.0);
        assert_eq!(mask.total_sparsity(), 1.0);
    }

    #[test]
    fn mask_is_pruned_accessor() {
        let mut n = net();
        let mask = magnitude_prune(&mut n, 0.5);
        let lm = mask.layer(0);
        assert_eq!(lm.shape, (10, 20));
        let mut seen_pruned = false;
        for r in 0..10 {
            for c in 0..20 {
                if lm.is_pruned(r, c) {
                    seen_pruned = true;
                }
            }
        }
        assert!(seen_pruned);
    }

    #[test]
    #[should_panic(expected = "one fraction per weight layer")]
    fn wrong_fraction_count_panics() {
        let mut n = net();
        let _ = magnitude_prune_per_layer(&mut n, &[0.5]);
    }

    #[test]
    fn try_variants_surface_typed_errors() {
        let mut n = net();
        assert!(try_magnitude_prune_per_layer(&mut n, &[0.5]).is_err());
        assert!(try_magnitude_prune_per_layer(&mut n, &[0.5, f64::NAN]).is_err());
        assert!(try_magnitude_prune_per_layer(&mut n, &[0.5, 1.5]).is_err());
        let ok = try_magnitude_prune_per_layer(&mut n, &[0.0, 1.0]).unwrap();
        assert_eq!(ok.len(), 2);

        // A mask whose shape no longer matches the network must error, not
        // corrupt weights.
        let bad = PruneMask::from_layers(vec![LayerMask {
            layer_index: 0,
            shape: (3, 3),
            pruned: vec![true; 9],
        }]);
        assert!(try_apply_mask(&mut n, &bad).is_err());
        let bad_idx = PruneMask::from_layers(vec![LayerMask {
            layer_index: 1, // Relu: parameterless
            shape: (1, 1),
            pruned: vec![true],
        }]);
        assert!(try_apply_mask(&mut n, &bad_idx).is_err());
    }
}
