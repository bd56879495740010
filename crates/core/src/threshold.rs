//! Threshold training (§5.1, Algorithm 1 of the paper).
//!
//! In every iteration, ~90 % of the back-propagated weight updates `δw` are
//! tiny — below 1 % of the iteration's largest update — yet each one costs a
//! full RRAM write. Threshold training zeroes every `δw` below
//! `fraction · max|δw|`, suppressing the write entirely. The skipped
//! magnitude is not accumulated: the next large-enough gradient for that
//! weight carries the information instead, which is why the paper observes
//! only a ~1.2× increase in iterations-to-accuracy while extending mean
//! cell lifetime ~15×.
//!
//! Algorithm 1 passes each cell's accumulated `WriteAmount` to
//! `CalculateThreshold`, enabling wear-aware policies; both the paper's
//! fixed fraction and a wear-aware variant are provided.

use nn::network::Network;

use crate::error::FttError;
use crate::mapping::MappedNetwork;

/// When to suppress a weight write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Original training: every non-zero update is written.
    None,
    /// The paper's policy: suppress `|δw| < fraction · max|δw|` (global max
    /// over all mapped weights in the iteration). The paper uses 0.01.
    Fixed {
        /// Threshold as a fraction of the iteration's max `|δw|`.
        fraction: f64,
    },
    /// Wear-aware variant of `CalculateThreshold(WriteAmount)`: a cell that
    /// has been written `n` times uses threshold
    /// `fraction · (1 + growth · n) · max|δw|`, spreading wear away from
    /// hot cells.
    WearAware {
        /// Base threshold fraction.
        fraction: f64,
        /// Per-write threshold growth.
        growth: f64,
    },
}

impl ThresholdPolicy {
    /// The paper's configuration: threshold at 1 % of the iteration max.
    pub fn paper_default() -> Self {
        ThresholdPolicy::Fixed { fraction: 0.01 }
    }

    /// The threshold for a cell with the given write count, given the
    /// iteration's max update magnitude.
    fn threshold(&self, max_abs_dw: f64, write_amount: u32) -> f64 {
        match *self {
            ThresholdPolicy::None => 0.0,
            ThresholdPolicy::Fixed { fraction } => fraction * max_abs_dw,
            ThresholdPolicy::WearAware { fraction, growth } => {
                fraction * (1.0 + growth * f64::from(write_amount)) * max_abs_dw
            }
        }
    }
}

/// Statistics of one [`ThresholdTrainer::apply`] call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UpdateReport {
    /// Mapped-weight writes actually issued to the hardware.
    pub writes_issued: u64,
    /// Mapped-weight updates suppressed by the threshold.
    pub writes_skipped: u64,
    /// Cells that wore out (new endurance faults) during this update.
    pub new_faults: u64,
    /// The iteration's `max|δw|` over the mapped layers.
    pub max_abs_dw: f64,
    /// Updates whose gradient was NaN/infinite, skipped deterministically.
    /// A NaN `δw` fails every threshold comparison, so without this guard
    /// it would silently pass through and poison the hardware weights.
    pub nan_updates_skipped: u64,
}

impl UpdateReport {
    /// Fraction of candidate updates that fell below the threshold.
    pub fn skipped_fraction(&self) -> f64 {
        let total = self.writes_issued + self.writes_skipped;
        if total == 0 {
            0.0
        } else {
            self.writes_skipped as f64 / total as f64
        }
    }
}

/// Applies Algorithm 1: decides which updates to write through to the
/// crossbars and keeps per-cell write ledgers.
#[derive(Debug, Clone)]
pub struct ThresholdTrainer {
    policy: ThresholdPolicy,
    /// Per mapped-layer position, per weight: accumulated write count.
    write_amounts: Vec<Vec<u32>>,
}

impl ThresholdTrainer {
    /// Creates a trainer with zeroed write ledgers matching the mapping.
    pub fn new(policy: ThresholdPolicy, mapped: &MappedNetwork) -> Self {
        let write_amounts = mapped
            .layers()
            .iter()
            .map(|l| vec![0u32; l.rows * l.cols])
            .collect();
        Self {
            policy,
            write_amounts,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// Per-cell write counts of one mapped layer.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn write_amounts(&self, position: usize) -> &[u32] {
        &self.write_amounts[position]
    }

    /// One training-iteration update (lines 4–13 of Algorithm 1).
    ///
    /// Expects `net.backward` to have filled the gradients. Mapped layers:
    /// updates above the threshold are written to the crossbars (`Next_w =
    /// Current_w + LR·δw`, clamped by the hardware); the rest are dropped.
    /// Unmapped weight layers and all biases take a plain software SGD step
    /// (biases live in the digital periphery).
    ///
    /// # Errors
    ///
    /// Propagates crossbar write errors.
    pub fn apply(
        &mut self,
        mapped: &mut MappedNetwork,
        net: &mut Network,
        lr: f32,
    ) -> Result<UpdateReport, FttError> {
        self.apply_with_mask(mapped, net, lr, None)
    }

    /// Like [`ThresholdTrainer::apply`], but weights marked pruned in
    /// `frozen` are never updated — after a re-mapping phase the pruned
    /// zeros must stay parked on their (possibly faulty) cells.
    ///
    /// # Errors
    ///
    /// Propagates crossbar write errors.
    pub fn apply_with_mask(
        &mut self,
        mapped: &mut MappedNetwork,
        net: &mut Network,
        lr: f32,
        frozen: Option<&nn::pruning::PruneMask>,
    ) -> Result<UpdateReport, FttError> {
        let mapped_positions: Vec<(usize, usize)> = mapped
            .layers()
            .iter()
            .enumerate()
            .map(|(pos, l)| (pos, l.layer_index))
            .collect();

        // Pass 1: the iteration's max |δw| over mapped layers (δw ∝ grad,
        // the LR is a shared constant). NaN gradients are excluded: a NaN
        // fails every `>` comparison, so without the finiteness guard the
        // max would silently stay 0 and zero every threshold.
        let mut max_abs_dw = 0.0f64;
        for &(_, layer_index) in &mapped_positions {
            let params = net.layer_params_mut(layer_index).ok_or_else(|| {
                FttError::InvalidConfig(format!(
                    "mapped layer {layer_index} has no parameters in this network"
                ))
            })?;
            for &g in params.weight_grad {
                let dw = f64::from(g.abs()) * f64::from(lr);
                if dw.is_finite() && dw > max_abs_dw {
                    max_abs_dw = dw;
                }
            }
        }

        // Pass 2: collect the surviving updates per mapped layer. Updates
        // anchor on the *software* weight (Algorithm 1's `Current_w`), not
        // on the corrupted effective value the forward pass used — stuck
        // cells silently refuse the write, they do not drag the software
        // state with them.
        let mut report = UpdateReport {
            max_abs_dw,
            ..Default::default()
        };
        // A degenerate iteration — every finite update is exactly zero while
        // a thresholding policy is active — carries no information: skip the
        // whole pass deterministically instead of pulsing every cell with a
        // zero update (the None policy keeps the original method's
        // pulse-everything behaviour).
        let degenerate = max_abs_dw == 0.0 && !matches!(self.policy, ThresholdPolicy::None);
        let mut pending: Vec<(usize, Vec<(usize, f32)>)> = Vec::new();
        for &(pos, layer_index) in &mapped_positions {
            let frozen_layer =
                frozen.and_then(|m| m.layers().iter().find(|l| l.layer_index == layer_index));
            let targets = mapped.layers()[pos].targets();
            let params = net.layer_params_mut(layer_index).ok_or_else(|| {
                FttError::InvalidConfig(format!(
                    "mapped layer {layer_index} has no parameters in this network"
                ))
            })?;
            let mut updates = Vec::new();
            for (idx, &g) in params.weight_grad.iter().enumerate() {
                if let Some(fl) = frozen_layer {
                    if fl.pruned[idx] {
                        continue; // pruned weights stay parked at zero
                    }
                }
                // Every weight is either pulsed or suppressed each
                // iteration: the original method has no write-verify, so
                // even a zero update costs a pulse (None's threshold is 0,
                // which suppresses nothing).
                let dw = f64::from(g) * f64::from(lr);
                if !dw.is_finite() {
                    // A NaN/∞ gradient fails every `<` comparison below and
                    // would write NaN into the hardware; skip and count it.
                    report.nan_updates_skipped += 1;
                    continue;
                }
                if degenerate {
                    report.writes_skipped += 1;
                    continue;
                }
                let thr = self
                    .policy
                    .threshold(max_abs_dw, self.write_amounts[pos][idx]);
                if dw.abs() < thr {
                    report.writes_skipped += 1;
                } else {
                    updates.push((idx, targets[idx] - lr * g));
                }
            }
            pending.push((pos, updates));
        }

        // Pass 3: write through to the hardware and update the ledgers.
        for (pos, updates) in pending {
            for (idx, value) in updates {
                let outcome = mapped.write_weight(pos, idx, value)?;
                if outcome.changed() {
                    report.writes_issued += 1;
                    self.write_amounts[pos][idx] += 1;
                }
                if outcome.new_fault().is_some() {
                    report.new_faults += 1;
                }
            }
        }

        // Pass 4: software SGD for unmapped weight layers and all biases.
        let mapped_layer_indices: Vec<usize> = mapped_positions.iter().map(|&(_, li)| li).collect();
        for (layer_index, params) in net.param_layers_mut() {
            if !mapped_layer_indices.contains(&layer_index) {
                for (w, &g) in params.weights.iter_mut().zip(params.weight_grad) {
                    if g.is_finite() {
                        *w -= lr * g;
                    } else {
                        report.nan_updates_skipped += 1;
                    }
                }
            }
            if let (Some(bias), Some(bias_grad)) = (params.bias, params.bias_grad) {
                for (b, &g) in bias.iter_mut().zip(bias_grad) {
                    if g.is_finite() {
                        *b -= lr * g;
                    } else {
                        report.nan_updates_skipped += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Captures the per-cell write ledgers (checkpoint). The policy is
    /// configuration, not state — pass it back to
    /// [`ThresholdTrainer::restore_ledgers`] via a fresh trainer.
    pub fn export_ledgers(&self) -> Vec<Vec<u32>> {
        self.write_amounts.clone()
    }

    /// Replaces the ledgers with previously captured ones.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when the ledger shapes do not
    /// match the current mapping.
    pub fn restore_ledgers(
        &mut self,
        ledgers: Vec<Vec<u32>>,
        mapped: &MappedNetwork,
    ) -> Result<(), FttError> {
        let layers = mapped.layers();
        if ledgers.len() != layers.len() {
            return Err(FttError::InvalidConfig(format!(
                "{} ledgers for {} mapped layers",
                ledgers.len(),
                layers.len()
            )));
        }
        for (pos, (ledger, layer)) in ledgers.iter().zip(layers).enumerate() {
            if ledger.len() != layer.rows * layer.cols {
                return Err(FttError::InvalidConfig(format!(
                    "ledger {pos} holds {} counts for a {}x{} layer",
                    ledger.len(),
                    layer.rows,
                    layer.cols
                )));
            }
        }
        self.write_amounts = ledgers;
        Ok(())
    }

    /// Resets the ledgers to match a (re-built) mapping.
    pub fn reset(&mut self, mapped: &MappedNetwork) {
        self.write_amounts = mapped
            .layers()
            .iter()
            .map(|l| vec![0u32; l.rows * l.cols])
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MappingConfig, MappingScope};
    use nn::init::init_rng;
    use nn::layers::Dense;
    use nn::loss::softmax_cross_entropy;
    use nn::tensor::Tensor;

    fn setup() -> (Network, MappedNetwork) {
        let mut rng = init_rng(2);
        let mut net = Network::new();
        net.push(Dense::new(8, 4, &mut rng));
        let mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        (net, mapped)
    }

    fn one_backward(net: &mut Network) {
        let x = Tensor::from_vec(
            vec![4, 8],
            (0..32).map(|i| (i as f32 * 0.4).sin()).collect(),
        );
        let logits = net.forward_train(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        net.backward(&grad);
    }

    #[test]
    fn none_policy_writes_everything() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        one_backward(&mut net);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report.writes_skipped, 0);
        assert!(report.writes_issued > 0);
        assert_eq!(report.skipped_fraction(), 0.0);
    }

    #[test]
    fn fixed_policy_suppresses_small_updates() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        one_backward(&mut net);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::Fixed { fraction: 0.5 }, &mapped);
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert!(
            report.writes_skipped > 0,
            "an aggressive threshold must skip writes"
        );
        assert!(
            report.writes_issued > 0,
            "the largest update always survives"
        );
        assert!(report.skipped_fraction() > 0.0);
        assert!(report.max_abs_dw > 0.0);
    }

    #[test]
    fn paper_default_skips_zero_and_tiny_updates() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        // Sparse input (like MNIST strokes): zero features produce
        // exactly-zero first-layer gradients, which the threshold suppresses
        // but the original method still pulses.
        let x = Tensor::from_vec(vec![1, 8], vec![0.9, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.1]);
        let logits = net.forward_train(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &[2]);
        net.backward(&grad);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        // 5 of 8 input features are zero → at least 5×4 of the 32 weights
        // skip their write.
        assert!(
            report.writes_skipped >= 20,
            "skipped {}",
            report.writes_skipped
        );
        assert_eq!(report.writes_issued + report.writes_skipped, 32);
    }

    #[test]
    fn writes_update_hardware_weights() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        one_backward(&mut net);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        trainer.apply(&mut mapped, &mut net, 0.5).unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        assert_ne!(before, after, "hardware weights must move");
    }

    #[test]
    fn ledger_counts_writes_per_cell() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        one_backward(&mut net);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        let ledger_total: u64 = trainer.write_amounts(0).iter().map(|&n| u64::from(n)).sum();
        assert_eq!(ledger_total, report.writes_issued);
    }

    #[test]
    fn wear_aware_raises_thresholds_for_hot_cells() {
        let policy = ThresholdPolicy::WearAware {
            fraction: 0.01,
            growth: 1.0,
        };
        let cold = policy.threshold(1.0, 0);
        let hot = policy.threshold(1.0, 100);
        assert!(hot > cold * 50.0);
    }

    #[test]
    fn nan_gradients_are_skipped_and_counted() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        // Back-propagate a diverged loss gradient: NaN and ∞ entries in the
        // output gradient poison the corresponding weight-gradient columns
        // (0·NaN = NaN, so every row of those columns is non-finite).
        let x = Tensor::from_vec(vec![1, 8], vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        net.forward_train(&x);
        let g = Tensor::from_vec(vec![1, 4], vec![f32::NAN, f32::INFINITY, 0.5, -0.25]);
        net.backward(&g);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        // Two poisoned weight gradients (row 0, columns 0 and 1) plus two
        // poisoned bias entries: all skipped, none written.
        assert_eq!(report.nan_updates_skipped, 2 + 2);
        assert!(report.max_abs_dw.is_finite());
        assert!(report.max_abs_dw > 0.0, "finite columns still contribute");
        // No NaN reached the hardware or the off-chip biases.
        mapped.load_effective_weights(&mut net).unwrap();
        let params = net.layer_params_mut(0).unwrap();
        assert!(params.weights.iter().all(|w| w.is_finite()));
        assert!(params.bias.unwrap().iter().all(|b| b.is_finite()));
    }

    #[test]
    fn all_zero_gradient_iteration_skips_deterministically() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        // An all-zero output gradient makes every weight/bias gradient zero.
        let x = Tensor::from_vec(
            vec![4, 8],
            (0..32).map(|i| (i as f32 * 0.4).sin()).collect(),
        );
        net.forward_train(&x);
        let g = Tensor::from_vec(vec![4, 4], vec![0.0; 16]);
        net.backward(&g);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let before = trainer.write_amounts(0).to_vec();
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report.max_abs_dw, 0.0);
        assert_eq!(
            report.writes_issued, 0,
            "a zero iteration must not pulse cells"
        );
        assert_eq!(report.writes_skipped, 32);
        assert_eq!(trainer.write_amounts(0), before.as_slice());
        // Running it twice is bit-identical (deterministic skip).
        let report2 = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report.writes_skipped, report2.writes_skipped);
    }

    #[test]
    fn mismatched_network_surfaces_typed_error() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        one_backward(&mut net);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        // A network whose mapped layer index points at nothing: empty net.
        let mut other = Network::new();
        let err = trainer.apply(&mut mapped, &mut other, 0.1);
        assert!(err.is_err(), "foreign network must error, not panic");
    }

    #[test]
    fn bias_updates_always_apply() {
        let (mut net, mut mapped) = setup();
        mapped.load_effective_weights(&mut net).unwrap();
        one_backward(&mut net);
        let bias_before: Vec<f32> = net.layer_params_mut(0).unwrap().bias.unwrap().to_vec();
        let mut trainer = ThresholdTrainer::new(
            ThresholdPolicy::Fixed { fraction: 10.0 }, // suppress every weight write
            &mapped,
        );
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report.writes_issued, 0);
        let bias_after: Vec<f32> = net.layer_params_mut(0).unwrap().bias.unwrap().to_vec();
        assert_ne!(
            bias_before, bias_after,
            "biases live off-chip and always update"
        );
    }
}
