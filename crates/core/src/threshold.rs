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
use crate::mapping::{MappedLayer, MappedNetwork};

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

/// Gradients per block of the max sweep. The selection walk skips a block
/// whose largest `|δw|` is below the iteration's threshold without
/// visiting its entries.
const BLOCK: usize = 16;

/// The bit pattern of `|g|`. Non-negative IEEE-754 values order exactly
/// like their bit patterns read as unsigned integers, and ∞ and NaN sort
/// above every finite value, so an integer max (which LLVM vectorizes at
/// the baseline x86-64 target, unlike a float max) finds the largest `|g|`.
fn abs_bits(g: f32) -> u32 {
    g.to_bits() & 0x7fff_ffff
}

/// `abs_bits(∞)`: every finite `|g|` is below it, ∞ and NaN are not.
const INF_BITS: u32 = 0x7f80_0000;

/// The largest `abs_bits` of a block.
fn max_bits(block: &[f32]) -> u32 {
    block.iter().fold(0, |m, &g| m.max(abs_bits(g)))
}

/// The max sweep over one layer's gradients: fills `block_max` (one slot
/// per block) with each block's largest `abs_bits` and returns the layer's
/// largest finite one. A block holding NaN/∞ is rescanned for its finite
/// entries.
fn sweep_blocks(grads: &[f32], block_max: &mut [u32]) -> u32 {
    let (blocks, tail) = grads.as_chunks::<BLOCK>();
    for (m, block) in block_max.iter_mut().zip(blocks) {
        *m = max_bits(block);
    }
    if let (false, Some(m)) = (tail.is_empty(), block_max.last_mut()) {
        *m = max_bits(tail);
    }
    block_max
        .iter()
        .zip(grads.chunks(BLOCK))
        .map(|(&m, block)| {
            if m < INF_BITS {
                m
            } else {
                block
                    .iter()
                    .map(|&g| abs_bits(g))
                    .filter(|&b| b < INF_BITS)
                    .max()
                    .unwrap_or(0)
            }
        })
        .max()
        .unwrap_or(0)
}

/// One layer's inputs to the selection walk.
struct LayerUpdate<'a> {
    grads: &'a [f32],
    /// The layer's slice of the sweep's block maxima.
    block_max: &'a [u32],
    targets: &'a [f32],
    /// Pruned weights, which receive no update.
    frozen: Option<&'a [bool]>,
}

/// The smallest `abs_bits` whose `f64(|g|) · lr_abs` is not below `floor`.
/// The product of two f32 values is exact in f64, so it is monotone in
/// `|g|`: every finite gradient under the cutoff has `|δw| < floor`, and
/// none at or above it does. `INF_BITS` when every finite `|g|` is below;
/// 0 when none is (a NaN product compares false).
fn cutoff_bits(lr_abs: f64, floor: f64) -> u32 {
    let (mut lo, mut hi) = (0, INF_BITS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f64::from(f32::from_bits(mid)) * lr_abs < floor {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The iteration-wide inputs to the selection walk.
struct Selection {
    lr: f32,
    lr64: f64,
    /// `cutoff_bits` of the iteration's floor, a lower bound on every
    /// cell's threshold: an entry whose `abs_bits` is below it is
    /// suppressed, and so is a block whose maximum is.
    cut: u32,
}

impl Selection {
    /// Walks one layer: skips each block under the cutoff (counting its
    /// unfrozen entries as suppressed) and visits the rest entry by entry
    /// with the scalar loop's precedence — frozen, then under the cutoff,
    /// then non-finite, then `|δw| < threshold(idx)`. Surviving updates go
    /// to `updates` in ascending index order. Returns
    /// `(skipped, non_finite)`.
    fn walk(
        &self,
        layer: &LayerUpdate<'_>,
        threshold: impl Fn(usize) -> f64,
        updates: &mut Vec<(usize, f32)>,
    ) -> (u64, u64) {
        let (mut skipped, mut non_finite) = (0u64, 0u64);
        for (b, (&m, block)) in layer
            .block_max
            .iter()
            .zip(layer.grads.chunks(BLOCK))
            .enumerate()
        {
            let base = b * BLOCK;
            let frozen = layer.frozen.map(|f| &f[base..base + block.len()]);
            if m < self.cut {
                let held = frozen.map_or(0, |f| f.iter().filter(|&&p| p).count());
                skipped += (block.len() - held) as u64;
                continue;
            }
            for (j, &g) in block.iter().enumerate() {
                if frozen.is_some_and(|f| f[j]) {
                    continue; // pruned weights stay parked at zero
                }
                if abs_bits(g) < self.cut {
                    skipped += 1;
                    continue;
                }
                let dw = f64::from(g) * self.lr64;
                if !dw.is_finite() {
                    non_finite += 1;
                    continue;
                }
                let idx = base + j;
                if dw.abs() < threshold(idx) {
                    skipped += 1;
                } else {
                    updates.push((idx, layer.targets[idx] - self.lr * g));
                }
            }
        }
        (skipped, non_finite)
    }
}

/// The error for a mapped layer the network does not carry.
fn missing_layer(layer_index: usize) -> FttError {
    FttError::InvalidConfig(format!(
        "mapped layer {layer_index} has no parameters in this network"
    ))
}

/// The error for a mapped layer whose gradient, ledger or frozen mask has
/// another shape.
fn mismatch(layer: &MappedLayer) -> FttError {
    FttError::InvalidConfig(format!(
        "mapped layer {} ({}x{}) does not match the network, ledgers or frozen mask",
        layer.layer_index, layer.rows, layer.cols
    ))
}

/// Applies Algorithm 1: decides which updates to write through to the
/// crossbars and keeps per-cell write ledgers.
#[derive(Debug, Clone)]
pub struct ThresholdTrainer {
    policy: ThresholdPolicy,
    /// Per mapped-layer position, per weight: accumulated write count.
    write_amounts: Vec<Vec<u32>>,
    /// Scratch: the max sweep's per-block maxima, all layers in turn.
    block_max: Vec<u32>,
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
            block_max: Vec::new(),
        }
    }

    /// Per-cell write counts of one mapped layer; `None` when `position`
    /// is out of range.
    pub fn write_amounts(&self, position: usize) -> Option<&[u32]> {
        self.write_amounts.get(position).map(Vec::as_slice)
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
    /// See [`ThresholdTrainer::apply_with_mask`].
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
    /// Two sweeps whose cost follows the issued writes (DESIGN.md §6.7):
    /// a max sweep that also records every block's largest `|g|`, then a
    /// selection walk that skips each block below the threshold and
    /// visits only the rest. The result — report, ledgers, every pulse —
    /// equals [`ThresholdTrainer::apply_reference`], the scalar loop it
    /// replaced, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net`, the ledgers or a
    /// frozen layer do not match the mapping, and propagates crossbar
    /// write errors.
    pub fn apply_with_mask(
        &mut self,
        mapped: &mut MappedNetwork,
        net: &mut Network,
        lr: f32,
        frozen: Option<&nn::pruning::PruneMask>,
    ) -> Result<UpdateReport, FttError> {
        // Max sweep: every block's largest |g|, and the largest finite one.
        let blocks: usize = mapped
            .layers()
            .iter()
            .map(|l| (l.rows * l.cols).div_ceil(BLOCK))
            .sum();
        self.block_max.resize(blocks, 0);
        let mut finite_max = 0;
        let mut blocks_done = 0;
        for layer in mapped.layers() {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| missing_layer(layer.layer_index))?;
            let grads = params.weight_grad;
            if grads.len() != layer.rows * layer.cols {
                return Err(mismatch(layer));
            }
            let layer_blocks = blocks_done..blocks_done + grads.len().div_ceil(BLOCK);
            blocks_done = layer_blocks.end;
            finite_max = finite_max.max(sweep_blocks(grads, &mut self.block_max[layer_blocks]));
        }
        // f64(|g|)·f64(lr) of two f32 values is exact in f64, so for a
        // positive finite LR the largest |δw| is the largest finite |g|
        // times the LR. Any other LR makes every finite δw ≤ 0 or
        // non-finite, which the scalar max never takes: it stays +0.0.
        let lr64 = f64::from(lr);
        let max_abs_dw = if lr64 > 0.0 && lr64.is_finite() {
            f64::from(f32::from_bits(finite_max)) * lr64
        } else {
            0.0
        };
        let mut report = UpdateReport {
            max_abs_dw,
            ..Default::default()
        };

        // A degenerate iteration — every finite update is exactly zero while
        // a thresholding policy is active — carries no information: every
        // finite update is suppressed (a threshold of +∞) instead of pulsing
        // every cell with a zero update. The None policy keeps the original
        // method's pulse-everything behaviour: its threshold is 0, which
        // suppresses nothing, since even a zero update costs a pulse.
        let degenerate = max_abs_dw == 0.0 && !matches!(self.policy, ThresholdPolicy::None);
        let uniform = match self.policy {
            _ if degenerate => Some(f64::INFINITY),
            ThresholdPolicy::None => Some(0.0),
            ThresholdPolicy::Fixed { fraction } => Some(fraction * max_abs_dw),
            ThresholdPolicy::WearAware { .. } => None,
        };
        // A wear-aware threshold only grows with the write count when the
        // growth is finite and non-negative; then the cold-cell threshold
        // bounds every cell's from below. Otherwise nothing is skipped
        // before its exact comparison.
        let floor = match (uniform, self.policy) {
            (Some(thr), _) => thr,
            (None, ThresholdPolicy::WearAware { fraction, growth })
                if growth >= 0.0 && growth.is_finite() =>
            {
                fraction * max_abs_dw
            }
            (None, _) => f64::NAN,
        };
        let selection = Selection {
            lr,
            lr64,
            cut: cutoff_bits(lr64.abs(), floor),
        };

        // Selection, then the layer's writes; layers touch disjoint
        // targets and ledgers, so this equals selecting every layer first.
        let mut updates = Vec::new();
        let mut blocks_done = 0;
        for pos in 0..mapped.layers().len() {
            let layer = &mapped.layers()[pos];
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| missing_layer(layer.layer_index))?;
            let cells = params.weight_grad.len();
            let frozen_layer = frozen
                .and_then(|m| {
                    m.layers()
                        .iter()
                        .find(|l| l.layer_index == layer.layer_index)
                })
                .map(|l| l.pruned.as_slice());
            let ledger = &self.write_amounts;
            if ledger.get(pos).map(Vec::len) != Some(cells)
                || frozen_layer.is_some_and(|f| f.len() != cells)
            {
                return Err(mismatch(layer));
            }
            let blocks = cells.div_ceil(BLOCK);
            let view = LayerUpdate {
                grads: params.weight_grad,
                block_max: &self.block_max[blocks_done..blocks_done + blocks],
                targets: layer.targets(),
                frozen: frozen_layer,
            };
            blocks_done += blocks;
            updates.clear();
            let (skipped, non_finite) = match uniform {
                Some(thr) => selection.walk(&view, |_| thr, &mut updates),
                None => {
                    let ledger = &ledger[pos];
                    let policy = self.policy;
                    selection.walk(
                        &view,
                        |idx| policy.threshold(max_abs_dw, ledger[idx]),
                        &mut updates,
                    )
                }
            };
            report.writes_skipped += skipped;
            report.nan_updates_skipped += non_finite;

            let ledger = &mut self.write_amounts[pos];
            let mut issued = 0;
            report.new_faults += mapped.write_weights(pos, &updates, |idx| {
                issued += 1;
                ledger[idx] += 1;
            })?;
            report.writes_issued += issued;
        }

        self.apply_software_sgd(mapped, net, lr, &mut report);
        Ok(report)
    }

    /// The scalar four-pass loop [`ThresholdTrainer::apply_with_mask`]
    /// replaced, kept as its oracle: the tests require both to agree on
    /// the report (`max_abs_dw` bit for bit), the ledgers, the targets and
    /// every tile's state. Each update is its own one-weight
    /// [`MappedNetwork::write_weights`] batch. The flow never calls it.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` does not carry a
    /// mapped layer, and propagates crossbar write errors.
    pub fn apply_reference(
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
            let params = net
                .layer_params_mut(layer_index)
                .ok_or_else(|| missing_layer(layer_index))?;
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
        let degenerate = max_abs_dw == 0.0 && !matches!(self.policy, ThresholdPolicy::None);
        let mut pending: Vec<(usize, Vec<(usize, f32)>)> = Vec::new();
        for &(pos, layer_index) in &mapped_positions {
            let frozen_layer =
                frozen.and_then(|m| m.layers().iter().find(|l| l.layer_index == layer_index));
            let targets = mapped.layers()[pos].targets();
            let params = net
                .layer_params_mut(layer_index)
                .ok_or_else(|| missing_layer(layer_index))?;
            let mut updates = Vec::new();
            for (idx, &g) in params.weight_grad.iter().enumerate() {
                if let Some(fl) = frozen_layer {
                    if fl.pruned[idx] {
                        continue;
                    }
                }
                let dw = f64::from(g) * f64::from(lr);
                if !dw.is_finite() {
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
                let mut changed = false;
                report.new_faults +=
                    mapped.write_weights(pos, &[(idx, value)], |_| changed = true)?;
                if changed {
                    report.writes_issued += 1;
                    self.write_amounts[pos][idx] += 1;
                }
            }
        }

        // Pass 4: software SGD for unmapped weight layers and all biases.
        self.apply_software_sgd(mapped, net, lr, &mut report);
        Ok(report)
    }

    /// Plain SGD for the weight layers the chip does not hold and for all
    /// biases (they live in the digital periphery). Non-finite gradients
    /// are skipped and counted.
    fn apply_software_sgd(
        &self,
        mapped: &MappedNetwork,
        net: &mut Network,
        lr: f32,
        report: &mut UpdateReport,
    ) {
        for (layer_index, params) in net.param_layers_mut() {
            if !mapped.layers().iter().any(|l| l.layer_index == layer_index) {
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
        let ledger_total: u64 = trainer
            .write_amounts(0)
            .unwrap()
            .iter()
            .map(|&n| u64::from(n))
            .sum();
        assert_eq!(ledger_total, report.writes_issued);
    }

    #[test]
    fn differential_wear_counts_both_cells_of_a_pair() {
        use crate::config::WeightCoding;
        use rram::endurance::EnduranceModel;
        // Zero weights code as two zero-conductance cells, and budgets
        // without spread wear both cells of every pair out on the same
        // pulse: the report must count cells, as the chip does.
        let mut rng = init_rng(2);
        let mut net = Network::new();
        net.push(Dense::new(8, 4, &mut rng));
        net.layer_params_mut(0).unwrap().weights.fill(0.0);
        let config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_coding(WeightCoding::Differential)
            .with_endurance(EnduranceModel::new(3.0, 0.0));
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        let mut per_step = Vec::new();
        for _ in 0..4 {
            mapped.load_effective_weights(&mut net).unwrap();
            one_backward(&mut net);
            let before = mapped.wear_faults();
            let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
            assert_eq!(report.new_faults, mapped.wear_faults() - before);
            per_step.push(report.new_faults);
        }
        assert_eq!(per_step, vec![0, 0, 2 * 32, 0]);
    }

    #[test]
    fn cutoff_splits_exactly_at_the_floor() {
        // Just under the cutoff the product is below the floor, and at the
        // cutoff it is not — including zero, subnormal and non-finite
        // learning rates and floors.
        let below = |b: u32, lr: f64, floor: f64| f64::from(f32::from_bits(b)) * lr < floor;
        for lr in [
            0.1f32,
            1e-3,
            2.0,
            0.0,
            1e-40,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ] {
            let lr = f64::from(lr);
            for floor in [0.0, 1e-9, 0.013, 1.0, 1e30, f64::INFINITY, f64::NAN, -1.0] {
                let cut = cutoff_bits(lr, floor);
                assert!(cut <= INF_BITS);
                if cut > 0 {
                    assert!(below(cut - 1, lr, floor), "lr {lr} floor {floor}");
                }
                if cut < INF_BITS {
                    assert!(!below(cut, lr, floor), "lr {lr} floor {floor}");
                }
            }
        }
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
        let before = trainer.write_amounts(0).unwrap().to_vec();
        let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report.max_abs_dw, 0.0);
        assert_eq!(
            report.writes_issued, 0,
            "a zero iteration must not pulse cells"
        );
        assert_eq!(report.writes_skipped, 32);
        assert_eq!(trainer.write_amounts(0), Some(before.as_slice()));
        // Running it twice is bit-identical (deterministic skip).
        let report2 = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
        assert_eq!(report2, report);
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
