//! The complete fault-tolerant on-line training flow (Fig. 2 of the paper).
//!
//! Every iteration runs forward propagation *through the simulated RRAM
//! hardware* (effective weights include stuck cells, write variation, and
//! clamping), back-propagates, and applies the weight updates through the
//! threshold trainer. Every `detection_interval` iterations the flow runs
//! the quiescent-voltage detection campaign, regenerates the pruning
//! distribution, searches for a neuron re-ordering that minimizes
//! `Dist(P, F)`, applies it (an isomorphism), parks the pruned zeros on the
//! faulty cells, and reprograms the array.

use nn::data::{BatchStreamState, Dataset};
use nn::loss::softmax_cross_entropy;
use nn::metrics::accuracy;
use nn::network::Network;
use nn::pruning::{try_apply_mask, LayerMask, PruneMask};
use obs::{Event, Recorder, WritePhase};

use crate::config::{FlowConfig, MappingConfig};
use crate::error::FttError;
use crate::mapping::{MappedNetwork, MappedState};
use crate::report::{CurvePoint, FlowStats, TrainingCurve};
use crate::strategy::{
    is_known_strategy_id, union_masks, DetectRemap, FaultStrategy, NoOp, StrategyCtx,
    StrategySelect,
};
use crate::telemetry::FlowMetrics;
use crate::threshold::ThresholdTrainer;

/// Builds the strategy hook context over the trainer's fields. A macro
/// rather than a method so the disjoint field borrows (`strategy` mutably
/// alongside everything else) stay visible to the borrow checker.
macro_rules! strategy_ctx {
    ($self:ident) => {
        StrategyCtx {
            mapped: &mut $self.mapped,
            net: &mut $self.net,
            flow: &$self.flow,
            metrics: &$self.metrics,
            iteration: $self.iteration,
            active_mask: &mut $self.active_mask,
            iteration_mask: &mut $self.iteration_mask,
        }
    };
}

/// Orchestrates fault-tolerant on-line training of one network on one
/// simulated RCS.
///
/// # Telemetry
///
/// Every trainer carries an [`obs::Recorder`] (pass your own via
/// [`FaultTolerantTrainer::with_recorder`] to attach sinks). The
/// *sequential* flow spine emits the typed event stream —
/// [`Event::TrainingIteration`], [`Event::ThresholdSkipBurst`],
/// [`Event::DetectionCampaignStart`]/[`Event::DetectionCampaignEnd`] (with
/// confusion-matrix scoring against simulator ground truth),
/// [`Event::RemapApplied`], [`Event::WearFault`], and
/// [`Event::WritePulseBatch`] — stamped on the iteration/write-pulse
/// logical clock, so a seeded run's trace is byte-identical at any
/// `RRAM_FTT_THREADS`. Aggregate statistics live in the recorder's
/// registry (see [`FlowMetrics`]); [`FaultTolerantTrainer::stats`] is a
/// snapshot view over it.
#[derive(Debug)]
pub struct FaultTolerantTrainer {
    net: Network,
    mapped: MappedNetwork,
    flow: FlowConfig,
    trainer: ThresholdTrainer,
    iteration: u64,
    curve: TrainingCurve,
    metrics: FlowMetrics,
    strategy: Box<dyn FaultStrategy>,
    active_mask: Option<PruneMask>,
    /// Mask installed by the strategy for the current iteration only
    /// (drop-connect); cleared at the top of every iteration.
    iteration_mask: Option<PruneMask>,
    /// First iteration of the currently open all-skip burst, if any.
    burst_start: Option<u64>,
    /// Updates suppressed across the open burst.
    burst_skipped: u64,
    /// Mini-batch stream position carried across [`train`] calls, so a
    /// continued (or checkpoint-restored) run consumes exactly the batches
    /// an uninterrupted one would.
    ///
    /// [`train`]: FaultTolerantTrainer::train
    batch_stream: Option<BatchStreamState>,
}

impl FaultTolerantTrainer {
    /// Maps the network onto simulated hardware and prepares the flow,
    /// with a fresh wall-clock [`Recorder`] (no sinks attached).
    ///
    /// # Errors
    ///
    /// Returns mapping/configuration errors; see
    /// [`MappedNetwork::from_network`].
    pub fn new(net: Network, mapping: MappingConfig, flow: FlowConfig) -> Result<Self, FttError> {
        Self::with_recorder(net, mapping, flow, Recorder::new())
    }

    /// Like [`FaultTolerantTrainer::new`], but records telemetry on the
    /// given recorder — attach sinks to it before or after construction to
    /// capture the event stream.
    ///
    /// # Errors
    ///
    /// Returns mapping/configuration errors; see
    /// [`MappedNetwork::from_network`].
    pub fn with_recorder(
        net: Network,
        mapping: MappingConfig,
        flow: FlowConfig,
        recorder: Recorder,
    ) -> Result<Self, FttError> {
        let strategy = builtin_strategy(&flow.strategy)?;
        Self::with_strategy(net, mapping, flow, recorder, strategy)
    }

    /// Like [`FaultTolerantTrainer::with_recorder`], but drives the run
    /// with an explicit [`FaultStrategy`] implementation — the entry point
    /// for strategies living outside this crate (the `ftt-strategy`
    /// contenders). The strategy's [`FaultStrategy::id`] must match the
    /// flow config's [`StrategySelect::id`], so snapshots restore against
    /// the right implementation.
    ///
    /// # Errors
    ///
    /// Returns mapping/configuration errors (including a strategy/config id
    /// mismatch); see [`MappedNetwork::from_network`].
    pub fn with_strategy(
        mut net: Network,
        mapping: MappingConfig,
        flow: FlowConfig,
        recorder: Recorder,
        strategy: Box<dyn FaultStrategy>,
    ) -> Result<Self, FttError> {
        if strategy.id() != flow.strategy.id() {
            return Err(FttError::InvalidConfig(format!(
                "strategy `{}` does not match the flow config selection `{}`",
                strategy.id(),
                flow.strategy.id()
            )));
        }
        let mut mapped = MappedNetwork::from_network(&mut net, mapping)?;
        mapped.attach_recorder(&recorder);
        let trainer = ThresholdTrainer::new(flow.threshold, &mapped);
        let mut this = Self {
            net,
            mapped,
            flow,
            trainer,
            iteration: 0,
            curve: TrainingCurve::new(),
            metrics: FlowMetrics::new(recorder),
            strategy,
            active_mask: None,
            iteration_mask: None,
            burst_start: None,
            burst_skipped: 0,
            batch_stream: None,
        };
        this.strategy.on_map(&mut strategy_ctx!(this))?;
        Ok(this)
    }

    /// The strategy driving the run.
    pub fn strategy(&self) -> &dyn FaultStrategy {
        self.strategy.as_ref()
    }

    /// The training curve recorded so far.
    pub fn curve(&self) -> &TrainingCurve {
        &self.curve
    }

    /// Aggregate flow statistics — a snapshot derived from the telemetry
    /// registry (the counters are the single source of truth).
    pub fn stats(&self) -> FlowStats {
        self.metrics.snapshot()
    }

    /// The trainer's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        self.metrics.recorder()
    }

    /// The simulated hardware.
    pub fn mapped(&self) -> &MappedNetwork {
        &self.mapped
    }

    /// The iteration counter.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Re-programs the RCS for a *new application*: replaces the software
    /// network with `fresh` (same topology) and writes its weights to the
    /// crossbars. Hardware wear and faults persist — this is the scenario
    /// of §1/§6.4 where repeated re-training exhausts cell endurance.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if the topology differs, or any
    /// crossbar write error.
    pub fn reprogram_network(&mut self, mut fresh: Network) -> Result<(), FttError> {
        if fresh.weight_layer_indices() != self.net.weight_layer_indices() {
            return Err(FttError::InvalidConfig(
                "replacement network has a different topology".into(),
            ));
        }
        for layer in self.mapped.layers() {
            let fresh_shape = fresh
                .layer_params_mut(layer.layer_index)
                .map(|p| p.weight_shape);
            if fresh_shape != Some((layer.rows, layer.cols)) {
                return Err(FttError::InvalidConfig(format!(
                    "weight layer {} shape mismatch",
                    layer.weight_layer
                )));
            }
        }
        self.net = fresh;
        self.mapped.reprogram_from(&mut self.net, 0.0)?;
        self.active_mask = None;
        Ok(())
    }

    /// Measures test accuracy through the current (faulty) hardware.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if the mapped layout no longer
    /// matches the software network (a different network was substituted).
    pub fn evaluate(&mut self, data: &Dataset) -> Result<f64, FttError> {
        self.mapped.load_effective_weights(&mut self.net)?;
        let (tx, ty) = data.test_set();
        let logits = self.net.forward(&tx);
        Ok(accuracy(&logits, &ty))
    }

    /// Trains for `iterations` mini-batches, recording the accuracy curve.
    /// Can be called repeatedly to continue training (e.g. to model
    /// re-training the RCS for a subsequent application).
    ///
    /// # Errors
    ///
    /// Propagates hardware and configuration errors.
    pub fn train(&mut self, data: &Dataset, iterations: u64) -> Result<&TrainingCurve, FttError> {
        // Resume the batch stream where the previous `train` call left it
        // (the stream position is part of the checkpoint state), falling
        // back to a fresh iteration-salted shuffle when the geometry
        // changed — a different dataset or batch size starts over. Only
        // the fresh shuffle needs a copy of the dataset to reseed; a
        // resumed stream carries its own RNG and reads the caller's.
        let resume = self.batch_stream.take().filter(|st| {
            st.batch == self.flow.batch && st.train_len == data.train_len()
        });
        let mut reseeded;
        let (data, mut batches) = match &resume {
            Some(st) => (data, data.try_resume_train_batches(st)?),
            None => {
                reseeded = data.clone();
                reseeded.set_shuffle_seed(self.flow.data_seed ^ self.iteration);
                (&reseeded, reseeded.try_train_batches(self.flow.batch)?)
            }
        };
        let eval_interval = self.flow.eval_interval.max(1);
        let recorder = self.metrics.recorder().clone();
        for step in 0..iterations {
            self.iteration += 1;
            recorder.set_iteration(self.iteration);
            let _iter_span = recorder.span("flow_iteration");

            // Strategy campaign-trigger slot (DetectRemap runs the
            // periodic detection + re-mapping phase here, after warm-up;
            // DropConnect installs its per-iteration mask).
            self.iteration_mask = None;
            self.strategy.on_pre_iteration(&mut strategy_ctx!(self))?;

            // Forward propagation on the RCS: sync the software view with
            // the hardware's effective weights first, then punch out any
            // per-iteration strategy mask (drop-connect) so the dropped
            // connections are absent from this forward/backward pass.
            self.mapped.load_effective_weights(&mut self.net)?;
            if let Some(mask) = &self.iteration_mask {
                try_apply_mask(&mut self.net, mask)?;
            }
            let (x, y) = batches.next().ok_or(FttError::DataExhausted)?;
            let logits = self.net.forward_train(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            self.net.backward(&grad);
            self.strategy.on_gradient(&mut strategy_ctx!(self))?;

            // Threshold-trained weight update through the hardware. Entries
            // frozen by the persistent re-mapping mask and/or the strategy's
            // per-iteration mask receive no update.
            let lr = self.flow.lr.lr(self.iteration);
            let merged_mask;
            let frozen: Option<&PruneMask> = match (&self.active_mask, &self.iteration_mask) {
                (Some(a), None) => Some(a),
                (None, Some(m)) => Some(m),
                (Some(a), Some(m)) => {
                    merged_mask = union_masks(a, m)?;
                    Some(&merged_mask)
                }
                (None, None) => None,
            };
            let report =
                self.trainer
                    .apply_with_mask(&mut self.mapped, &mut self.net, lr, frozen)?;
            self.metrics.writes_issued.add(report.writes_issued);
            self.metrics.writes_skipped.add(report.writes_skipped);
            self.metrics
                .nan_updates_skipped
                .add(report.nan_updates_skipped);
            let new_wear = report.new_faults;
            self.metrics.wear_faults_during_training.add(new_wear);
            if new_wear > 0 {
                self.strategy
                    .on_fault_event(&mut strategy_ctx!(self), new_wear)?;
            }
            // Analog MVM work this iteration: forward plus the two backward
            // products (dX and dW) touch every mapped cell once each, per
            // sample in the batch.
            let cells_per_pass: u64 = self
                .mapped
                .layers()
                .iter()
                .map(|l| (l.rows * l.cols) as u64)
                .sum();
            self.metrics
                .mvm_cell_ops
                .add(3 * cells_per_pass * self.flow.batch as u64);

            // Event stream (sequential spine only — see the struct docs).
            recorder.set_write_pulses(self.mapped.total_write_pulses());
            if new_wear > 0 {
                recorder.emit(Event::WearFault {
                    new_faults: new_wear,
                    total_faults: self.mapped.wear_faults(),
                });
            }
            if report.writes_issued > 0 {
                recorder.emit(Event::WritePulseBatch {
                    pulses: report.writes_issued,
                    phase: WritePhase::Training,
                });
            }
            if report.writes_issued == 0 && report.writes_skipped > 0 {
                // Extend (or open) the all-skip burst.
                if self.burst_start.is_none() {
                    self.burst_start = Some(self.iteration);
                }
                self.burst_skipped += report.writes_skipped;
            } else {
                self.flush_skip_burst(self.iteration.saturating_sub(1));
            }
            recorder.emit(Event::TrainingIteration {
                writes_issued: report.writes_issued,
                writes_skipped: report.writes_skipped,
                nan_updates_skipped: report.nan_updates_skipped,
                new_wear_faults: new_wear,
                max_abs_dw: report.max_abs_dw,
            });
            self.strategy.on_post_iteration(&mut strategy_ctx!(self))?;

            // Evaluation checkpoint.
            if self.iteration.is_multiple_of(eval_interval) || step + 1 == iterations {
                let acc = self.evaluate(data)?;
                self.curve.push(CurvePoint {
                    iteration: self.iteration,
                    test_accuracy: acc,
                    faulty_fraction: self.mapped.fraction_faulty(),
                    write_pulses: self.mapped.total_write_pulses(),
                });
            }
        }
        // The skip burst stays open across `train` calls (it flushes once
        // a later iteration issues writes): emitting it here would make
        // the event stream depend on where the caller happened to split
        // the iteration sequence, breaking checkpoint/restore trace
        // equality.
        self.batch_stream = Some(batches.export_state());
        Ok(&self.curve)
    }

    /// Emits the [`Event::ThresholdSkipBurst`] for the currently open
    /// all-skip run (if any), closing it at `end_iteration`.
    fn flush_skip_burst(&mut self, end_iteration: u64) {
        if let Some(start) = self.burst_start.take() {
            let skipped = std::mem::take(&mut self.burst_skipped);
            self.metrics.recorder().emit(Event::ThresholdSkipBurst {
                start_iteration: start,
                end_iteration,
                writes_skipped: skipped,
            });
        }
    }

    /// Captures the complete trainer state for checkpointing: hardware
    /// (via [`MappedNetwork::export_state`]), software parameters, the
    /// threshold ledgers, the batch stream, the burst accumulator, the
    /// training curve, every registry counter and gauge, and the logical
    /// clock tail. Together with the run's configs (which are code, not
    /// state) this is everything [`FaultTolerantTrainer::restore_state`]
    /// needs to continue bit-identically.
    /// (Takes `&mut self` only because network parameters are exposed
    /// through mutable views; nothing is modified.)
    pub fn export_state(&mut self) -> TrainerState {
        let params = self
            .net
            .param_layers_mut()
            .map(|(layer_index, p)| NetParamState {
                layer_index,
                weights: p.weights.to_vec(),
                bias: p.bias.map(|b| b.to_vec()),
            })
            .collect();
        let registry = self.metrics.recorder().registry();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for name in registry.names() {
            if let Some(v) = registry.counter_value(&name) {
                counters.push((name, v));
            } else if let Some(v) = registry.gauge_value(&name) {
                gauges.push((name, v));
            }
        }
        TrainerState {
            iteration: self.iteration,
            strategy_id: self.strategy.id().to_string(),
            mapped: self.mapped.export_state(),
            params,
            ledgers: self.trainer.export_ledgers(),
            curve: self.curve.points().to_vec(),
            active_mask: self.active_mask.as_ref().map(|m| m.layers().to_vec()),
            burst_start: self.burst_start,
            burst_skipped: self.burst_skipped,
            batch_stream: self.batch_stream.clone(),
            counters,
            gauges,
            clock: self.metrics.recorder().export_clock_state(),
        }
    }

    /// Rebuilds a trainer from a [`TrainerState`] capture, a *template*
    /// network of the same topology the run was built from, the original
    /// configs, and a **fresh** recorder (its counters must start at zero —
    /// the captured totals are added back in; attach sinks before or after
    /// to capture the continuation's event stream, which picks up the
    /// logical clock exactly where the exporting run left it).
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when the capture is incoherent
    /// or does not fit the template network; propagates restore failures
    /// from the hardware layers.
    pub fn restore_state(
        net: Network,
        mapping: MappingConfig,
        flow: FlowConfig,
        recorder: Recorder,
        state: &TrainerState,
    ) -> Result<Self, FttError> {
        let strategy = builtin_strategy(&flow.strategy)?;
        Self::restore_state_with(net, mapping, flow, recorder, state, strategy)
    }

    /// Like [`FaultTolerantTrainer::restore_state`], but restores against
    /// an explicit [`FaultStrategy`] implementation (required for the
    /// `ftt-strategy` contenders, which this crate cannot construct).
    ///
    /// The capture's recorded strategy id must be known to this build and
    /// must match both the flow config's selection and the given
    /// implementation — a capture taken under one strategy cannot silently
    /// continue under another.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when the capture is incoherent,
    /// does not fit the template network, or carries an unknown/mismatched
    /// strategy id; propagates restore failures from the hardware layers.
    pub fn restore_state_with(
        net: Network,
        mapping: MappingConfig,
        flow: FlowConfig,
        recorder: Recorder,
        state: &TrainerState,
        strategy: Box<dyn FaultStrategy>,
    ) -> Result<Self, FttError> {
        if !is_known_strategy_id(&state.strategy_id) {
            return Err(FttError::InvalidConfig(format!(
                "snapshot records unknown strategy `{}`",
                state.strategy_id
            )));
        }
        if state.strategy_id != strategy.id() || strategy.id() != flow.strategy.id() {
            return Err(FttError::InvalidConfig(format!(
                "snapshot was taken under strategy `{}` but restore was \
                 handed `{}` (config selects `{}`)",
                state.strategy_id,
                strategy.id(),
                flow.strategy.id()
            )));
        }
        let mut net = net;
        let mut mapped = MappedNetwork::restore_state(mapping, &state.mapped)?;
        transplant_params(&mut net, &state.params)?;
        mapped.attach_recorder(&recorder);
        let mut trainer = ThresholdTrainer::new(flow.threshold, &mapped);
        trainer.restore_ledgers(state.ledgers.clone(), &mapped)?;
        let mut curve = TrainingCurve::new();
        for point in &state.curve {
            curve.push(*point);
        }
        let active_mask = state
            .active_mask
            .as_ref()
            .map(|layers| PruneMask::from_layers(layers.clone()));
        // Telemetry: re-register the flow metrics on the fresh recorder,
        // add the captured totals back, then restore the clock tail last
        // so the metric writes above don't disturb it (counter adds don't
        // touch the clock, but ordering keeps the invariant obvious).
        let metrics = FlowMetrics::new(recorder);
        let recorder = metrics.recorder();
        for (name, v) in &state.counters {
            recorder.counter(name).add(*v);
        }
        for (name, v) in &state.gauges {
            recorder.gauge(name).set(*v);
        }
        recorder
            .restore_clock_state(&state.clock)
            .map_err(FttError::InvalidConfig)?;
        Ok(Self {
            net,
            mapped,
            flow,
            trainer,
            iteration: state.iteration,
            curve,
            metrics,
            strategy,
            active_mask,
            iteration_mask: None,
            burst_start: state.burst_start,
            burst_skipped: state.burst_skipped,
            batch_stream: state.batch_stream.clone(),
        })
    }
}

/// Constructs the built-in strategy a [`StrategySelect`] names, erroring on
/// the selections implemented outside this crate.
fn builtin_strategy(select: &StrategySelect) -> Result<Box<dyn FaultStrategy>, FttError> {
    match select {
        StrategySelect::DetectRemap => Ok(Box::new(DetectRemap::new())),
        StrategySelect::NoOp => Ok(Box::new(NoOp)),
        other => Err(FttError::InvalidConfig(format!(
            "strategy `{}` lives in the ftt-strategy crate; construct the \
             trainer through FaultTolerantTrainer::with_strategy",
            other.id()
        ))),
    }
}

/// Copies captured software parameters into `net`, the template network
/// a restore or a migration rebuilds from.
///
/// The template must have exactly the captured parameter layers, in
/// order, each with the captured weight count and the same bias shape
/// (equal length on both sides, or absent on both).
///
/// # Errors
///
/// Returns [`FttError::InvalidConfig`] when the capture does not fit the
/// template; `net` may then hold part of the capture.
pub fn transplant_params(net: &mut Network, params: &[NetParamState]) -> Result<(), FttError> {
    let captured: Vec<usize> = params.iter().map(|p| p.layer_index).collect();
    let template: Vec<usize> = net.param_layers_mut().map(|(li, _)| li).collect();
    if captured != template {
        return Err(FttError::InvalidConfig(format!(
            "snapshot carries parameter layers {captured:?} but the template \
             network has {template:?}"
        )));
    }
    for p in params {
        let mut dst = net
            .layer_params_mut(p.layer_index)
            .ok_or_else(|| foreign_snapshot_error(p.layer_index))?;
        if dst.weights.len() != p.weights.len() {
            return Err(foreign_snapshot_error(p.layer_index));
        }
        dst.weights.copy_from_slice(&p.weights);
        match (&mut dst.bias, &p.bias) {
            (Some(dst), Some(src)) if dst.len() == src.len() => dst.copy_from_slice(src),
            (None, None) => {}
            _ => return Err(foreign_snapshot_error(p.layer_index)),
        }
    }
    Ok(())
}

/// The error raised when a captured parameter layer does not fit the
/// template network ([`transplant_params`]).
fn foreign_snapshot_error(layer_index: usize) -> FttError {
    FttError::InvalidConfig(format!(
        "snapshot parameter layer {layer_index} does not fit the template network"
    ))
}

/// Captured software parameters of one network layer.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParamState {
    /// Raw layer index inside the network.
    pub layer_index: usize,
    /// Weight values, row-major.
    pub weights: Vec<f32>,
    /// Bias values, if the layer has any.
    pub bias: Option<Vec<f32>>,
}

/// Complete plain-data capture of a [`FaultTolerantTrainer`] at an
/// iteration boundary. Configs ([`MappingConfig`], [`FlowConfig`]) are
/// *not* captured — restore is handed the same configs the run was built
/// with. Span-duration histograms and wall-clock times are deliberately
/// not part of the state (they are diagnostics, not behavior).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// The iteration counter.
    pub iteration: u64,
    /// Stable id of the strategy that drove the captured run (see
    /// [`crate::strategy::KNOWN_STRATEGY_IDS`]). Restore refuses captures
    /// whose id is unknown or differs from the restoring configuration.
    pub strategy_id: String,
    /// The mapped hardware (chip, layers, software weight targets).
    pub mapped: MappedState,
    /// Software network parameters, in layer order.
    pub params: Vec<NetParamState>,
    /// Threshold trainer write-amount ledgers, per mapped layer.
    pub ledgers: Vec<Vec<u32>>,
    /// Recorded training curve points.
    pub curve: Vec<CurvePoint>,
    /// The active pruning mask, if a re-mapping phase installed one.
    pub active_mask: Option<Vec<LayerMask>>,
    /// First iteration of the open all-skip burst, if any.
    pub burst_start: Option<u64>,
    /// Updates suppressed across the open burst.
    pub burst_skipped: u64,
    /// Mini-batch stream position.
    pub batch_stream: Option<BatchStreamState>,
    /// Registry counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Registry gauges, `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Logical clock tail (iteration, write pulses, seq, per-kind counts).
    pub clock: obs::ClockState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingScope;
    use nn::init::init_rng;
    use nn::optimizer::LrSchedule;
    use nn::synth::SyntheticDataset;
    use rram::endurance::EnduranceModel;

    fn small_data() -> Dataset {
        SyntheticDataset::mnist_like(240, 60, 5)
    }

    /// A small MLP for the sparse synthetic MNIST task.
    fn small_net(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(nn::layers::Dense::new(784, 32, &mut rng));
        net.push(nn::layers::Relu::new());
        net.push(nn::layers::Dense::new(32, 10, &mut rng));
        net
    }

    #[test]
    fn fault_free_flow_learns() {
        let data = small_data();
        let net = small_net(1);
        let mapping = MappingConfig::new(MappingScope::EntireNetwork).with_seed(1);
        let flow = FlowConfig::original()
            .with_lr(LrSchedule::constant(0.1))
            .with_eval_interval(50);
        let mut trainer = FaultTolerantTrainer::new(net, mapping, flow).unwrap();
        let curve = trainer.train(&data, 800).unwrap();
        // Judge the best checkpoint, not the last one: with quantized
        // hardware writes and a constant learning rate the tail of the
        // curve oscillates by a few points, so `final_accuracy()` is noise-
        // sensitive to the exact RNG stream (the vendored offline `rand`
        // shim draws a different stream than the registry crate).
        let best = curve
            .points()
            .iter()
            .map(|p| p.test_accuracy)
            .fold(0.0f64, f64::max);
        assert!(
            best > 0.70,
            "fault-free mapped training should learn: best {best}, final {}",
            curve.final_accuracy()
        );
        assert!(
            curve.final_accuracy() > 0.5,
            "training must not collapse: {}",
            curve.final_accuracy()
        );
    }

    #[test]
    fn wear_during_training_hurts_original_method() {
        // The paper's central degradation mechanism (Fig. 1): cells wear
        // out *during* training, so the original method's final accuracy
        // collapses while fault-free training holds.
        let data = small_data();
        let mapping_clean = MappingConfig::new(MappingScope::EntireNetwork).with_seed(2);
        let mapping_wearing = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.1)
            .with_endurance(EnduranceModel::new(500.0, 150.0))
            .with_seed(2);
        let flow = FlowConfig::original().with_lr(LrSchedule::constant(0.1));
        let mut clean =
            FaultTolerantTrainer::new(small_net(2), mapping_clean, flow.clone()).unwrap();
        let mut wearing = FaultTolerantTrainer::new(small_net(2), mapping_wearing, flow).unwrap();
        let clean_acc = clean.train(&data, 800).unwrap().final_accuracy();
        let worn_acc = wearing.train(&data, 800).unwrap().final_accuracy();
        assert!(
            wearing.mapped().fraction_faulty() > 0.5,
            "most cells should be dead by iteration 800"
        );
        assert!(
            worn_acc < clean_acc - 0.15,
            "wear must hurt: worn {worn_acc} vs clean {clean_acc}"
        );
    }

    #[test]
    fn threshold_reduces_writes() {
        let data = small_data();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork).with_seed(3);
        let mut orig = FaultTolerantTrainer::new(
            small_net(3),
            mapping.clone(),
            FlowConfig::original().with_lr(LrSchedule::constant(0.1)),
        )
        .unwrap();
        let mut thr = FaultTolerantTrainer::new(
            small_net(3),
            mapping,
            FlowConfig::threshold_only().with_lr(LrSchedule::constant(0.1)),
        )
        .unwrap();
        orig.train(&data, 100).unwrap();
        thr.train(&data, 100).unwrap();
        assert!(
            thr.stats().writes_issued < orig.stats().writes_issued / 2,
            "threshold {} vs original {}",
            thr.stats().writes_issued,
            orig.stats().writes_issued
        );
        assert!(thr.stats().skipped_fraction() > 0.5);
    }

    #[test]
    fn detection_phase_runs_and_remaps() {
        let data = small_data();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.2)
            .with_seed(4);
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(60);
        let mut trainer = FaultTolerantTrainer::new(small_net(4), mapping, flow).unwrap();
        trainer.train(&data, 200).unwrap();
        assert!(trainer.stats().detection_campaigns >= 3);
        assert!(trainer.stats().detection_cycles > 0);
        assert!(trainer.stats().last_remap_final_cost <= trainer.stats().last_remap_initial_cost);
    }

    #[test]
    fn warm_campaigns_spend_fewer_cycles_than_the_first() {
        let data = small_data();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.2)
            .with_seed(4);
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(60);
        let mut trainer = FaultTolerantTrainer::new(small_net(4), mapping, flow).unwrap();
        trainer.train(&data, 60).unwrap();
        assert_eq!(trainer.stats().detection_campaigns, 1);
        let first = trainer.stats().detection_cycles;
        trainer.train(&data, 140).unwrap();
        let warm_campaigns = trainer.stats().detection_campaigns - 1;
        assert!(warm_campaigns >= 2);
        // Warm stores + threshold-suppressed writes leave most cells
        // untouched between campaigns, so the later sweeps are narrower
        // than the first, which attached the stores and tested every cell.
        let warm = trainer.stats().detection_cycles - first;
        assert!(
            warm < warm_campaigns * first,
            "{warm_campaigns} warm campaigns spent {warm} cycles vs {first} for the first"
        );
    }

    #[test]
    fn sparing_retires_tiles_in_the_closed_loop() {
        let data = small_data();
        let mut mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.2)
            .with_seed(9)
            .with_spare_tiles(8)
            .with_retire_fault_density(0.1);
        mapping.tile_size = 64;
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(60);
        let mut trainer = FaultTolerantTrainer::new(small_net(9), mapping, flow).unwrap();
        trainer.train(&data, 100).unwrap();
        let stats = trainer.stats();
        assert!(
            stats.tiles_retired > 0,
            "dense-fault tiles must retire: {stats:?}"
        );
        assert_eq!(stats.tiles_retired, stats.spares_attached);
        // The chip events reached the flow's recorder.
        let retired = trainer
            .recorder()
            .events_of_kind(obs::EventKind::TileRetired);
        let attached = trainer
            .recorder()
            .events_of_kind(obs::EventKind::SpareAttached);
        assert_eq!(retired, stats.tiles_retired);
        assert_eq!(attached, stats.spares_attached);
        // Screened spares replaced the densest tiles, so the in-service
        // fault fraction sits below the injected 0.2 (wear adds some back).
        assert!(trainer.mapped().fraction_faulty() < 0.2);
    }

    #[test]
    fn endurance_wear_appears_in_stats() {
        let data = small_data();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_endurance(EnduranceModel::new(60.0, 10.0))
            .with_seed(5);
        let flow = FlowConfig::original().with_lr(LrSchedule::constant(0.1));
        let mut trainer = FaultTolerantTrainer::new(small_net(5), mapping, flow).unwrap();
        trainer.train(&data, 150).unwrap();
        assert!(
            trainer.stats().wear_faults_during_training > 0,
            "60-write budgets must exhaust within 150 iterations"
        );
        assert!(trainer.mapped().fraction_faulty() > 0.0);
        // The curve records the growing fault fraction.
        let curve = trainer.curve();
        let first = curve.points().first().unwrap().faulty_fraction;
        let last = curve.points().last().unwrap().faulty_fraction;
        assert!(last >= first);
    }

    #[test]
    fn differential_training_wear_counts_every_cell() {
        // Zero weights code as two zero-conductance cells, and budgets
        // without spread wear both cells of a pair out on the same pulse.
        // The statistics come from the update reports and must count both,
        // as the chip does.
        let mut net = small_net(5);
        for (_, params) in net.param_layers_mut() {
            params.weights.fill(0.0);
        }
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_coding(crate::config::WeightCoding::Differential)
            .with_endurance(EnduranceModel::new(3.0, 0.0));
        let flow = FlowConfig::original().with_lr(LrSchedule::constant(0.1));
        let mut trainer = FaultTolerantTrainer::new(net, mapping, flow).unwrap();
        trainer.train(&small_data(), 4).unwrap();
        let cells = 2 * (784 * 32 + 32 * 10);
        assert_eq!(trainer.mapped().wear_faults(), cells);
        assert_eq!(trainer.stats().wear_faults_during_training, cells);
    }

    /// A traced fault-tolerant flow on a deterministic recorder with a
    /// JSONL sink attached; returns the trainer and the sink view.
    fn traced_trainer(seed: u64) -> (FaultTolerantTrainer, obs::JsonlView) {
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.15)
            .with_endurance(EnduranceModel::new(40.0, 10.0))
            .with_seed(seed);
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(5)
            .with_detection_warmup(0)
            .with_eval_interval(5);
        let recorder = Recorder::deterministic();
        let sink = obs::JsonlSink::new();
        let view = sink.view();
        recorder.add_sink(Box::new(sink));
        let trainer =
            FaultTolerantTrainer::with_recorder(small_net(seed), mapping, flow, recorder).unwrap();
        (trainer, view)
    }

    #[test]
    fn restored_run_continues_byte_identically() {
        let data = SyntheticDataset::mnist_like(40, 10, 7);
        // Uninterrupted reference: 24 iterations in one call.
        let (mut full, full_view) = traced_trainer(7);
        full.train(&data, 24).unwrap();

        // Interrupted run: 11 iterations, export, restore into a fresh
        // trainer (template network, same configs, fresh recorder), 13
        // more. The split is deliberately not aligned with the detection
        // or eval interval.
        let (mut head, head_view) = traced_trainer(7);
        head.train(&data, 11).unwrap();
        let state = head.export_state();

        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.15)
            .with_endurance(EnduranceModel::new(40.0, 10.0))
            .with_seed(7);
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(5)
            .with_detection_warmup(0)
            .with_eval_interval(5);
        let recorder = Recorder::deterministic();
        let sink = obs::JsonlSink::new();
        let tail_view = sink.view();
        recorder.add_sink(Box::new(sink));
        let mut resumed =
            FaultTolerantTrainer::restore_state(small_net(7), mapping, flow, recorder, &state)
                .unwrap();
        // Double roundtrip: the restored trainer exports the same state.
        assert_eq!(resumed.export_state(), state);
        resumed.train(&data, 13).unwrap();

        // The resumed suffix trace appended to the head trace equals the
        // uninterrupted trace byte-for-byte.
        let stitched = format!("{}{}", head_view.contents(), tail_view.contents());
        assert_eq!(stitched, full_view.contents());

        // And the aggregate statistics agree field-for-field.
        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(resumed.iteration(), full.iteration());
        // Weights agree exactly too.
        let state_a = resumed.export_state();
        let state_b = full.export_state();
        assert_eq!(state_a.params, state_b.params);
        assert_eq!(state_a.mapped, state_b.mapped);
    }

    #[test]
    fn restore_state_rejects_a_foreign_template() {
        let data = SyntheticDataset::mnist_like(40, 10, 7);
        let (mut trainer, _view) = traced_trainer(7);
        trainer.train(&data, 6).unwrap();
        let state = trainer.export_state();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.15)
            .with_endurance(EnduranceModel::new(40.0, 10.0))
            .with_seed(7);
        let flow = FlowConfig::fault_tolerant().with_lr(LrSchedule::constant(0.1));
        // Wrong topology: hidden width 16 instead of 32.
        let mut rng = init_rng(7);
        let mut wrong = Network::new();
        wrong.push(nn::layers::Dense::new(784, 16, &mut rng));
        wrong.push(nn::layers::Relu::new());
        wrong.push(nn::layers::Dense::new(16, 10, &mut rng));
        assert!(FaultTolerantTrainer::restore_state(
            wrong,
            mapping,
            flow,
            Recorder::deterministic(),
            &state
        )
        .is_err());
    }

    #[test]
    fn training_can_continue_across_calls() {
        let data = small_data();
        let mapping = MappingConfig::new(MappingScope::EntireNetwork).with_seed(6);
        let flow = FlowConfig::original().with_lr(LrSchedule::constant(0.1));
        let mut trainer = FaultTolerantTrainer::new(small_net(6), mapping, flow).unwrap();
        trainer.train(&data, 50).unwrap();
        assert_eq!(trainer.iteration(), 50);
        trainer.train(&data, 50).unwrap();
        assert_eq!(trainer.iteration(), 100);
        assert!(trainer.curve().points().len() >= 2);
    }
}
