//! The pluggable fault-tolerance strategy layer (DESIGN.md §14).
//!
//! The paper's detect-then-remap closed loop used to be hard-wired into
//! [`FaultTolerantTrainer`](crate::flow::FaultTolerantTrainer); this module
//! makes "what to do about faults" a first-class trait so competing schemes
//! from the literature can run as peers under identical fault processes.
//! The trait and its two built-in implementations live here (the trainer
//! needs to name them); the external contenders — drop-connect training and
//! zero-space redundant-column correction — live in the `ftt-strategy`
//! crate, which re-exports everything in this module.
//!
//! # Lifecycle contract
//!
//! The trainer invokes the hooks at fixed points of each iteration, always
//! from the sequential flow spine (never from worker threads), so anything
//! a hook emits or counts is deterministic and thread-budget-invariant:
//!
//! 1. [`FaultStrategy::on_map`] — once, right after the network is mapped
//!    onto the chip (iteration 0).
//! 2. [`FaultStrategy::on_pre_iteration`] — after the iteration counter
//!    advances, before the forward pass. This is the campaign trigger slot:
//!    [`DetectRemap`] runs the paper's periodic detection + re-mapping
//!    phase here, exactly where the pre-refactor trainer did.
//! 3. [`FaultStrategy::on_gradient`] — after back-propagation, before the
//!    threshold trainer applies updates. Strategies may install or adjust
//!    the per-iteration mask here.
//! 4. [`FaultStrategy::on_fault_event`] — after the update, only on
//!    iterations where new wear faults appeared.
//! 5. [`FaultStrategy::on_post_iteration`] — after the iteration's events
//!    are emitted, before the evaluation checkpoint.
//!
//! # Cost accounting contract
//!
//! Work a strategy performs must be charged into the flow's telemetry the
//! same way detection is today: campaign reads into
//! `flow_detection_cycles_total`, campaign/verify pulses into
//! `flow_detection_writes_total`, and any strategy-private overhead (e.g.
//! drop-connect mask generation) into `flow_strategy_cycles_total`, which
//! [`FlowStats::energy`](crate::report::FlowStats::energy) prices as cell
//! reads. [`FaultStrategy::cost`] returns the strategy's own ledger of what
//! it charged, so a harness can cross-check accounting parity.

use nn::network::Network;
use nn::pruning::{LayerMask, PruneMask};
use obs::{Confusion, Event, WritePhase};

use faultdet::detector::OnlineFaultDetector;
use faultdet::metrics::DetectionReport;

use crate::config::FlowConfig;
use crate::error::FttError;
use crate::mapping::{LayerDetection, MappedNetwork};
use crate::remap::plan_remap;
use crate::telemetry::FlowMetrics;
use nn::pruning::{try_apply_mask, try_magnitude_prune_per_layer};

/// Conductance tolerance below which a reprogramming write is skipped.
pub(crate) const REPROGRAM_EPSILON: f64 = 1e-4;

/// Stable identifiers of every strategy the workspace knows. Snapshot
/// restore rejects captures whose strategy id is not in this list.
pub const KNOWN_STRATEGY_IDS: [&str; 4] =
    ["detect_remap", "noop", "drop_connect", "redundant_column"];

/// Whether `id` names a strategy this build knows about.
pub fn is_known_strategy_id(id: &str) -> bool {
    KNOWN_STRATEGY_IDS.contains(&id)
}

/// Declarative strategy selection carried by
/// [`FlowConfig`](crate::config::FlowConfig).
///
/// `DetectRemap` and `NoOp` are built into this crate; the trainer
/// constructs them directly. `DropConnect` and `RedundantColumn` are
/// implemented in the `ftt-strategy` crate — selecting one of them requires
/// constructing the trainer through
/// [`FaultTolerantTrainer::with_strategy`](crate::flow::FaultTolerantTrainer::with_strategy)
/// with a boxed implementation whose [`FaultStrategy::id`] matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategySelect {
    /// The paper's detect → prune → re-map closed loop (the default).
    DetectRemap,
    /// No fault handling at all: the unprotected baseline.
    NoOp,
    /// Stochastic connection masking during training (arXiv 2404.15498).
    DropConnect {
        /// Fraction of mapped connections dropped each iteration.
        rate: f64,
        /// Base seed for the per-iteration masks (salted by the logical
        /// iteration clock).
        seed: u64,
    },
    /// Zero-space redundant-column correction (arXiv 2401.11664), mapped
    /// onto the chip's spare-tile machinery.
    RedundantColumn {
        /// Predicted fault density at which a column group (tile) is
        /// retired and a redundant spare attached.
        retire_density: f64,
        /// Iterations between correction campaigns (0 disables periodic
        /// campaigns; fault events can still trigger one).
        interval: u64,
    },
}

impl StrategySelect {
    /// The selection's stable strategy id.
    pub fn id(&self) -> &'static str {
        match self {
            StrategySelect::DetectRemap => "detect_remap",
            StrategySelect::NoOp => "noop",
            StrategySelect::DropConnect { .. } => "drop_connect",
            StrategySelect::RedundantColumn { .. } => "redundant_column",
        }
    }
}

/// Cumulative cycles/pulses a strategy charged into the flow telemetry on
/// its own behalf — the strategy-side ledger of the accounting contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyCost {
    /// Read/test cycles charged (detection campaigns, verify reads, mask
    /// generation — everything priced as a cell read).
    pub cycles: u64,
    /// Write pulses charged (campaign writes, verify writes, reprogram
    /// pulses issued by the strategy).
    pub write_pulses: u64,
}

impl StrategyCost {
    /// Adds `other` into this ledger.
    pub fn absorb(&mut self, other: StrategyCost) {
        self.cycles += other.cycles;
        self.write_pulses += other.write_pulses;
    }
}

/// Everything a strategy hook may touch, borrowed from the trainer for the
/// duration of one hook call.
///
/// All fields are the trainer's own — mutating them *is* mutating the run.
/// Hooks run on the sequential spine, so event emission through
/// `metrics.recorder()` is safe and deterministic.
#[derive(Debug)]
pub struct StrategyCtx<'a> {
    /// The mapped hardware.
    pub mapped: &'a mut MappedNetwork,
    /// The software network view.
    pub net: &'a mut Network,
    /// The flow configuration (immutable — configs are code, not state).
    pub flow: &'a FlowConfig,
    /// The flow's metric handles (counters/gauges are interior-mutable).
    pub metrics: &'a FlowMetrics,
    /// The current training iteration (already advanced for this step).
    pub iteration: u64,
    /// The persistent pruning mask installed by a re-mapping phase, if any.
    /// Entries marked pruned are frozen at zero by the threshold trainer.
    pub active_mask: &'a mut Option<PruneMask>,
    /// A per-iteration mask cleared by the trainer at the top of every
    /// iteration. When set, the trainer zeroes the masked weights in the
    /// software view before the forward pass and skips their updates —
    /// the drop-connect mechanism.
    pub iteration_mask: &'a mut Option<PruneMask>,
}

/// A pluggable fault-tolerance strategy. See the module docs for the
/// lifecycle and cost-accounting contracts.
///
/// Every hook has a no-op default so minimal strategies (like [`NoOp`])
/// implement only [`FaultStrategy::id`].
pub trait FaultStrategy: std::fmt::Debug {
    /// The strategy's stable identifier (snapshot captures record it; see
    /// [`KNOWN_STRATEGY_IDS`]).
    fn id(&self) -> &'static str;

    /// Called once after the network is mapped onto the chip.
    ///
    /// # Errors
    ///
    /// Configuration errors abort trainer construction.
    fn on_map(&mut self, _ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        Ok(())
    }

    /// Called at the top of every iteration (the campaign trigger slot).
    ///
    /// # Errors
    ///
    /// Hardware/configuration errors abort the training call.
    fn on_pre_iteration(&mut self, _ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        Ok(())
    }

    /// Called after back-propagation, before the threshold update.
    ///
    /// # Errors
    ///
    /// Hardware/configuration errors abort the training call.
    fn on_gradient(&mut self, _ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        Ok(())
    }

    /// Called after the update on iterations that produced new wear faults.
    ///
    /// # Errors
    ///
    /// Hardware/configuration errors abort the training call.
    fn on_fault_event(
        &mut self,
        _ctx: &mut StrategyCtx<'_>,
        _new_faults: u64,
    ) -> Result<(), FttError> {
        Ok(())
    }

    /// Called at the end of every iteration, before the eval checkpoint.
    ///
    /// # Errors
    ///
    /// Hardware/configuration errors abort the training call.
    fn on_post_iteration(&mut self, _ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        Ok(())
    }

    /// The strategy's cumulative self-charged cost ledger.
    fn cost(&self) -> StrategyCost {
        StrategyCost::default()
    }
}

/// The unprotected baseline: no detection, no masking, no correction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOp;

impl FaultStrategy for NoOp {
    fn id(&self) -> &'static str {
        "noop"
    }
}

/// The paper's closed loop as a strategy: periodic quiescent-voltage
/// detection, tile sparing, magnitude pruning, and the `Dist(P, F)`
/// re-mapping search — extracted verbatim from the pre-refactor trainer,
/// so a seeded run's event trace is byte-identical to what the hard-wired
/// flow emitted.
///
/// The campaign cadence comes from the flow config
/// (`detection_interval` / `detection_warmup`), exactly as before.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectRemap {
    cost: StrategyCost,
}

impl DetectRemap {
    /// Creates the default closed-loop strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Fig. 2 periodic phase: on-line detection, pruning, re-mapping.
    fn detection_phase(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let recorder = ctx.metrics.recorder().clone();
        let _phase_span = recorder.span("detection_phase");
        let (detector, mut detections) = run_detection_campaign(ctx, &mut self.cost)?;

        // Tile sparing: retire tiles whose predicted fault density crossed
        // the configured threshold and swap in screened spares, before the
        // re-mapping search reasons about the (now partially healed) fault
        // state. No-op unless `retire_fault_density` is configured.
        if ctx.mapped.config().retire_fault_density.is_some() {
            let sparing = {
                let _sparing_span = recorder.span("tile_sparing");
                ctx.mapped.apply_sparing(&detector, &mut detections)?
            };
            ctx.metrics.tiles_retired.add(sparing.tiles_retired);
            ctx.metrics.spares_attached.add(sparing.spares_attached);
            ctx.metrics.detection_cycles.add(sparing.verify_cycles);
            ctx.metrics
                .detection_writes
                .add(sparing.verify_write_pulses);
            self.cost.absorb(StrategyCost {
                cycles: sparing.verify_cycles,
                write_pulses: sparing.verify_write_pulses + sparing.reprogram_pulses,
            });
            recorder.set_write_pulses(ctx.mapped.total_write_pulses());
            if sparing.verify_write_pulses > 0 {
                recorder.emit(Event::WritePulseBatch {
                    pulses: sparing.verify_write_pulses,
                    phase: WritePhase::Detection,
                });
            }
            if sparing.reprogram_pulses > 0 {
                recorder.emit(Event::WritePulseBatch {
                    pulses: sparing.reprogram_pulses,
                    phase: WritePhase::Reprogram,
                });
            }
        }

        let Some(remap_cfg) = ctx.flow.remap else {
            return Ok(());
        };

        // Generate the pruning distribution from the current *software*
        // weights (the paper's "Generate Pruning" box works on the trained
        // network, not on the fault-corrupted hardware view — otherwise
        // magnitude pruning would trivially select the stuck-at-zero cells
        // and the re-ordering search would have nothing left to align).
        ctx.mapped.load_target_weights(ctx.net)?;
        let weight_layers = ctx.net.weight_layer_indices();
        let fractions: Vec<f64> = weight_layers
            .iter()
            .map(|&li| match ctx.net.try_layer_kind(li) {
                Some("dense") => ctx.flow.prune_fraction_dense,
                _ => ctx.flow.prune_fraction_conv,
            })
            .collect();
        let mut mask = try_magnitude_prune_per_layer(ctx.net, &fractions)?;

        // Search for a neuron re-ordering minimizing Dist(P, F).
        let mut cfg = remap_cfg;
        cfg.seed ^= ctx.iteration; // fresh search each phase
        let plan = {
            let _search_span = recorder.span("remap_search");
            plan_remap(ctx.mapped, &mask, &detections, &cfg)?
        };
        ctx.metrics
            .last_remap_initial_cost
            .set(plan.initial_cost as f64);
        ctx.metrics
            .last_remap_final_cost
            .set(plan.final_cost as f64);
        if plan.final_cost < plan.initial_cost && !plan.is_identity() {
            plan.apply(ctx.net, &mut mask)?;
            ctx.metrics.remaps_applied.inc();
            recorder.emit(Event::RemapApplied {
                initial_cost: plan.initial_cost,
                final_cost: plan.final_cost,
            });
        }

        // Park the pruned zeros and reprogram the array with the permuted
        // weights (writes only where the target moved).
        try_apply_mask(ctx.net, &mask)?;
        let reprog_writes = ctx.mapped.reprogram_from(ctx.net, REPROGRAM_EPSILON)?;
        self.cost.absorb(StrategyCost {
            cycles: 0,
            write_pulses: reprog_writes,
        });
        recorder.set_write_pulses(ctx.mapped.total_write_pulses());
        if reprog_writes > 0 {
            recorder.emit(Event::WritePulseBatch {
                pulses: reprog_writes,
                phase: WritePhase::Reprogram,
            });
        }
        *ctx.active_mask = Some(mask);
        Ok(())
    }
}

impl FaultStrategy for DetectRemap {
    fn id(&self) -> &'static str {
        "detect_remap"
    }

    fn on_pre_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        // Periodic detection + re-mapping phase (after warm-up).
        if let Some(interval) = ctx.flow.detection_interval {
            if interval > 0
                && ctx.iteration >= ctx.flow.detection_warmup
                && ctx.iteration.is_multiple_of(interval)
            {
                self.detection_phase(ctx)?;
            }
        }
        Ok(())
    }

    fn cost(&self) -> StrategyCost {
        self.cost
    }
}

/// Runs one on-line detection campaign over every mapped tile and charges
/// it: bumps the campaign counter and emits
/// [`Event::DetectionCampaignStart`], detects under a `detect` span (nested
/// in the caller's phase span), adds the campaign's cycles, pulses and
/// untested groups to the flow counters and to `cost`, scores the
/// predictions against ground truth into [`Event::DetectionCampaignEnd`],
/// and emits the campaign's detection [`Event::WritePulseBatch`].
///
/// Returns the detector (for the caller's spare verify campaigns) and the
/// per-layer detections.
///
/// # Errors
///
/// Detection failures propagate from [`MappedNetwork::detect`].
pub fn run_detection_campaign(
    ctx: &mut StrategyCtx<'_>,
    cost: &mut StrategyCost,
) -> Result<(OnlineFaultDetector, Vec<LayerDetection>), FttError> {
    let recorder = ctx.metrics.recorder().clone();
    ctx.metrics.detection_campaigns.inc();
    let campaign = ctx.metrics.detection_campaigns.get();
    recorder.emit(Event::DetectionCampaignStart { campaign });

    let detector = OnlineFaultDetector::new(ctx.flow.detector).with_recorder(&recorder);
    let detections = {
        let _detect_span = recorder.span("detect");
        ctx.mapped.detect(&detector)?
    };
    let (cycles, writes, untested, flagged) = sum_detections(&detections);
    ctx.metrics.detection_cycles.add(cycles);
    ctx.metrics.detection_writes.add(writes);
    ctx.metrics.detection_untested_groups.add(untested);
    cost.absorb(StrategyCost {
        cycles,
        write_pulses: writes,
    });
    recorder.set_write_pulses(ctx.mapped.total_write_pulses());

    // The simulator knows the ground-truth fault maps, so every campaign
    // is scored with a full confusion matrix (summed over all mapped
    // layers) — the paper's detection-accuracy experiments fall out of the
    // event stream for free.
    let confusion = score_against_ground_truth(ctx.mapped, &detections);
    recorder.emit(Event::DetectionCampaignEnd {
        campaign,
        flagged_cells: flagged,
        cycles,
        write_pulses: writes,
        untested_groups: untested,
        confusion: Some(confusion),
    });
    if writes > 0 {
        recorder.emit(Event::WritePulseBatch {
            pulses: writes,
            phase: WritePhase::Detection,
        });
    }
    Ok((detector, detections))
}

/// Sums `(cycles, write_pulses, untested_groups, flagged_cells)` over a
/// campaign's per-layer detections — the totals every campaign-running
/// strategy reports and charges.
pub fn sum_detections(detections: &[LayerDetection]) -> (u64, u64, u64, u64) {
    let (mut cycles, mut writes, mut untested, mut flagged) = (0u64, 0u64, 0u64, 0u64);
    for d in detections {
        cycles += d.cycles;
        writes += d.write_pulses;
        untested += d.untested_groups;
        flagged += d.predicted.count_faulty() as u64;
    }
    (cycles, writes, untested, flagged)
}

/// Scores a campaign's predictions against simulator ground truth, summed
/// over all mapped layers.
pub fn score_against_ground_truth(
    mapped: &MappedNetwork,
    detections: &[LayerDetection],
) -> Confusion {
    let truth = mapped.ground_truth();
    let mut confusion = Confusion::default();
    for (t, d) in truth.iter().zip(detections) {
        let r = DetectionReport::evaluate(t, &d.predicted);
        confusion.true_pos += r.tp;
        confusion.false_pos += r.fp;
        confusion.false_neg += r.fn_;
        confusion.true_neg += r.tn;
    }
    confusion
}

/// Merges two prune masks over the same layer geometry (`pruned` is the
/// element-wise OR). Used by the trainer to combine the persistent
/// re-mapping mask with a strategy's per-iteration mask.
///
/// # Errors
///
/// Returns [`FttError::InvalidConfig`] when the masks cover different
/// layers or shapes.
pub fn union_masks(a: &PruneMask, b: &PruneMask) -> Result<PruneMask, FttError> {
    if a.len() != b.len() {
        return Err(FttError::InvalidConfig(format!(
            "mask union over {} vs {} layers",
            a.len(),
            b.len()
        )));
    }
    let mut layers = Vec::with_capacity(a.len());
    for (la, lb) in a.layers().iter().zip(b.layers()) {
        if la.layer_index != lb.layer_index || la.shape != lb.shape {
            return Err(FttError::InvalidConfig(format!(
                "mask union shape mismatch at layer {}",
                la.layer_index
            )));
        }
        let pruned = la
            .pruned
            .iter()
            .zip(&lb.pruned)
            .map(|(&x, &y)| x || y)
            .collect();
        layers.push(LayerMask {
            layer_index: la.layer_index,
            shape: la.shape,
            pruned,
        });
    }
    Ok(PruneMask::from_layers(layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_ids_are_the_known_ids() {
        let selects = [
            StrategySelect::DetectRemap,
            StrategySelect::NoOp,
            StrategySelect::DropConnect { rate: 0.1, seed: 1 },
            StrategySelect::RedundantColumn {
                retire_density: 0.2,
                interval: 50,
            },
        ];
        for (s, id) in selects.iter().zip(KNOWN_STRATEGY_IDS) {
            assert_eq!(s.id(), id);
            assert!(is_known_strategy_id(s.id()));
        }
        assert!(!is_known_strategy_id("time_travel"));
    }

    #[test]
    fn union_masks_ors_elementwise() {
        let la = LayerMask {
            layer_index: 0,
            shape: (1, 3),
            pruned: vec![true, false, false],
        };
        let lb = LayerMask {
            layer_index: 0,
            shape: (1, 3),
            pruned: vec![false, true, false],
        };
        let u = union_masks(
            &PruneMask::from_layers(vec![la.clone()]),
            &PruneMask::from_layers(vec![lb]),
        )
        .unwrap();
        assert_eq!(u.layer(0).pruned, vec![true, true, false]);
        // Shape mismatch is rejected.
        let wrong = LayerMask {
            layer_index: 0,
            shape: (3, 1),
            pruned: vec![false; 3],
        };
        assert!(union_masks(
            &PruneMask::from_layers(vec![la]),
            &PruneMask::from_layers(vec![wrong])
        )
        .is_err());
    }

    #[test]
    fn noop_has_zero_cost_and_default_hooks() {
        let s = NoOp;
        assert_eq!(s.id(), "noop");
        assert_eq!(s.cost(), StrategyCost::default());
    }
}
