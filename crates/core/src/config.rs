//! Configuration types for crossbar mapping and the training flow.

use faultdet::detector::DetectorConfig;
use nn::optimizer::LrSchedule;
use rram::endurance::EnduranceModel;
use rram::spatial::SpatialDistribution;
use rram::variation::WriteVariation;

use crate::remap::{CostModel, RemapAlgorithm};
use crate::strategy::StrategySelect;
use crate::threshold::ThresholdPolicy;

/// Which weight layers are mapped onto RRAM crossbars.
///
/// The paper evaluates both options (§6.4): the *entire-CNN case* maps every
/// layer, the *FC-only case* maps just the fully-connected classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingScope {
    /// Map every weight-carrying layer onto RCS.
    EntireNetwork,
    /// Map only `dense` layers onto RCS; convolutions run in software.
    FcOnly,
    /// Map an explicit set of weight-layer indices (in weight-layer order).
    WeightLayers(Vec<usize>),
}

/// How signed weights are coded onto cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightCoding {
    /// One cell per weight: the magnitude is the conductance, the sign
    /// lives in the digital periphery. This is the granularity the paper's
    /// re-mapping reasons at (SA0 ↔ weight 0) and the default.
    #[default]
    Unipolar,
    /// Two cells per weight on paired arrays: `w ∝ g⁺ − g⁻`, programmed
    /// one-sidedly (the inactive polarity is driven to minimum). Twice the
    /// cells, twice the write wear per update — but the physical scheme
    /// most RCS designs use.
    Differential,
}

/// How a network is placed onto simulated RRAM hardware.
#[derive(Debug, Clone)]
pub struct MappingConfig {
    /// Which layers go on chip.
    pub scope: MappingScope,
    /// Signed-weight coding scheme.
    pub coding: WeightCoding,
    /// Maximum crossbar dimension; larger matrices are tiled.
    pub tile_size: usize,
    /// Per-cell endurance model.
    pub endurance: EnduranceModel,
    /// Write-variation (soft fault) model.
    pub variation: WriteVariation,
    /// Fabrication-fault fraction injected at build time.
    pub initial_fault_fraction: f64,
    /// Spatial distribution of the fabrication faults.
    pub fault_distribution: SpatialDistribution,
    /// Probability that an injected fabrication fault is SA0.
    pub initial_sa0_prob: f64,
    /// RNG seed (crossbar construction, endurance sampling, wear-out kinds).
    pub seed: u64,
    /// Cold spare tiles the chip holds for substitution (0 disables the
    /// spare pool).
    pub spare_tiles: usize,
    /// Retire a tile and attach a spare when its *predicted* fault density
    /// crosses this threshold (`None` disables tile sparing).
    pub retire_fault_density: Option<f64>,
}

impl MappingConfig {
    /// A mapping with no initial faults, unlimited endurance and no
    /// variation — the "ideal case" hardware.
    pub fn new(scope: MappingScope) -> Self {
        Self {
            scope,
            coding: WeightCoding::Unipolar,
            tile_size: 256,
            endurance: EnduranceModel::unlimited(),
            variation: WriteVariation::none(),
            initial_fault_fraction: 0.0,
            fault_distribution: SpatialDistribution::Uniform,
            initial_sa0_prob: 0.5,
            seed: 0,
            spare_tiles: 0,
            retire_fault_density: None,
        }
    }

    /// Sets the endurance model.
    pub fn with_endurance(mut self, endurance: EnduranceModel) -> Self {
        self.endurance = endurance;
        self
    }

    /// Sets the write-variation model.
    pub fn with_variation(mut self, variation: WriteVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Sets the fabrication-fault fraction (the paper's defect rate is 10 %).
    pub fn with_initial_fault_fraction(mut self, fraction: f64) -> Self {
        self.initial_fault_fraction = fraction;
        self
    }

    /// Sets the spatial distribution of fabrication faults.
    pub fn with_fault_distribution(mut self, distribution: SpatialDistribution) -> Self {
        self.fault_distribution = distribution;
        self
    }

    /// Sets the SA0 share of injected fabrication faults.
    pub fn with_initial_sa0_prob(mut self, prob: f64) -> Self {
        self.initial_sa0_prob = prob;
        self
    }

    /// Sets the signed-weight coding scheme.
    pub fn with_coding(mut self, coding: WeightCoding) -> Self {
        self.coding = coding;
        self
    }

    /// Sets the crossbar tile size.
    pub fn with_tile_size(mut self, tile_size: usize) -> Self {
        self.tile_size = tile_size;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cold-spare pool size.
    pub fn with_spare_tiles(mut self, spares: usize) -> Self {
        self.spare_tiles = spares;
        self
    }

    /// Enables tile retirement at the given predicted fault density.
    pub fn with_retire_fault_density(mut self, density: f64) -> Self {
        self.retire_fault_density = Some(density);
        self
    }
}

/// Configuration of the re-mapping phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapConfig {
    /// Search algorithm.
    pub algorithm: RemapAlgorithm,
    /// Cost model (the paper's `Dist(P, F)` or the extended variant).
    pub cost: CostModel,
    /// Search budget (swap attempts, or GA generations × population).
    pub iterations: usize,
    /// RNG seed for the search.
    pub seed: u64,
}

impl Default for RemapConfig {
    fn default() -> Self {
        Self {
            algorithm: RemapAlgorithm::SwapHillClimb,
            cost: CostModel::PaperDist,
            iterations: 2000,
            seed: 0,
        }
    }
}

/// Configuration of the complete Fig. 2 training flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Learning-rate schedule ("first large, gradually decreased").
    pub lr: LrSchedule,
    /// Threshold-training policy (§5.1).
    pub threshold: ThresholdPolicy,
    /// Iterations between detection + re-mapping phases; `None` disables
    /// the periodic phase entirely.
    pub detection_interval: Option<u64>,
    /// Iterations before the *first* detection + re-mapping phase. Pruning
    /// keys off weight magnitudes, which are meaningless until training has
    /// settled, so the flow warms up first (the paper's Fig. 7(b) recovery
    /// likewise starts after roughly a quarter of the training budget).
    pub detection_warmup: u64,
    /// Detector configuration used during the detection phase.
    pub detector: DetectorConfig,
    /// Re-mapping configuration; `None` disables re-mapping (detection
    /// alone still refreshes the fault distribution for reporting).
    pub remap: Option<RemapConfig>,
    /// Iterations between accuracy evaluations recorded on the curve.
    pub eval_interval: u64,
    /// Data-shuffling seed.
    pub data_seed: u64,
    /// Which fault-tolerance strategy drives the run (see
    /// [`crate::strategy`]). The built-in `DetectRemap`/`NoOp` selections
    /// are constructed by the trainer directly; `DropConnect` and
    /// `RedundantColumn` live in the `ftt-strategy` crate and require
    /// [`FaultTolerantTrainer::with_strategy`](crate::flow::FaultTolerantTrainer::with_strategy).
    pub strategy: StrategySelect,
}

impl FlowConfig {
    /// The *original* on-line training method: no threshold, no detection,
    /// no re-mapping — the paper's degraded baseline.
    pub fn original() -> Self {
        Self {
            lr: LrSchedule::step_decay(0.1, 0.7, 400),
            threshold: ThresholdPolicy::None,
            detection_interval: None,
            detection_warmup: 0,
            // Built literally so this constructor is infallible: the fields
            // are the paper's defaults and `test_size` is statically
            // non-zero, so no validation can fail.
            detector: DetectorConfig {
                test_size: 8,
                modulo_divisor: 16,
                mode: faultdet::detector::TestMode::default_selected(),
            },
            remap: None,
            eval_interval: 50,
            data_seed: 0,
            strategy: StrategySelect::DetectRemap,
        }
    }

    /// Threshold training only (the grey curve of Fig. 7).
    pub fn threshold_only() -> Self {
        Self {
            threshold: ThresholdPolicy::paper_default(),
            ..Self::original()
        }
    }

    /// The entire fault-tolerant flow: threshold training + periodic
    /// detection + re-mapping (the yellow curve of Fig. 7).
    pub fn fault_tolerant() -> Self {
        Self {
            threshold: ThresholdPolicy::paper_default(),
            detection_interval: Some(200),
            remap: Some(RemapConfig::default()),
            ..Self::original()
        }
    }

    /// Sets the learning-rate schedule.
    pub fn with_lr(mut self, lr: LrSchedule) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the detection interval (enables the periodic phase).
    pub fn with_detection_interval(mut self, interval: u64) -> Self {
        self.detection_interval = Some(interval);
        self
    }

    /// Sets the warm-up before the first detection phase.
    pub fn with_detection_warmup(mut self, warmup: u64) -> Self {
        self.detection_warmup = warmup;
        self
    }

    /// Sets the evaluation interval.
    pub fn with_eval_interval(mut self, interval: u64) -> Self {
        self.eval_interval = interval;
        self
    }

    /// Sets the threshold policy.
    pub fn with_threshold(mut self, policy: ThresholdPolicy) -> Self {
        self.threshold = policy;
        self
    }

    /// Selects the fault-tolerance strategy.
    pub fn with_strategy_select(mut self, strategy: StrategySelect) -> Self {
        self.strategy = strategy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let orig = FlowConfig::original();
        assert_eq!(orig.threshold, ThresholdPolicy::None);
        assert!(orig.detection_interval.is_none());
        assert!(orig.remap.is_none());

        let thr = FlowConfig::threshold_only();
        assert_ne!(thr.threshold, ThresholdPolicy::None);
        assert!(thr.detection_interval.is_none());

        let ft = FlowConfig::fault_tolerant();
        assert_ne!(ft.threshold, ThresholdPolicy::None);
        assert!(ft.detection_interval.is_some());
        assert!(ft.remap.is_some());
    }

    #[test]
    fn mapping_builder_chains() {
        let m = MappingConfig::new(MappingScope::FcOnly)
            .with_initial_fault_fraction(0.5)
            .with_tile_size(128)
            .with_seed(9);
        assert_eq!(m.scope, MappingScope::FcOnly);
        assert_eq!(m.initial_fault_fraction, 0.5);
        assert_eq!(m.tile_size, 128);
        assert_eq!(m.seed, 9);
    }
}
