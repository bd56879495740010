//! Pluggable fault-tolerance strategies (DESIGN.md §14).
//!
//! The trait and its built-in implementations — [`DetectRemap`] (the
//! paper's closed loop) and [`NoOp`] (the unprotected baseline) — live in
//! [`ftt_core::strategy`] and are re-exported here unchanged. This crate
//! adds the two external contenders from the literature:
//!
//! * [`DropConnect`] — stochastic connection masking during training
//!   (after arXiv 2404.15498): each iteration a seeded Bernoulli mask
//!   drops a fraction of the mapped connections from the forward pass and
//!   freezes their updates, spreading write wear and regularizing the
//!   network against stuck cells without any detection hardware.
//! * [`RedundantColumn`] — zero-space redundant-column correction (after
//!   arXiv 2401.11664), mapped onto the chip's spare-tile machinery: a
//!   lightweight periodic (or fault-event-driven) campaign retires column
//!   groups whose predicted fault density crossed a threshold and swaps in
//!   screened spares, with no pruning and no re-mapping search.
//!
//! [`build`] constructs any of the four from a
//! [`StrategySelect`] — the factory the arena and other harnesses use.
//!
//! # Fairness and accounting
//!
//! Both contenders follow the cost contract of [`ftt_core::strategy`]:
//! campaign read cycles are charged into `flow_detection_cycles_total`,
//! strategy-private overhead (mask generation, spare verify reads) into
//! `flow_strategy_cycles_total`, and every pulse they issue is visible in
//! `total_write_pulses` — so the arena's energy column prices all four
//! strategies with the same meter. Per-iteration randomness is drawn from
//! `sim_rng(seed ^ iteration)` on the logical clock, never from thread
//! state, so traces stay byte-identical at any `RRAM_FTT_THREADS`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use nn::pruning::{LayerMask, PruneMask};
use rand::Rng;
use rram::rng::sim_rng;

use ftt_core::error::FttError;

pub use ftt_core::strategy::{
    is_known_strategy_id, run_detection_campaign, run_sparing_pass, score_against_ground_truth,
    sum_detections, union_masks, DetectRemap, FaultStrategy, NoOp, StrategyCost, StrategyCtx,
    StrategySelect, KNOWN_STRATEGY_IDS,
};

/// Constructs the strategy a [`StrategySelect`] names — all four
/// implementations, unlike `ftt-core`'s constructor which only knows the
/// built-in two.
pub fn build(select: &StrategySelect) -> Box<dyn FaultStrategy> {
    match select {
        StrategySelect::DetectRemap => Box::new(DetectRemap::new()),
        StrategySelect::NoOp => Box::new(NoOp),
        StrategySelect::DropConnect { rate, seed } => Box::new(DropConnect::new(*rate, *seed)),
        StrategySelect::RedundantColumn {
            retire_density,
            interval,
        } => Box::new(RedundantColumn::new(*retire_density, *interval)),
    }
}

/// Stochastic connection masking during training (after arXiv 2404.15498).
///
/// Every iteration, each mapped connection is independently dropped with
/// probability `rate`: zeroed in the software view before the forward pass
/// and frozen through the threshold update. The mask is drawn from
/// `sim_rng(seed ^ iteration)` — the logical clock is the only source of
/// variation, so a seeded run is deterministic and resumable.
///
/// Mask generation is charged at one strategy cycle per mapped cell per
/// iteration (`flow_strategy_cycles_total`), the cost of streaming the
/// mask through the periphery.
#[derive(Debug, Clone, Copy)]
pub struct DropConnect {
    rate: f64,
    seed: u64,
    cost: StrategyCost,
}

impl DropConnect {
    /// Creates a drop-connect strategy dropping `rate` of the connections
    /// each iteration (clamped to `[0, 1]`; NaN drops nothing).
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            // `clamp` passes NaN through, and a NaN rate would reach
            // `gen_bool`'s range assert on the first masked iteration.
            rate: if rate.is_nan() {
                0.0
            } else {
                rate.clamp(0.0, 1.0)
            },
            seed,
            cost: StrategyCost::default(),
        }
    }

    /// The per-iteration drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl FaultStrategy for DropConnect {
    fn id(&self) -> &'static str {
        "drop_connect"
    }

    fn on_pre_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        // One RNG stream per iteration, salted on the logical clock; the
        // multiplier guards against `seed ^ iteration` collisions between
        // nearby seeds.
        let mut rng = sim_rng(self.seed ^ ctx.iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut layers = Vec::with_capacity(ctx.mapped.layers().len());
        let mut cells = 0u64;
        for l in ctx.mapped.layers() {
            let n = l.rows * l.cols;
            cells += n as u64;
            let pruned = (0..n).map(|_| rng.gen_bool(self.rate)).collect();
            layers.push(LayerMask {
                layer_index: l.layer_index,
                shape: (l.rows, l.cols),
                pruned,
            });
        }
        *ctx.iteration_mask = Some(PruneMask::from_layers(layers));
        ctx.metrics.strategy_cycles.add(cells);
        self.cost.absorb(StrategyCost {
            cycles: cells,
            write_pulses: 0,
        });
        Ok(())
    }

    fn cost(&self) -> StrategyCost {
        self.cost
    }
}

/// Zero-space redundant-column correction (after arXiv 2401.11664).
///
/// Instead of pruning and re-mapping, this strategy keeps the network
/// untouched and repairs the array itself: a periodic campaign detects
/// faults, retires every column group (crossbar tile) whose predicted
/// fault density crossed `retire_density`, and swaps in screened spares
/// from the chip's cold pool. A wear-fault event between campaigns arms an
/// early campaign at half the configured interval.
///
/// Detection reads are charged into `flow_detection_cycles_total` exactly
/// like the closed loop's campaigns; the spare *verify* reads — the
/// strategy's own overhead — go to `flow_strategy_cycles_total`, so the
/// arena's energy meter sees them too.
#[derive(Debug, Clone, Copy)]
pub struct RedundantColumn {
    retire_density: f64,
    interval: u64,
    last_campaign: u64,
    pending: bool,
    cost: StrategyCost,
}

impl RedundantColumn {
    /// Creates a redundant-column strategy retiring tiles at the given
    /// predicted fault density, campaigning every `interval` iterations.
    pub fn new(retire_density: f64, interval: u64) -> Self {
        Self {
            retire_density,
            interval,
            last_campaign: 0,
            pending: false,
            cost: StrategyCost::default(),
        }
    }

    fn campaign_due(&self, iteration: u64) -> bool {
        let periodic = self.interval > 0 && iteration.is_multiple_of(self.interval);
        let armed = self.pending && iteration >= self.last_campaign + (self.interval / 2).max(1);
        periodic || armed
    }

    /// Detect, then retire-and-substitute over-threshold column groups.
    fn correction_campaign(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let recorder = ctx.metrics.recorder().clone();
        let _phase_span = recorder.span("redundant_column_campaign");
        let (detector, mut detections) = run_detection_campaign(ctx, &mut self.cost)?;

        // The correction itself: retire over-threshold column groups and
        // attach screened spares, at this strategy's own threshold (the
        // mapping config's `retire_fault_density` is irrelevant here).
        // Verify reads are strategy-private overhead; verify writes are
        // detection-phase pulses like the closed loop's.
        run_sparing_pass(
            ctx,
            &mut self.cost,
            self.retire_density,
            |m| &m.strategy_cycles,
            &detector,
            &mut detections,
        )
    }
}

impl FaultStrategy for RedundantColumn {
    fn id(&self) -> &'static str {
        "redundant_column"
    }

    fn on_pre_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        if self.campaign_due(ctx.iteration) {
            self.correction_campaign(ctx)?;
            self.last_campaign = ctx.iteration;
            self.pending = false;
        }
        Ok(())
    }

    fn on_fault_event(
        &mut self,
        _ctx: &mut StrategyCtx<'_>,
        _new_faults: u64,
    ) -> Result<(), FttError> {
        self.pending = true;
        Ok(())
    }

    fn cost(&self) -> StrategyCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
    use ftt_core::flow::FaultTolerantTrainer;
    use nn::init::init_rng;
    use nn::network::Network;
    use nn::optimizer::LrSchedule;
    use nn::synth::SyntheticDataset;
    use obs::Recorder;

    fn small_net(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(nn::layers::Dense::new(784, 32, &mut rng));
        net.push(nn::layers::Relu::new());
        net.push(nn::layers::Dense::new(32, 10, &mut rng));
        net
    }

    fn trainer_for(select: StrategySelect, seed: u64) -> FaultTolerantTrainer {
        let mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.1)
            .with_seed(seed)
            .with_spare_tiles(8)
            .with_tile_size(64);
        let flow = FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(10)
            .with_detection_warmup(0)
            .with_eval_interval(10)
            .with_strategy_select(select);
        FaultTolerantTrainer::with_strategy(
            small_net(seed),
            mapping,
            flow,
            Recorder::deterministic(),
            build(&select),
        )
        .unwrap()
    }

    #[test]
    fn build_covers_all_known_ids() {
        let selects = [
            StrategySelect::DetectRemap,
            StrategySelect::NoOp,
            StrategySelect::DropConnect { rate: 0.1, seed: 3 },
            StrategySelect::RedundantColumn {
                retire_density: 0.2,
                interval: 40,
            },
        ];
        for (select, id) in selects.iter().zip(KNOWN_STRATEGY_IDS) {
            assert_eq!(build(select).id(), id);
        }
    }

    #[test]
    fn drop_connect_masks_and_charges_cycles() {
        let data = SyntheticDataset::mnist_like(60, 20, 11);
        let mut t = trainer_for(
            StrategySelect::DropConnect {
                rate: 0.3,
                seed: 11,
            },
            11,
        );
        t.train(&data, 12).unwrap();
        let stats = t.stats();
        // 12 iterations × (784·32 + 32·10) mapped cells.
        assert_eq!(stats.strategy_cycles, 12 * (784 * 32 + 32 * 10));
        assert_eq!(t.strategy().cost().cycles, stats.strategy_cycles);
        // No detection machinery ran.
        assert_eq!(stats.detection_campaigns, 0);
        // The charged cycles price into the energy estimate as reads.
        let energy = stats.energy(&rram::energy::EnergyModel::typical());
        assert!(energy.read_pj > 0.0);
    }

    #[test]
    fn nan_drop_connect_rate_drops_nothing() {
        let data = SyntheticDataset::mnist_like(60, 20, 11);
        let mut t = trainer_for(
            StrategySelect::DropConnect {
                rate: f64::NAN,
                seed: 11,
            },
            11,
        );
        t.train(&data, 4).unwrap();
        assert_eq!(t.stats().strategy_cycles, 0);
        assert_eq!(t.strategy().cost().cycles, 0);
    }

    #[test]
    fn drop_connect_is_deterministic_per_iteration() {
        let data = SyntheticDataset::mnist_like(60, 20, 11);
        let run = || {
            let mut t = trainer_for(
                StrategySelect::DropConnect {
                    rate: 0.3,
                    seed: 11,
                },
                11,
            );
            t.train(&data, 10).unwrap();
            let state = t.export_state();
            (t.stats(), state.params)
        };
        let (s1, p1) = run();
        let (s2, p2) = run();
        assert_eq!(s1, s2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn redundant_column_retires_without_remapping() {
        let data = SyntheticDataset::mnist_like(60, 20, 9);
        let mut t = trainer_for(
            StrategySelect::RedundantColumn {
                retire_density: 0.08,
                interval: 10,
            },
            9,
        );
        t.train(&data, 30).unwrap();
        let stats = t.stats();
        assert!(stats.detection_campaigns >= 3);
        assert!(
            stats.tiles_retired > 0,
            "dense-fault tiles must retire: {stats:?}"
        );
        // Zero-space: no pruning mask, no re-mapping search ever runs.
        assert_eq!(stats.remaps_applied, 0);
        assert_eq!(stats.last_remap_initial_cost, 0);
        // Verify reads landed in the strategy accounting slot.
        assert!(stats.strategy_cycles > 0);
        assert_eq!(
            t.strategy().cost().cycles,
            stats.detection_cycles + stats.strategy_cycles
        );
    }

    #[test]
    fn fault_event_arms_an_early_campaign() {
        let rc = RedundantColumn::new(0.2, 100);
        assert!(rc.campaign_due(100));
        assert!(!rc.campaign_due(73));
        let mut armed = rc;
        armed.pending = true;
        armed.last_campaign = 20;
        assert!(!armed.campaign_due(69));
        assert!(armed.campaign_due(70));
    }

    #[test]
    fn strategy_id_mismatch_is_rejected() {
        let mapping = MappingConfig::new(MappingScope::EntireNetwork).with_seed(1);
        let flow = FlowConfig::fault_tolerant().with_strategy_select(StrategySelect::NoOp);
        let err = FaultTolerantTrainer::with_strategy(
            small_net(1),
            mapping,
            flow,
            Recorder::deterministic(),
            build(&StrategySelect::DropConnect { rate: 0.1, seed: 1 }),
        );
        assert!(err.is_err());
    }
}
