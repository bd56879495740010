//! Deterministic strategy-comparison arena (DESIGN.md §14).
//!
//! The arena answers the question the closed-loop reproduction alone
//! cannot: *compared to what?* It runs every registered fault-tolerance
//! strategy under **identical** seeded fault processes and ranks them in a
//! league table of accuracy, energy, write pulses, tiles retired, and
//! wall-free logical duration.
//!
//! # Fairness rules
//!
//! * **Shared chip state.** For each fault density one *reference* trainer
//!   is built (under the `noop` strategy) and its complete state is
//!   captured through the `ftt-snapshot` codec. Every contender decodes
//!   that same byte string, rebinds the capture's strategy id to itself,
//!   and restores — so all contenders start from the bit-identical chip:
//!   same fault map, same cell endurance draws, same RNG stream positions.
//! * **Shared flow.** All contenders train with the same flow config
//!   (schedule, batch, thresholds, detection cadence); only the strategy
//!   selection differs.
//! * **Per-contender RNG salting.** Strategy-private randomness (the
//!   drop-connect masks) is salted with an arena-level constant distinct
//!   from the chip seed, so no contender's choices correlate with the
//!   fault process it is being judged against.
//! * **Cost-accounting parity.** Every strategy charges its reads into
//!   `flow_detection_cycles_total`/`flow_strategy_cycles_total` and its
//!   pulses into the chip's write counters, so the energy column prices
//!   all contenders with the same meter.
//!
//! The league table is sorted (density ascending, then rank) and rendered
//! with the telemetry subsystem's shortest-round-trip float formatting —
//! byte-identical at any `RRAM_FTT_THREADS` setting.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::error::FttError;
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::strategy::StrategySelect;
use nn::data::Dataset;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{Event, JsonObject, Recorder};

/// Salt mixed into strategy-private RNG seeds (drop-connect masks) so they
/// never alias the chip construction stream.
const STRATEGY_SEED_SALT: u64 = 0xa11e_57a7_e6fa_u64;

/// One arena sweep: which strategies race, under which fault densities,
/// for how long.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Base seed: chip construction, dataset synthesis, and (salted)
    /// strategy randomness all derive from it.
    pub seed: u64,
    /// Fault densities swept (each is one shared-chip heat).
    pub densities: Vec<f64>,
    /// Training iterations per contender run.
    pub iterations: u64,
    /// The contenders.
    pub strategies: Vec<StrategySelect>,
    /// Synthetic dataset training samples.
    pub train_samples: usize,
    /// Synthetic dataset test samples.
    pub test_samples: usize,
    /// Iterations between detection campaigns (strategies that campaign).
    pub detection_interval: u64,
    /// Spare tiles per chip (redundant-column raw material).
    pub spare_tiles: usize,
    /// Crossbar tile size.
    pub tile_size: usize,
}

impl ArenaConfig {
    /// The reference sweep: all four strategies over three fault densities,
    /// long enough for the contenders to actually separate.
    pub fn reference() -> Self {
        Self {
            seed: 17,
            densities: vec![0.05, 0.15, 0.3],
            iterations: 200,
            strategies: Self::all_strategies(17),
            train_samples: 240,
            test_samples: 60,
            detection_interval: 25,
            spare_tiles: 8,
            tile_size: 64,
        }
    }

    /// A reduced sweep for CI and the benchmark: same shape, far fewer
    /// iterations and samples (rankings are not meaningful, byte-identity
    /// still is).
    pub fn quick() -> Self {
        Self {
            iterations: 16,
            train_samples: 60,
            test_samples: 20,
            detection_interval: 8,
            ..Self::reference()
        }
    }

    /// The four registered strategies, with arena-salted private seeds.
    pub fn all_strategies(seed: u64) -> Vec<StrategySelect> {
        vec![
            StrategySelect::DetectRemap,
            StrategySelect::NoOp,
            StrategySelect::DropConnect {
                rate: 0.15,
                seed: seed ^ STRATEGY_SEED_SALT,
            },
            StrategySelect::RedundantColumn {
                retire_density: 0.25,
                interval: 8,
            },
        ]
    }
}

/// One contender's result under one fault density.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueRow {
    /// Stable strategy id.
    pub strategy: String,
    /// Fault density of the heat.
    pub fault_density: f64,
    /// 1-based rank within the heat (accuracy desc, energy asc, id asc).
    pub rank: u64,
    /// Final test accuracy through the faulty hardware.
    pub final_accuracy: f64,
    /// Peak test accuracy over the run.
    pub peak_accuracy: f64,
    /// Estimated run energy in picojoules (typical RRAM energy model).
    pub energy_pj: f64,
    /// Total hardware write pulses (training + detection + reprogram).
    pub write_pulses: u64,
    /// Tiles retired (redundant-column / sparing activity).
    pub tiles_retired: u64,
    /// Wall-free logical duration: MVM cell ops + detection and strategy
    /// cycles + write pulses — the run's total hardware occupancy.
    pub logical_cycles: u64,
}

impl LeagueRow {
    /// One sorted-JSON league line (without trailing newline).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_f64("fault_density", self.fault_density)
            .field_u64("rank", self.rank)
            .field_str("strategy", &self.strategy)
            .field_f64("final_accuracy", self.final_accuracy)
            .field_f64("peak_accuracy", self.peak_accuracy)
            .field_f64("energy_pj", self.energy_pj)
            .field_u64("write_pulses", self.write_pulses)
            .field_u64("tiles_retired", self.tiles_retired)
            .field_u64("logical_cycles", self.logical_cycles)
            .finish()
    }
}

/// The finished sweep: sorted rows plus the arena's own event trace.
#[derive(Debug)]
pub struct ArenaReport {
    /// League rows, sorted by density ascending then rank ascending.
    pub rows: Vec<LeagueRow>,
    /// JSONL view of the arena recorder's event stream
    /// (`strategy_selected` / `arena_run` lines).
    pub trace: String,
}

impl ArenaReport {
    /// The sorted league table as JSON Lines — the machine artifact CI
    /// byte-compares across thread budgets.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }

    /// The human league table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "density  rank  strategy          final%   peak%    energy_pJ      pulses    retired  cycles\n",
        );
        let mut last_density = f64::NAN;
        for r in &self.rows {
            if r.fault_density != last_density {
                if !last_density.is_nan() {
                    out.push('\n');
                }
                last_density = r.fault_density;
            }
            out.push_str(&format!(
                "{:<8.2} {:<5} {:<17} {:<8.2} {:<8.2} {:<14.1} {:<11} {:<8} {}\n",
                r.fault_density,
                r.rank,
                r.strategy,
                r.final_accuracy * 100.0,
                r.peak_accuracy * 100.0,
                r.energy_pj,
                r.write_pulses,
                r.tiles_retired,
                r.logical_cycles,
            ));
        }
        out
    }
}

/// The shared MLP every contender trains (784×32×10, the test workhorse).
fn arena_net(seed: u64) -> Network {
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 32, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(32, 10, &mut rng));
    net
}

fn arena_mapping(config: &ArenaConfig, density: f64) -> MappingConfig {
    MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(density)
        .with_seed(config.seed)
        .with_spare_tiles(config.spare_tiles)
        .with_tile_size(config.tile_size)
}

fn arena_flow(config: &ArenaConfig, select: StrategySelect) -> FlowConfig {
    FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(config.detection_interval)
        .with_detection_warmup(0)
        .with_eval_interval(config.detection_interval)
        .with_strategy_select(select)
}

/// Rough scalar-op cost of one contender's run, for `par`'s work gate:
/// each iteration touches every weight a few times (load, forward,
/// backward, update) and each evaluation runs the test set forward.
fn contender_ops(config: &ArenaConfig) -> usize {
    let weights = arena_net(config.seed).weight_count();
    let iterations = config.iterations as usize;
    let evals = iterations / (config.detection_interval as usize).max(1) + 1;
    weights * (8 * iterations + 2 * config.test_samples * evals)
}

/// Races one contender from a heat's reference capture: decode, rebind the
/// strategy id, restore, train, and score.
fn run_contender(
    config: &ArenaConfig,
    data: &Dataset,
    density: f64,
    reference: &[u8],
    select: StrategySelect,
) -> Result<LeagueRow, FttError> {
    // Rebind the reference capture to this contender. The id field is the
    // snapshot's only strategy-dependent datum at iteration zero, so this
    // is exactly "same chip, different policy".
    let mut state = ftt_snapshot::decode(reference)
        .map_err(|e| FttError::InvalidConfig(format!("arena snapshot: {e}")))?;
    state.strategy_id = select.id().to_string();
    let mut trainer = FaultTolerantTrainer::restore_state_with(
        arena_net(config.seed),
        arena_mapping(config, density),
        arena_flow(config, select),
        Recorder::deterministic(),
        &state,
        ftt_strategy::build(&select),
    )?;
    trainer.train(data, config.iterations)?;

    let stats = trainer.stats();
    let curve = trainer.curve();
    let energy_pj = stats
        .energy(&rram::energy::EnergyModel::typical())
        .total_pj();
    let write_pulses = trainer.mapped().total_write_pulses();
    Ok(LeagueRow {
        strategy: select.id().to_string(),
        fault_density: density,
        rank: 0, // assigned by the heat
        final_accuracy: curve.final_accuracy(),
        peak_accuracy: curve.peak_accuracy(),
        energy_pj,
        write_pulses,
        tiles_retired: stats.tiles_retired,
        logical_cycles: stats.mvm_cell_ops
            + stats.detection_cycles
            + stats.strategy_cycles
            + write_pulses,
    })
}

/// Runs the full sweep: for each density, snapshot one reference chip and
/// race every contender from that bit-identical starting state.
///
/// Contenders are independent, so all density × strategy runs go through
/// one `par` fan-out; each builds its own trainer, strategy and recorder
/// on its worker. The arena's events, metrics and ranks are then emitted
/// in sweep order, so the report is byte-identical at any thread budget.
///
/// # Errors
///
/// Propagates configuration/hardware errors from the trainers and codec
/// errors from the snapshot round trip; with several failures, the first
/// in sweep order.
pub fn run(config: &ArenaConfig) -> Result<ArenaReport, FttError> {
    race(config, run_contender)
}

/// [`run`] with the per-contender race passed in, so tests can plant
/// contender failures (the contenders of a heat share one chip and flow,
/// so no public config fails only some of them).
fn race<C>(config: &ArenaConfig, contend: C) -> Result<ArenaReport, FttError>
where
    C: Fn(&ArenaConfig, &Dataset, f64, &[u8], StrategySelect) -> Result<LeagueRow, FttError> + Sync,
{
    let data: Dataset =
        SyntheticDataset::mnist_like(config.train_samples, config.test_samples, config.seed);

    // One reference chip per density, captured through the snapshot codec.
    // The reference trainer never trains — it exists to run the mapping
    // (fault injection, endurance draws) exactly once.
    let references = config
        .densities
        .iter()
        .map(|&density| {
            let mut reference = FaultTolerantTrainer::with_recorder(
                arena_net(config.seed),
                arena_mapping(config, density),
                arena_flow(config, StrategySelect::NoOp),
                Recorder::deterministic(),
            )?;
            Ok(ftt_snapshot::encode(&reference.export_state()))
        })
        .collect::<Result<Vec<_>, FttError>>()?;

    let per_heat = config.strategies.len();
    let results = par::map_indices(
        config.densities.len() * per_heat,
        contender_ops(config),
        |k| {
            let (heat, contender) = (k / per_heat, k % per_heat);
            contend(
                config,
                &data,
                config.densities[heat],
                &references[heat],
                config.strategies[contender],
            )
        },
    );

    let recorder = Recorder::deterministic();
    let sink = obs::JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut results = results.into_iter();
    let mut rows = Vec::new();
    for &density in &config.densities {
        let mut heat = Vec::with_capacity(per_heat);
        for (select, result) in config.strategies.iter().zip(results.by_ref()) {
            let id = select.id();
            recorder
                .counter_labeled("arena_runs_total", &[("strategy", id)])
                .inc();
            recorder.emit(Event::StrategySelected {
                strategy: id.to_string(),
                fault_density: density,
            });
            let row = result?;
            recorder
                .gauge_labeled("arena_final_accuracy", &[("strategy", id)])
                .set(row.final_accuracy);
            recorder.emit(Event::ArenaRun {
                strategy: id.to_string(),
                fault_density: density,
                accuracy_ppm: (row.final_accuracy * 1e6).round() as u64,
                write_pulses: row.write_pulses,
            });
            heat.push(row);
        }

        // Rank the heat: accuracy desc, energy asc, id asc — a total order,
        // so degenerate heats (all-faulty chip, zero density) still rank
        // deterministically.
        heat.sort_by(|a, b| {
            b.final_accuracy
                .total_cmp(&a.final_accuracy)
                .then(a.energy_pj.total_cmp(&b.energy_pj))
                .then(a.strategy.cmp(&b.strategy))
        });
        for (i, row) in heat.iter_mut().enumerate() {
            row.rank = (i + 1) as u64;
        }
        rows.extend(heat);
    }

    Ok(ArenaReport {
        rows,
        trace: view.contents(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ArenaConfig {
        ArenaConfig {
            iterations: 6,
            densities: vec![0.1],
            ..ArenaConfig::quick()
        }
    }

    #[test]
    fn arena_ranks_every_contender_once() {
        let report = run(&tiny()).unwrap();
        assert_eq!(report.rows.len(), 4);
        let ranks: Vec<u64> = report.rows.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![1, 2, 3, 4]);
        // Every registered strategy appears exactly once.
        let mut ids: Vec<&str> = report.rows.iter().map(|r| r.strategy.as_str()).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec!["detect_remap", "drop_connect", "noop", "redundant_column"]
        );
        // The arena trace recorded a selection and a result per contender.
        assert_eq!(report.trace.matches("strategy_selected").count(), 4);
        assert_eq!(report.trace.matches("arena_run").count(), 4);
    }

    /// Runs `f` at a forced thread budget. Serialized, so a parallel test
    /// cannot change the budget mid-run.
    fn at_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        static BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
        par::set_thread_count(threads);
        let r = f();
        par::set_thread_count(0);
        r
    }

    #[test]
    fn league_table_is_thread_budget_invariant() {
        // tiny()'s contenders clear par's work gate, so budgets 4 and the
        // cap race them on four workers.
        assert!(contender_ops(&tiny()) >= par::PAR_MIN_WORK);
        let r1 = at_budget(1, || run(&tiny())).unwrap();
        for budget in [4, par::MAX_THREADS] {
            let r = at_budget(budget, || run(&tiny())).unwrap();
            assert_eq!(r1.rows, r.rows, "budget {budget}");
            assert_eq!(r1.to_jsonl(), r.to_jsonl(), "budget {budget}");
            assert_eq!(r1.trace, r.trace, "budget {budget}");
        }
    }

    #[test]
    fn first_contender_failure_in_sweep_order_wins_at_any_budget() {
        // Two heats of four contenders: at budget 4 each worker races two.
        // Failures are planted on contender 3 (heat 0, second worker) and
        // contender 4 (heat 1, third worker); the merge must report
        // contender 3's at every budget.
        let config = ArenaConfig {
            densities: vec![0.1, 0.2],
            ..tiny()
        };
        let planted =
            |c: &ArenaConfig, d: &Dataset, density: f64, r: &[u8], s: StrategySelect| match (
                density < 0.15,
                s.id(),
            ) {
                (true, "redundant_column") => Err(FttError::InvalidConfig("heat 0".into())),
                (false, "detect_remap") => Err(FttError::InvalidConfig("heat 1".into())),
                _ => run_contender(c, d, density, r, s),
            };
        for threads in [1, 4] {
            let err = at_budget(threads, || race(&config, planted)).unwrap_err();
            assert_eq!(
                err,
                FttError::InvalidConfig("heat 0".into()),
                "budget {threads}"
            );
        }
    }

    #[test]
    fn jsonl_and_table_render_every_row() {
        let report = run(&tiny()).unwrap();
        assert_eq!(report.to_jsonl().lines().count(), 4);
        let table = report.table();
        for row in &report.rows {
            assert!(table.contains(&row.strategy));
        }
    }
}
