//! Strategy-arena chaos (DESIGN.md §14): the comparison arena under the
//! same hostility the rest of the stack faces.
//!
//! Three invariants, mirroring the arena crate's acceptance gates:
//!
//! 1. The league table *and* the arena event trace are byte-identical at
//!    thread budgets 1, 4, and the cap — the ranking may never depend on
//!    the worker schedule.
//! 2. `DetectRemap` behind the strategy trait is the pre-refactor flow:
//!    the seeded scenario that generated `golden_detect_remap.jsonl`
//!    before the trainer grew lifecycle hooks must still produce that
//!    trace byte-for-byte (re-baselined twice since; see
//!    `GOLDEN_DETECT_REMAP`).
//! 3. Degenerate heats rank deterministically: an all-faulty chip
//!    (density 1.0) and a pristine chip (density 0.0) collapse most of
//!    the ranking signal, so the tie-breaks (energy, then strategy id)
//!    must carry the total order — same seed, same table, twice.

use ftt_arena::{run, ArenaConfig};
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

use crate::{ensure, FamilyReport};

/// The seeded JSONL trace recorded from the monolithic (pre-strategy-trait)
/// trainer, before `detection_phase` moved behind `FaultStrategy`. It was
/// re-baselined twice. First, when every campaign moved onto the tile's
/// persistent store: the lines before campaign 2's `detection_campaign_end`
/// are the original recording, and warm campaigns from there on retest
/// only the cells written since the previous one. Second, when
/// `write_pulse_batch` events stopped repeating the `pulses` key (the
/// clock stamp) for their batch size, which is now `batch_pulses`; no
/// value moved.
const GOLDEN_DETECT_REMAP: &str = include_str!("golden_detect_remap.jsonl");

/// A sweep small enough for the debug-build harness: two heats, four
/// contenders, eight iterations each.
fn small_sweep(seed: u64) -> ArenaConfig {
    ArenaConfig {
        seed,
        densities: vec![0.1, 0.3],
        iterations: 8,
        strategies: ArenaConfig::all_strategies(seed),
        train_samples: 30,
        test_samples: 10,
        detection_interval: 4,
        spare_tiles: 4,
        tile_size: 64,
    }
}

/// Strategy-arena scenario family.
pub fn arena(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("arena");

    // The acceptance gate, as chaos: one sweep, three thread budgets,
    // byte-identical league table and event trace.
    fam.case("league_table_byte_identical_at_budgets_1_4_max", || {
        let sweep_at = |budget: usize| -> Result<(String, String), String> {
            par::set_thread_count(budget);
            let report = run(&small_sweep(seed));
            par::set_thread_count(0);
            let report = report.map_err(|e| format!("budget {budget}: {e}"))?;
            Ok((report.to_jsonl(), report.trace))
        };
        let (jsonl, trace) = sweep_at(1)?;
        ensure(
            jsonl.lines().count() == 8,
            "2 densities x 4 strategies must yield 8 league rows",
        )?;
        for budget in [4usize, par::MAX_THREADS] {
            let (other_jsonl, other_trace) = sweep_at(budget)?;
            ensure(
                other_jsonl == jsonl,
                format!("league table diverges at budget {budget}"),
            )?;
            ensure(
                other_trace == trace,
                format!("arena trace diverges at budget {budget}"),
            )?;
        }
        Ok(())
    });

    // The refactor regression: replaying the exact scenario that produced
    // the committed golden trace — same dataset, net, mapping, flow — must
    // reproduce it byte-for-byte now that detection runs behind the trait.
    fam.case("detect_remap_via_trait_matches_pre_refactor_golden", || {
        let data = SyntheticDataset::mnist_like(40, 10, 7);
        let mut rng = init_rng(7);
        let mut net = Network::new();
        net.push(nn::layers::Dense::new(784, 32, &mut rng));
        net.push(nn::layers::Relu::new());
        net.push(nn::layers::Dense::new(32, 10, &mut rng));
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
        let sink = JsonlSink::new();
        let view = sink.view();
        recorder.add_sink(Box::new(sink));
        let strategy = ftt_strategy::build(&ftt_core::strategy::StrategySelect::DetectRemap);
        let mut trainer =
            FaultTolerantTrainer::with_strategy(net, mapping, flow, recorder, strategy)
                .map_err(|e| format!("trainer: {e}"))?;
        trainer
            .train(&data, 24)
            .map_err(|e| format!("train: {e}"))?;
        ensure(
            trainer.strategy().id() == "detect_remap",
            "fault_tolerant flow must select the detect_remap strategy",
        )?;
        let trace = view.contents();
        ensure(
            trace == GOLDEN_DETECT_REMAP,
            format!(
                "trace diverges from pre-refactor golden ({} vs {} lines); \
                 first differing line: {:?}",
                trace.lines().count(),
                GOLDEN_DETECT_REMAP.lines().count(),
                trace
                    .lines()
                    .zip(GOLDEN_DETECT_REMAP.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| a)
            ),
        )
    });

    // Degenerate heats: density 1.0 (every cell faulty — accuracy is pure
    // noise for everyone) and 0.0 (nothing to tolerate — the protection
    // machinery is pure overhead). Both must rank via the deterministic
    // tie-breaks, identically across repeated runs.
    fam.case("degenerate_densities_rank_deterministically", || {
        let degenerate = |seed: u64| -> Result<(String, String), String> {
            let config = ArenaConfig {
                densities: vec![0.0, 1.0],
                iterations: 6,
                ..small_sweep(seed)
            };
            let report = run(&config).map_err(|e| format!("degenerate sweep: {e}"))?;
            for density in [0.0f64, 1.0] {
                let ranks: Vec<u64> = report
                    .rows
                    .iter()
                    .filter(|r| r.fault_density == density)
                    .map(|r| r.rank)
                    .collect();
                ensure(
                    ranks == vec![1, 2, 3, 4],
                    format!("density {density}: ranks {ranks:?} not a 1..=4 total order"),
                )?;
            }
            Ok((report.to_jsonl(), report.trace))
        };
        let first = degenerate(seed ^ 0x5A)?;
        let second = degenerate(seed ^ 0x5A)?;
        ensure(
            first == second,
            "same-seed degenerate sweeps must produce identical tables and traces",
        )
    });

    fam
}
