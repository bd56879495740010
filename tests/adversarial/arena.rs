//! The strategy arena (DESIGN.md §14): `DetectRemap` behind the strategy
//! trait replays the recorded closed-loop trace, and degenerate heats
//! rank deterministically.

use ftt_arena::{run, ArenaConfig};
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

const SEED: u64 = 0xC0FFEE ^ 0x10;

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

/// Replaying the exact scenario that produced the committed golden trace —
/// same dataset, net, mapping, flow — must reproduce it byte for byte with
/// detection running behind the strategy trait.
#[test]
fn detect_remap_via_trait_matches_pre_refactor_golden() {
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
        FaultTolerantTrainer::with_strategy(net, mapping, flow, recorder, strategy).unwrap();
    trainer.train(&data, 24).unwrap();
    assert_eq!(trainer.strategy().id(), "detect_remap");
    let trace = view.contents();
    if let Some((i, (got, want))) = trace
        .lines()
        .zip(GOLDEN_DETECT_REMAP.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("trace line {i} diverges from the golden:\n got {got}\nwant {want}");
    }
    assert!(
        trace == GOLDEN_DETECT_REMAP,
        "trace has {} lines, the golden {}",
        trace.lines().count(),
        GOLDEN_DETECT_REMAP.lines().count()
    );
}

/// Density 1.0 (every cell faulty — accuracy is pure noise for everyone)
/// and 0.0 (nothing to tolerate — the protection machinery is pure
/// overhead) collapse most of the ranking signal, so the tie-breaks
/// (energy, then strategy id) must carry a total order, identically
/// across repeated runs.
#[test]
fn degenerate_densities_rank_deterministically() {
    let degenerate = |seed: u64| {
        let config = ArenaConfig {
            seed,
            densities: vec![0.0, 1.0],
            iterations: 6,
            strategies: ArenaConfig::all_strategies(seed),
            train_samples: 30,
            test_samples: 10,
            detection_interval: 4,
            spare_tiles: 4,
            tile_size: 64,
        };
        let report = run(&config).unwrap();
        for density in [0.0f64, 1.0] {
            let ranks: Vec<u64> = report
                .rows
                .iter()
                .filter(|r| r.fault_density == density)
                .map(|r| r.rank)
                .collect();
            assert_eq!(ranks, vec![1, 2, 3, 4], "density {density}");
        }
        (report.to_jsonl(), report.trace)
    };
    let first = degenerate(SEED ^ 0x5A);
    let second = degenerate(SEED ^ 0x5A);
    assert!(
        first == second,
        "same-seed degenerate sweeps must produce identical tables and traces"
    );
}
