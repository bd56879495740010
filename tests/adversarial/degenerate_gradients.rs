//! Every threshold policy × weight coding, end to end: the trace and the
//! statistics must match the recordings byte for byte.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope, WeightCoding};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use ftt_core::threshold::ThresholdPolicy;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;
use rram::variation::WriteVariation;

/// Per policy × coding: the JSONL-trace FNV-1a-64, writes issued, writes
/// skipped and training wear faults of [`policy_flow`], recorded from the
/// scalar four-pass update loop before the block-skipped one replaced it.
/// The hashes were re-recorded once, when `write_pulse_batch` events
/// renamed their batch-size key to `batch_pulses`; with that key renamed
/// back, each trace hashes to its original recording.
const POLICY_GOLDENS: [(&str, ThresholdPolicy, WeightCoding, u64, u64, u64, u64); 6] = [
    (
        "none_unipolar",
        ThresholdPolicy::None,
        WeightCoding::Unipolar,
        0x034b_8f1d_4a54_76de,
        47_539,
        0,
        9_421,
    ),
    (
        "none_differential",
        ThresholdPolicy::None,
        WeightCoding::Differential,
        0x8709_18fb_df84_cd3f,
        49_228,
        0,
        18_934,
    ),
    (
        "fixed_unipolar",
        ThresholdPolicy::Fixed { fraction: 0.05 },
        WeightCoding::Unipolar,
        0xa530_03a8_7df4_2b11,
        5_214,
        109_019,
        214,
    ),
    (
        "fixed_differential",
        ThresholdPolicy::Fixed { fraction: 0.05 },
        WeightCoding::Differential,
        0xbcc4_0b27_da2c_781e,
        5_389,
        108_803,
        339,
    ),
    (
        "wear_aware_unipolar",
        ThresholdPolicy::WearAware {
            fraction: 0.01,
            growth: 0.5,
        },
        WeightCoding::Unipolar,
        0x3478_4d26_312f_41a6,
        7_105,
        107_032,
        331,
    ),
    (
        "wear_aware_differential",
        ThresholdPolicy::WearAware {
            fraction: 0.01,
            growth: 0.5,
        },
        WeightCoding::Differential,
        0x056a_5354_141a_bb3f,
        6_744,
        107_391,
        443,
    ),
];

/// One seeded threshold-training run: a 784×12×10 MLP on 10² tiles (each
/// layer spans several), with write variation and an endurance low enough
/// that cells wear out inside the run. Returns the FNV-1a-64 of its JSONL
/// trace and its statistics.
fn policy_flow(policy: ThresholdPolicy, coding: WeightCoding) -> (u64, FlowStats) {
    let data = SyntheticDataset::mnist_like(40, 10, 11);
    let mut rng = init_rng(11);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 12, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(12, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_coding(coding)
        .with_tile_size(10)
        .with_variation(WriteVariation::new(0.02))
        .with_endurance(EnduranceModel::new(6.0, 2.0))
        .with_seed(11);
    let flow = FlowConfig::threshold_only()
        .with_threshold(policy)
        .with_lr(LrSchedule::constant(0.1))
        .with_eval_interval(4);
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder).unwrap();
    trainer.train(&data, 12).unwrap();
    (
        ftt_snapshot::fnv1a64(view.contents().as_bytes()),
        trainer.stats(),
    )
}

#[test]
fn golden_flows_match_their_recordings() {
    for (name, policy, coding, trace_fnv, issued, skipped, wear) in POLICY_GOLDENS {
        let (fnv, stats) = policy_flow(policy, coding);
        assert_eq!(
            fnv, trace_fnv,
            "{name}: trace FNV-1a-64 {fnv:#018x}, recorded {trace_fnv:#018x}"
        );
        let expected = FlowStats {
            writes_issued: issued,
            writes_skipped: skipped,
            wear_faults_during_training: wear,
            mvm_cell_ops: 343_008,
            ..FlowStats::default()
        };
        assert_eq!(stats, expected, "{name}");
    }
}
