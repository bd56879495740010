//! The closed loop on a convolutional network: every other flow golden
//! trains an MLP, so this one pins `Conv2d`'s backward pass.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

const SEED: u64 = 0xC0FFEE ^ 0x11;

/// 12 seeded iterations of VGG-11 at width divisor 32 on the Cifar-like
/// task, at fault fraction 0.1 with an endurance low enough that cells
/// wear out, and a detection campaign (pruning, remap search,
/// reprogramming) every 6 iterations. Returns the FNV-1a-64 of its JSONL
/// trace and its statistics.
fn conv_flow() -> (u64, FlowStats) {
    let data = SyntheticDataset::cifar_like(24, 8, SEED);
    let net = nn::models::vgg11_cifar(32, SEED);
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.1)
        .with_endurance(EnduranceModel::new(8.0, 2.0))
        .with_seed(SEED);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.05))
        .with_detection_interval(6)
        .with_detection_warmup(0)
        .with_eval_interval(6);
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

/// [`conv_flow`]'s JSONL-trace FNV-1a-64, recorded from the
/// dot-product `matmul_nt` with every layer's input gradient computed.
const TRACE_FNV: u64 = 0x830a_e4f0_4106_0af7;

#[test]
fn vgg_flow_matches_its_recording() {
    let (fnv, stats) = conv_flow();
    assert_eq!(
        fnv, TRACE_FNV,
        "trace FNV-1a-64 {fnv:#018x}, recorded {TRACE_FNV:#018x}"
    );
    let expected = FlowStats {
        writes_issued: 11_023,
        writes_skipped: 95_124,
        wear_faults_during_training: 344,
        detection_campaigns: 2,
        detection_cycles: 1_399,
        detection_writes: 13_180,
        remaps_applied: 2,
        last_remap_initial_cost: 2_376,
        last_remap_final_cost: 2_341,
        mvm_cell_ops: 350_136,
        ..FlowStats::default()
    };
    assert_eq!(stats, expected);
}
