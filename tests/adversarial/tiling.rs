//! The closed loop with tile sparing in it (DESIGN.md §11).

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, Recorder};

const SEED: u64 = 0xC0FFEE ^ 0x0b;

/// Detection must retire tiles and attach spares, and the stats view must
/// count the retirements.
#[test]
fn sparing_flow_retires_and_attaches_spares() {
    let data = SyntheticDataset::mnist_like(40, 10, SEED);
    let mut rng = init_rng(SEED);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 12, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(12, 10, &mut rng));
    let mut mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.2)
        .with_seed(SEED)
        .with_spare_tiles(4)
        .with_retire_fault_density(0.1);
    mapping.tile_size = 64;
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5);
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder).unwrap();
    trainer.train(&data, 12).unwrap();
    let trace = view.contents();
    assert!(
        trace.contains("\"kind\":\"tile_retired\"")
            && trace.contains("\"kind\":\"spare_attached\""),
        "sparing must actually fire"
    );
    assert!(
        trainer.stats().tiles_retired > 0,
        "stats must count retirements"
    );
}
