//! The closed loop through rank-1 weight matrices on tiny tiles.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;

const SEED: u64 = 0xC0FFEE ^ 0x05;

/// A 1-wide bottleneck (N×1 then 1×N weight matrices) with tile size 2,
/// forcing heavy tiling and 1-column tiles.
#[test]
fn flow_with_rank1_layers_and_tiny_tiles() {
    let raw = SyntheticDataset::images(30, 10, SEED, 1, 2, 2, 2);
    let (train_x, train_y) = raw.train_set();
    let (test_x, test_y) = raw.test_set();
    let data = nn::data::Dataset::new(
        train_x.reshape(vec![30, 4]),
        train_y,
        test_x.reshape(vec![10, 4]),
        test_y,
        2,
    );
    let mut rng = init_rng(SEED);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(4, 1, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(1, 2, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_tile_size(2)
        .with_initial_fault_fraction(0.25)
        .with_seed(SEED);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.05))
        .with_detection_interval(3)
        .with_detection_warmup(0)
        .with_eval_interval(5);
    let mut trainer = FaultTolerantTrainer::new(net, mapping, flow).unwrap();
    trainer.train(&data, 9).unwrap();
    assert!(
        trainer.stats().detection_campaigns > 0,
        "detection must have run"
    );
}
