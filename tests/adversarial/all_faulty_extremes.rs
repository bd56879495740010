//! The closed loop on hardware where every cell is stuck.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;

const SEED: u64 = 0xC0FFEE ^ 0x03;

/// Detection, pruning and re-mapping must complete on a chip with no
/// healthy cell, and the accuracy curve must stay finite.
#[test]
fn full_flow_on_100pct_faulty_hardware() {
    let data = SyntheticDataset::mnist_like(40, 10, SEED);
    let mut rng = init_rng(SEED);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 8, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(8, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(1.0)
        .with_seed(SEED);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(4)
        .with_detection_warmup(0)
        .with_eval_interval(4);
    let mut trainer = FaultTolerantTrainer::new(net, mapping, flow).unwrap();
    let curve = trainer.train(&data, 12).unwrap();
    assert!(
        curve.points().iter().all(|p| p.test_accuracy.is_finite()),
        "accuracy must stay finite even on dead hardware"
    );
    assert!(
        (trainer.mapped().fraction_faulty() - 1.0).abs() < 1e-12,
        "hardware should be fully faulty"
    );
    assert!(
        trainer.stats().detection_campaigns > 0,
        "detection must have run"
    );
}
