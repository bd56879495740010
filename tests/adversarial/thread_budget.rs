//! The full closed loop is bit-identical whichever worker budget is in
//! force.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;

use crate::at_budget;

const SEED: u64 = 0xC0FFEE ^ 0x09;

/// The accuracy curve as exact bit patterns, plus the stats view.
fn run_seeded_flow(seed: u64, iterations: u64) -> (Vec<u64>, FlowStats) {
    let data = SyntheticDataset::mnist_like(40, 10, seed);
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 12, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(12, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.15)
        .with_seed(seed);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5);
    let mut trainer = FaultTolerantTrainer::new(net, mapping, flow).unwrap();
    let curve = trainer.train(&data, iterations).unwrap();
    // Compared as bit patterns: any cross-thread nondeterminism (merge
    // order, floating-point reassociation) shows up.
    let bits = curve
        .points()
        .iter()
        .map(|p| p.test_accuracy.to_bits())
        .collect();
    (bits, trainer.stats())
}

#[test]
fn closed_loop_bit_identical_across_thread_counts() {
    let (ref_bits, ref_stats) = at_budget(1, || run_seeded_flow(SEED, 15));
    for budget in [2usize, 3, 8, 64] {
        let (bits, stats) = at_budget(budget, || run_seeded_flow(SEED, 15));
        assert_eq!(
            bits, ref_bits,
            "curve diverged between 1 and {budget} threads"
        );
        assert_eq!(
            stats, ref_stats,
            "stats diverged between 1 and {budget} threads"
        );
    }
}
