//! Property-based tests for the fault-tolerant training core.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope, RemapConfig, WeightCoding};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::mapping::MappedNetwork;
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use ftt_core::threshold::{ThresholdPolicy, ThresholdTrainer};
use nn::init::init_rng;
use nn::layers::{Dense, Relu};
use nn::loss::softmax_cross_entropy;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::pruning::magnitude_prune;
use nn::synth::SyntheticDataset;
use nn::tensor::Tensor;
use proptest::prelude::*;

fn mlp(seed: u64, hidden: usize) -> Network {
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(Dense::new(8, hidden, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(hidden, 4, &mut rng));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free mapping is transparent: effective weights equal the
    /// software weights for any seed/topology/coding.
    #[test]
    fn clean_mapping_is_transparent(
        seed in 0u64..200,
        hidden in 2usize..16,
        differential in any::<bool>(),
    ) {
        let mut net = mlp(seed, hidden);
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let coding = if differential {
            WeightCoding::Differential
        } else {
            WeightCoding::Unipolar
        };
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(coding),
        )
        .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() < 1e-5);
        }
    }

    /// A higher threshold fraction never issues more writes.
    #[test]
    fn threshold_is_monotone_in_fraction(seed in 0u64..100) {
        let mut writes = Vec::new();
        for fraction in [0.0, 0.01, 0.1, 0.5] {
            let mut net = mlp(seed, 8);
            let mut mapped = MappedNetwork::from_network(
                &mut net,
                MappingConfig::new(MappingScope::EntireNetwork),
            )
            .unwrap();
            mapped.load_effective_weights(&mut net).unwrap();
            let x = Tensor::from_vec(
                vec![2, 8],
                (0..16).map(|i| ((i as f32) * 0.37 + seed as f32).sin()).collect(),
            );
            let logits = net.forward_train(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &[0, 3]);
            net.backward(&grad);
            let mut trainer =
                ThresholdTrainer::new(ThresholdPolicy::Fixed { fraction }, &mapped);
            let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
            writes.push(report.writes_issued);
        }
        prop_assert!(writes.windows(2).all(|w| w[0] >= w[1]), "{:?}", writes);
    }

    /// Every re-mapping plan's permutations are valid permutations, and the
    /// reported final cost matches an independent re-evaluation.
    #[test]
    fn remap_plan_is_consistent(
        seed in 0u64..100,
        hidden in 3usize..14,
        algorithm_pick in 0usize..3,
    ) {
        let algorithm = [
            RemapAlgorithm::RandomShuffle,
            RemapAlgorithm::SwapHillClimb,
            RemapAlgorithm::Genetic { population: 6 },
        ][algorithm_pick];
        let mut net = mlp(seed, hidden);
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.2)
                .with_seed(seed),
        )
        .unwrap();
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let plan = problem.solve(
            &mapped,
            &RemapConfig { algorithm, cost: CostModel::PaperDist, iterations: 500, seed },
        );
        for (_, perm) in plan.perms() {
            // Permutation validity: applying then inverting is identity.
            let data: Vec<usize> = (0..perm.len()).collect();
            let there = perm.apply(&data);
            let back = perm.inverse().apply(&there);
            prop_assert_eq!(back, data);
        }
        prop_assert!(plan.final_cost <= plan.initial_cost || algorithm == RemapAlgorithm::RandomShuffle);
    }

    /// Training runs are deterministic: the same seeds give bit-identical
    /// curves.
    #[test]
    fn flow_is_deterministic(seed in 0u64..20) {
        let data = SyntheticDataset::images(60, 20, seed, 1, 8, 8, 4);
        let run = |t: u64| {
            let mut rng = init_rng(t);
            let mut net = Network::new();
            net.push(nn::layers::Flatten::new());
            net.push(Dense::new(64, 12, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(12, 4, &mut rng));
            let mut trainer = FaultTolerantTrainer::new(
                net,
                MappingConfig::new(MappingScope::EntireNetwork)
                    .with_initial_fault_fraction(0.1)
                    .with_seed(seed),
                FlowConfig::threshold_only().with_lr(LrSchedule::constant(0.1)),
            )
            .unwrap();
            trainer.train(&data, 40).unwrap();
            trainer.curve().clone()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
