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
use nn::pruning::{magnitude_prune, LayerMask, PruneMask};
use nn::synth::SyntheticDataset;
use nn::tensor::Tensor;
use proptest::prelude::*;
use rram::endurance::EnduranceModel;
use rram::variation::WriteVariation;

fn mlp(seed: u64, hidden: usize) -> Network {
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(Dense::new(8, hidden, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(hidden, 4, &mut rng));
    net
}

/// A splitmix64 hash mapped to [0, 1): deterministic case data without an
/// RNG.
fn unit(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A `rows × cols` output gradient that is mostly zero rows, with small,
/// large, NaN and ±∞ entries mixed into the rest.
fn sparse_poisoned(seed: u64, rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let (row, i) = ((i / cols) as u64, i as u64);
            if unit(seed, 1_000 + row) < 0.6 {
                return 0.0;
            }
            match unit(seed, i) {
                u if u < 0.04 => f32::NAN,
                u if u < 0.06 => f32::INFINITY,
                u if u < 0.08 => f32::NEG_INFINITY,
                u if u < 0.3 => 0.0,
                u if u < 0.5 => (u as f32 - 0.4) * 1e-3,
                u => (u as f32 - 0.75) * 4.0,
            }
        })
        .collect()
}

/// Back-propagates `dy` through `net` on the identity batch: the first
/// layer's weight gradient is then `dY·W₂ᵀ` row for row (the GEMM skips the
/// identity's zeros), so zero rows of `dy` stay exactly zero in it.
fn backward_identity(net: &mut Network, inputs: usize, dy: Vec<f32>) {
    let eye: Vec<f32> = (0..inputs * inputs)
        .map(|i| if i % (inputs + 1) == 0 { 1.0 } else { 0.0 })
        .collect();
    let outputs = dy.len() / inputs;
    net.forward_train(&Tensor::from_vec(vec![inputs, inputs], eye));
    net.backward(&Tensor::from_vec(vec![inputs, outputs], dy));
}

/// Every software parameter's bits, layer by layer.
fn param_bits(net: &mut Network) -> Vec<Vec<u32>> {
    net.param_layers_mut()
        .map(|(_, p)| {
            let bias = p.bias.map(|b| b.to_vec()).unwrap_or_default();
            p.weights.iter().chain(&bias).map(|w| w.to_bits()).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The block-skipped update equals the scalar four-pass loop after
    /// every step: report (`max_abs_dw` bit for bit), ledgers, targets and
    /// signs, every tile's state, and the software parameters — over all
    /// three policies (wear-aware with growing and shrinking thresholds),
    /// both codings, with and without a frozen mask, on
    /// tiles that split the layers, under write noise and wear-outs.
    #[test]
    fn update_matches_scalar_oracle(
        seed in 0u64..10_000,
        inputs in 3usize..40,
        hidden in 1usize..20,
        tile in 2usize..9,
        policy in 0usize..4,
        differential in any::<bool>(),
        with_frozen in any::<bool>(),
        map_both in any::<bool>(),
        lr_pick in 0usize..10,
    ) {
        let policy = match policy {
            0 => ThresholdPolicy::None,
            1 => ThresholdPolicy::Fixed { fraction: 0.05 },
            2 => ThresholdPolicy::WearAware { fraction: 0.02, growth: 0.7 },
            // Thresholds that shrink with wear: no block may be skipped.
            _ => ThresholdPolicy::WearAware { fraction: 0.3, growth: -0.2 },
        };
        let lr = [0.1, 0.37, 1e-3, 2.0, 0.05, 0.1, 0.0, -0.0, -0.2, f32::NAN][lr_pick];
        let coding = if differential {
            WeightCoding::Differential
        } else {
            WeightCoding::Unipolar
        };
        let scope = if map_both {
            MappingScope::EntireNetwork
        } else {
            MappingScope::WeightLayers(vec![0])
        };
        let config = MappingConfig::new(scope)
            .with_coding(coding)
            .with_tile_size(tile)
            .with_variation(WriteVariation::new(0.05))
            .with_endurance(EnduranceModel::new(5.0, 2.0))
            .with_initial_fault_fraction(0.05)
            .with_seed(seed);
        let build = || {
            let mut rng = init_rng(seed);
            let mut net = Network::new();
            net.push(Dense::new(inputs, hidden, &mut rng));
            net.push(Dense::new(hidden, 3, &mut rng));
            let mapped = MappedNetwork::from_network(&mut net, config.clone()).unwrap();
            let trainer = ThresholdTrainer::new(policy, &mapped);
            (net, mapped, trainer)
        };
        let (mut net_a, mut mapped_a, mut fast) = build();
        let (mut net_b, mut mapped_b, mut oracle) = build();
        let frozen = with_frozen.then(|| {
            let layers = [(0, inputs, hidden), (1, hidden, 3)];
            PruneMask::from_layers(
                layers
                    .iter()
                    .map(|&(layer_index, rows, cols)| LayerMask {
                        layer_index,
                        shape: (rows, cols),
                        pruned: (0..rows * cols)
                            .map(|i| unit(seed ^ 0xF00D, (layer_index * 997 + i) as u64) < 0.3)
                            .collect(),
                    })
                    .collect(),
            )
        });
        for step in 0..4u64 {
            let dy = sparse_poisoned(seed ^ (step << 32), inputs, 3);
            for (net, mapped) in [(&mut net_a, &mapped_a), (&mut net_b, &mapped_b)] {
                mapped.load_effective_weights(net).unwrap();
                backward_identity(net, inputs, dy.clone());
            }
            let a = fast
                .apply_with_mask(&mut mapped_a, &mut net_a, lr, frozen.as_ref())
                .unwrap();
            let b = oracle
                .apply_reference(&mut mapped_b, &mut net_b, lr, frozen.as_ref())
                .unwrap();
            prop_assert_eq!(a.max_abs_dw.to_bits(), b.max_abs_dw.to_bits(), "step {}", step);
            prop_assert_eq!(a, b, "step {}", step);
            prop_assert_eq!(fast.export_ledgers(), oracle.export_ledgers());
            prop_assert_eq!(mapped_a.export_state(), mapped_b.export_state());
            prop_assert_eq!(param_bits(&mut net_a), param_bits(&mut net_b));
        }
    }
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
