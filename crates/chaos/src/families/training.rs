//! Training-focused families: poisoned gradients and pruning extremes.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope, WeightCoding};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::mapping::MappedNetwork;
use ftt_core::report::FlowStats;
use ftt_core::threshold::{ThresholdPolicy, ThresholdTrainer};
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::pruning::{try_apply_mask, try_magnitude_prune_per_layer, LayerMask, PruneMask};
use nn::synth::SyntheticDataset;
use nn::tensor::Tensor;
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;
use rram::variation::WriteVariation;

use crate::{ensure, FamilyReport};

fn dense_net(inputs: usize, outputs: usize, seed: u64) -> Network {
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(inputs, outputs, &mut rng));
    net
}

fn mapped_pair(seed: u64) -> Result<(Network, MappedNetwork), String> {
    let mut net = dense_net(6, 4, seed);
    let mapped =
        MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
            .map_err(|e| format!("map: {e}"))?;
    Ok((net, mapped))
}

/// Backward pass with a crafted output gradient.
fn backward_with(net: &mut Network, inputs: usize, grad: Vec<f32>) {
    let x = Tensor::from_vec(
        vec![1, inputs],
        (0..inputs).map(|i| 0.1 + i as f32 * 0.1).collect(),
    );
    net.forward_train(&x);
    let g = Tensor::from_vec(vec![1, grad.len()], grad);
    net.backward(&g);
}

/// NaN, ∞, and all-zero gradient iterations: the update pass must skip
/// them deterministically — no NaN on hardware, no spurious pulses, same
/// result on every replay.
pub fn degenerate_gradients(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("degenerate_gradients");

    fam.case("nan_and_inf_gradients_never_reach_hardware", || {
        let (mut net, mut mapped) = mapped_pair(seed)?;
        mapped
            .load_effective_weights(&mut net)
            .map_err(|e| e.to_string())?;
        backward_with(&mut net, 6, vec![f32::NAN, f32::INFINITY, 0.5, -0.5]);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let report = trainer
            .apply(&mut mapped, &mut net, 0.1)
            .map_err(|e| format!("apply: {e}"))?;
        ensure(
            report.nan_updates_skipped > 0,
            "poisoned updates must be counted",
        )?;
        ensure(report.max_abs_dw.is_finite(), "max|δw| must exclude NaN")?;
        mapped
            .load_effective_weights(&mut net)
            .map_err(|e| e.to_string())?;
        let params = net.layer_params_mut(0).ok_or("params")?;
        ensure(
            params.weights.iter().all(|w| w.is_finite()),
            "a NaN reached the hardware weights",
        )
    });

    fam.case("all_nan_gradients_degrade_to_noop", || {
        let (mut net, mut mapped) = mapped_pair(seed)?;
        mapped
            .load_effective_weights(&mut net)
            .map_err(|e| e.to_string())?;
        backward_with(&mut net, 6, vec![f32::NAN; 4]);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let report = trainer
            .apply(&mut mapped, &mut net, 0.1)
            .map_err(|e| format!("apply: {e}"))?;
        ensure(
            report.writes_issued == 0,
            "an all-NaN iteration must not pulse cells",
        )?;
        ensure(report.max_abs_dw == 0.0, "no finite update exists")?;
        Ok(())
    });

    fam.case("zero_gradient_iteration_is_deterministic", || {
        let (mut net, mut mapped) = mapped_pair(seed)?;
        mapped
            .load_effective_weights(&mut net)
            .map_err(|e| e.to_string())?;
        backward_with(&mut net, 6, vec![0.0; 4]);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::paper_default(), &mapped);
        let first = trainer
            .apply(&mut mapped, &mut net, 0.1)
            .map_err(|e| format!("apply: {e}"))?;
        ensure(
            first.writes_issued == 0,
            "a zero iteration must skip every write",
        )?;
        ensure(first.writes_skipped == 24, "all 6×4 updates suppressed")?;
        let second = trainer
            .apply(&mut mapped, &mut net, 0.1)
            .map_err(|e| format!("apply 2: {e}"))?;
        ensure(
            first.writes_skipped == second.writes_skipped
                && first.writes_issued == second.writes_issued,
            "replaying a zero iteration must be bit-identical",
        )
    });

    fam.case("none_policy_keeps_pulse_everything_semantics", || {
        // The original method has no write-verify: even zero updates cost a
        // pulse. The degenerate-iteration skip must NOT change the baseline.
        let (mut net, mut mapped) = mapped_pair(seed)?;
        mapped
            .load_effective_weights(&mut net)
            .map_err(|e| e.to_string())?;
        backward_with(&mut net, 6, vec![0.0; 4]);
        let mut trainer = ThresholdTrainer::new(ThresholdPolicy::None, &mapped);
        let report = trainer
            .apply(&mut mapped, &mut net, 0.1)
            .map_err(|e| format!("apply: {e}"))?;
        ensure(
            report.writes_skipped == 0,
            "the None policy must not silently start suppressing",
        )
    });

    // The block-skipped update against the scalar oracle at the block
    // edges: NaN/∞ inside otherwise all-zero blocks, a frozen mask over
    // some of those NaNs (frozen wins), and an all-zero iteration.
    fam.case("block_edges_nan_in_zero_blocks_match_oracle", || {
        check_against_oracle(seed, |_| None, poisoned_rows)
    });
    fam.case("block_edges_frozen_nans_match_oracle", || {
        check_against_oracle(seed, freeze_poisoned_rows, poisoned_rows)
    });
    fam.case("block_edges_all_zero_iteration_matches_oracle", || {
        let zeros = |inputs, outputs| vec![0.0; inputs * outputs];
        check_against_oracle(seed, |_| None, zeros)?;
        // Skipped blocks must not count their frozen entries.
        check_against_oracle(seed, freeze_poisoned_rows, zeros)
    });

    // Every policy × coding pairing, end to end: trace and statistics
    // must match the recording byte for byte.
    for (name, policy, coding, trace_fnv, issued, skipped, wear) in POLICY_GOLDENS {
        fam.case(&format!("golden_flow_{name}"), || {
            let (fnv, stats) = policy_flow(policy, coding)?;
            ensure(
                fnv == trace_fnv,
                format!("trace FNV-1a-64 {fnv:#018x}, recorded {trace_fnv:#018x}"),
            )?;
            let expected = FlowStats {
                writes_issued: issued,
                writes_skipped: skipped,
                wear_faults_during_training: wear,
                mvm_cell_ops: 343_008,
                ..FlowStats::default()
            };
            ensure(
                stats == expected,
                format!("stats {stats:?}, recorded {expected:?}"),
            )
        });
    }
    fam
}

/// Network shapes `(inputs, hidden, outputs)` whose two weight layers hold
/// 15, 16 or 17 weights, one max-sweep block ±1. On 4² tiles each layer
/// spans several tiles.
const BLOCK_EDGE_SHAPES: [(usize, usize, usize); 5] =
    [(3, 5, 3), (4, 4, 4), (17, 1, 17), (15, 1, 16), (16, 1, 15)];

/// Learning rates the update must treat exactly as the scalar loop does:
/// an ordinary one, both zeros, a negative one and the non-finite ones.
const EDGE_LRS: [f32; 7] = [
    0.1,
    0.0,
    -0.0,
    -0.1,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// An output gradient that is zero except for a NaN in row 0, a +∞ in the
/// middle row and finite entries in the last row. Back-propagated on the
/// identity batch, it puts NaN/∞ rows and columns inside otherwise
/// all-zero blocks of both weight layers.
fn poisoned_rows(inputs: usize, outputs: usize) -> Vec<f32> {
    let mut dy = vec![0.0; inputs * outputs];
    dy[0] = f32::NAN;
    dy[(inputs / 2) * outputs + outputs - 1] = f32::INFINITY;
    for (c, g) in dy[(inputs - 1) * outputs..].iter_mut().enumerate() {
        *g = 0.25 - 0.1 * c as f32;
    }
    dy
}

/// Freezes the first layer's row 0 (where [`poisoned_rows`] puts its NaN)
/// and the second layer's column 0.
fn freeze_poisoned_rows((inputs, hidden, outputs): (usize, usize, usize)) -> Option<PruneMask> {
    let mask = |layer_index, rows, cols, pruned: &dyn Fn(usize) -> bool| LayerMask {
        layer_index,
        shape: (rows, cols),
        pruned: (0..rows * cols).map(pruned).collect(),
    };
    Some(PruneMask::from_layers(vec![
        mask(0, inputs, hidden, &|i| i < hidden),
        mask(1, hidden, outputs, &|i| i % outputs == 0),
    ]))
}

/// Runs [`ThresholdTrainer::apply_with_mask`] and the scalar oracle
/// [`ThresholdTrainer::apply_reference`] side by side on twin chips, for
/// every shape in [`BLOCK_EDGE_SHAPES`], LR in [`EDGE_LRS`], policy and
/// coding, two steps each. Both get the output gradient `dy` on the
/// identity batch (the first layer's gradient is then `dy·W₂ᵀ` row for
/// row). The reports (`max_abs_dw` bit for bit), the ledgers and every
/// tile's state must agree after each step.
fn check_against_oracle(
    seed: u64,
    frozen: impl Fn((usize, usize, usize)) -> Option<PruneMask>,
    dy: impl Fn(usize, usize) -> Vec<f32>,
) -> Result<(), String> {
    let policies = [
        ThresholdPolicy::None,
        ThresholdPolicy::paper_default(),
        ThresholdPolicy::WearAware {
            fraction: 0.01,
            growth: 0.5,
        },
    ];
    for shape @ (inputs, hidden, outputs) in BLOCK_EDGE_SHAPES {
        let mask = frozen(shape);
        for lr in EDGE_LRS {
            for policy in policies {
                for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
                    let what = format!("{shape:?} lr {lr} {policy:?} {coding:?}");
                    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
                        .with_coding(coding)
                        .with_tile_size(4)
                        .with_variation(WriteVariation::new(0.05))
                        .with_endurance(EnduranceModel::new(3.0, 1.0))
                        .with_seed(seed);
                    let twin = || -> Result<_, String> {
                        let mut rng = init_rng(seed);
                        let mut net = Network::new();
                        net.push(nn::layers::Dense::new(inputs, hidden, &mut rng));
                        net.push(nn::layers::Dense::new(hidden, outputs, &mut rng));
                        let mapped = MappedNetwork::from_network(&mut net, mapping.clone())
                            .map_err(|e| format!("{what}: map: {e}"))?;
                        let trainer = ThresholdTrainer::new(policy, &mapped);
                        Ok((net, mapped, trainer))
                    };
                    let (mut net_a, mut mapped_a, mut fast) = twin()?;
                    let (mut net_b, mut mapped_b, mut oracle) = twin()?;
                    let eye: Vec<f32> = (0..inputs * inputs)
                        .map(|i| if i % (inputs + 1) == 0 { 1.0 } else { 0.0 })
                        .collect();
                    for step in 0..2 {
                        for (net, mapped) in [(&mut net_a, &mapped_a), (&mut net_b, &mapped_b)] {
                            mapped
                                .load_effective_weights(net)
                                .map_err(|e| format!("{what}: load: {e}"))?;
                            net.forward_train(&Tensor::from_vec(vec![inputs, inputs], eye.clone()));
                            net.backward(&Tensor::from_vec(
                                vec![inputs, outputs],
                                dy(inputs, outputs),
                            ));
                        }
                        let a = fast
                            .apply_with_mask(&mut mapped_a, &mut net_a, lr, mask.as_ref())
                            .map_err(|e| format!("{what}: apply: {e}"))?;
                        let b = oracle
                            .apply_reference(&mut mapped_b, &mut net_b, lr, mask.as_ref())
                            .map_err(|e| format!("{what}: oracle: {e}"))?;
                        let what = format!("{what} step {step}");
                        ensure(
                            a == b && a.max_abs_dw.to_bits() == b.max_abs_dw.to_bits(),
                            format!("{what}: report {a:?}, oracle {b:?}"),
                        )?;
                        ensure(
                            lr > 0.0 && lr.is_finite() || a.max_abs_dw.to_bits() == 0,
                            format!("{what}: max|δw| {} must be +0.0", a.max_abs_dw),
                        )?;
                        ensure(
                            fast.export_ledgers() == oracle.export_ledgers(),
                            format!("{what}: ledgers diverge"),
                        )?;
                        ensure(
                            mapped_a.export_state() == mapped_b.export_state(),
                            format!("{what}: tile state, targets or signs diverge"),
                        )?;
                    }
                }
            }
        }
    }
    Ok(())
}

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
fn policy_flow(
    policy: ThresholdPolicy,
    coding: WeightCoding,
) -> Result<(u64, FlowStats), String> {
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
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder)
        .map_err(|e| format!("trainer: {e}"))?;
    trainer.train(&data, 12).map_err(|e| format!("train: {e}"))?;
    Ok((
        ftt_snapshot::fnv1a64(view.contents().as_bytes()),
        trainer.stats(),
    ))
}

/// Pruning rates at exactly 0 % and 100 %, standalone and inside the full
/// detection + re-map phase.
pub fn prune_rate_extremes(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("prune_rate_extremes");

    fam.case("prune_0pct_keeps_everything", || {
        let mut net = dense_net(8, 4, seed);
        let mask = try_magnitude_prune_per_layer(&mut net, &[0.0]).map_err(|e| e.to_string())?;
        ensure(mask.total_sparsity() == 0.0, "0 % must prune nothing")?;
        try_apply_mask(&mut net, &mask).map_err(|e| e.to_string())?;
        Ok(())
    });

    fam.case("prune_100pct_zeroes_everything", || {
        let mut net = dense_net(8, 4, seed);
        let mask = try_magnitude_prune_per_layer(&mut net, &[1.0]).map_err(|e| e.to_string())?;
        ensure(
            nn::metrics::approx_eq(mask.total_sparsity(), 1.0),
            "100 % must prune all 32 weights",
        )?;
        try_apply_mask(&mut net, &mask).map_err(|e| e.to_string())?;
        let params = net.layer_params_mut(0).ok_or("params")?;
        ensure(
            params.weights.iter().all(|&w| w == 0.0),
            "weights must all be zero",
        )
    });

    for (name, dense, conv) in [
        ("flow_prune_0pct", 0.0, 0.0),
        ("flow_prune_100pct", 1.0, 1.0),
    ] {
        fam.case(name, || {
            let data = SyntheticDataset::mnist_like(40, 10, seed);
            let mut rng = init_rng(seed);
            let mut net = Network::new();
            net.push(nn::layers::Dense::new(784, 8, &mut rng));
            net.push(nn::layers::Relu::new());
            net.push(nn::layers::Dense::new(8, 10, &mut rng));
            let mapping = MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.2)
                .with_seed(seed);
            let mut flow = FlowConfig::fault_tolerant()
                .with_lr(LrSchedule::constant(0.1))
                .with_detection_interval(4)
                .with_detection_warmup(0)
                .with_eval_interval(4);
            flow.prune_fraction_dense = dense;
            flow.prune_fraction_conv = conv;
            let mut trainer =
                FaultTolerantTrainer::new(net, mapping, flow).map_err(|e| format!("new: {e}"))?;
            let curve = trainer
                .train(&data, 10)
                .map_err(|e| format!("train: {e}"))?;
            ensure(
                curve.points().iter().all(|p| p.test_accuracy.is_finite()),
                "accuracy must stay finite at pruning extremes",
            )?;
            ensure(
                trainer.stats().detection_campaigns > 0,
                "detection must have run",
            )
        });
    }
    fam
}
