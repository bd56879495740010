//! **§5.2 ablation** — the re-mapping search algorithms head-to-head on the
//! same `Dist(P, F)` instances, plus the accuracy recovered when deploying
//! a pruned, software-trained network onto a faulty array.
//!
//! Reported per algorithm: the achieved `Dist(P, F)` and the deployed
//! inference accuracy after reprogramming with the re-ordered weights. The
//! "oracle" row uses the ground-truth fault map instead of the on-line
//! detector's prediction, bounding the benefit of better detection.
//!
//! ```text
//! cargo run --release -p ftt-bench --bin remap_recovery
//! ```

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use ftt_bench::{arg_or, write_csv};
use ftt_core::config::{MappingConfig, MappingScope, RemapConfig};
use ftt_core::mapping::MappedNetwork;
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use nn::loss::softmax_cross_entropy;
use nn::metrics::accuracy;
use nn::models::mlp_784_100_10;
use nn::optimizer::{LrSchedule, Sgd};
use nn::pruning::{apply_mask, magnitude_prune};
use nn::synth::SyntheticDataset;
use rram::spatial::SpatialDistribution;

fn main() {
    let seeds = arg_or("--seeds", 3u64);
    let budget = arg_or("--budget", 40_000usize);
    let fraction = arg_or("--fault-fraction", 0.5f64);
    let data = SyntheticDataset::mnist_like(512, 128, 21);
    let (tx, ty) = data.test_set();

    // Train + prune the reference MLP in software.
    let mut reference = mlp_784_100_10(3);
    let mut sgd = Sgd::new(LrSchedule::step_decay(0.1, 0.7, 1000));
    for (x, y) in data.train_batches(16).take(1500) {
        let logits = reference.forward_train(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        reference.backward(&grad);
        sgd.step(&mut reference);
    }
    let base_mask = magnitude_prune(&mut reference, 0.5);
    apply_mask(&mut reference, &base_mask);
    // Brief masked fine-tune.
    let mut sgd = Sgd::new(LrSchedule::constant(0.02));
    for (x, y) in data.train_batches(16).take(400) {
        let logits = reference.forward_train(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        reference.backward(&grad);
        sgd.step(&mut reference);
        apply_mask(&mut reference, &base_mask);
    }
    let software_acc = accuracy(&reference.forward(&tx), &ty);
    println!("# pruned software reference accuracy: {software_acc:.3}");
    println!(
        "# {:.0}% clustered faults (SA0-dominant), search budget {budget}",
        100.0 * fraction
    );
    println!("algorithm, fault_map, mean_dist, mean_accuracy");

    let algorithms: [(&str, RemapAlgorithm); 4] = [
        ("identity", RemapAlgorithm::Identity),
        ("random_shuffle", RemapAlgorithm::RandomShuffle),
        ("swap_hill_climb", RemapAlgorithm::SwapHillClimb),
        ("genetic_pop16", RemapAlgorithm::Genetic { population: 16 }),
    ];
    let mut csv = String::from("algorithm,fault_map,mean_dist,mean_accuracy\n");
    for use_oracle in [false, true] {
        let map_label = if use_oracle {
            "ground_truth"
        } else {
            "detected"
        };
        for (name, algorithm) in algorithms {
            let mut dist_sum = 0.0;
            let mut acc_sum = 0.0;
            for seed in 0..seeds {
                let mut net = clone_trained(&mut reference);
                let mut mask = base_mask.clone();
                let mapping = MappingConfig::new(MappingScope::EntireNetwork)
                    .with_initial_fault_fraction(fraction)
                    .with_fault_distribution(SpatialDistribution::GaussianClusters {
                        centers: 2,
                        sigma_frac: 0.15,
                    })
                    .with_initial_sa0_prob(0.8)
                    .with_tile_size(1024)
                    .with_seed(100 + seed);
                let mut mapped =
                    MappedNetwork::from_network(&mut net, mapping).expect("valid mapping");
                let problem = if use_oracle {
                    RemapProblem::with_ground_truth(&mapped, &mask, CostModel::Extended)
                        .expect("problem")
                } else {
                    let detector =
                        OnlineFaultDetector::new(DetectorConfig::new(2).expect("test size"));
                    let detections = mapped.detect(&detector).expect("detection");
                    RemapProblem::new(&mapped, &mask, &detections, CostModel::Extended)
                        .expect("problem")
                };
                let plan = problem.solve(
                    &mapped,
                    &RemapConfig {
                        algorithm,
                        cost: CostModel::Extended,
                        iterations: budget,
                        seed: 7,
                    },
                );
                plan.apply(&mut net, &mut mask).expect("apply plan");
                apply_mask(&mut net, &mask);
                mapped.reprogram_from(&mut net, 1e-6).expect("reprogram");
                mapped.load_effective_weights(&mut net).unwrap();
                dist_sum += plan.final_cost as f64;
                acc_sum += accuracy(&net.forward(&tx), &ty);
            }
            let mean_dist = dist_sum / seeds as f64;
            let mean_acc = acc_sum / seeds as f64;
            println!("{name}, {map_label}, {mean_dist:.0}, {mean_acc:.3}");
            csv.push_str(&format!(
                "{name},{map_label},{mean_dist:.0},{mean_acc:.4}\n"
            ));
        }
    }
    write_csv("remap_recovery", &csv);
}

/// Builds a same-topology network and copies the trained parameters over.
fn clone_trained(trained: &mut nn::network::Network) -> nn::network::Network {
    let mut out = mlp_784_100_10(0);
    for idx in trained.weight_layer_indices() {
        let (w, b) = {
            let p = trained.layer_params_mut(idx).expect("weight layer");
            (p.weights.to_vec(), p.bias.map(|b| b.to_vec()))
        };
        let p = out.layer_params_mut(idx).expect("same topology");
        p.weights.copy_from_slice(&w);
        if let (Some(dst), Some(src)) = (p.bias, b) {
            dst.copy_from_slice(&src);
        }
    }
    out
}
