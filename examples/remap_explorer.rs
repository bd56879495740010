//! Re-mapping search comparison (§5.2 of the paper).
//!
//! Builds an MLP on faulty crossbars, prunes it to 60 % sparsity, and runs
//! every re-mapping algorithm against the same `Dist(P, F)` instance —
//! showing how much of the fault set each search manages to park under
//! pruned zeros, and the difference between the paper's cost model and the
//! extended (SA1-aware) one.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example remap_explorer
//! ```

use ftt_core::config::{MappingConfig, MappingScope, RemapConfig};
use ftt_core::mapping::MappedNetwork;
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use nn::init::init_rng;
use nn::layers::{Dense, Relu};
use nn::network::Network;
use nn::pruning::magnitude_prune;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-layer MLP: two permutable hidden-neuron groups.
    let mut rng = init_rng(1);
    let mut net = Network::new();
    net.push(Dense::new(64, 96, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(96, 48, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(48, 10, &mut rng));

    let mapped = MappedNetwork::from_network(
        &mut net,
        MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.15)
            .with_seed(5),
    )?;
    let mask = magnitude_prune(&mut net, 0.6);
    println!(
        "network: 64-96-48-10, 15% faults, 60% pruned; {} cells total",
        64 * 96 + 96 * 48 + 48 * 10
    );

    for cost_model in [CostModel::PaperDist, CostModel::Extended] {
        let problem = RemapProblem::with_ground_truth(&mapped, &mask, cost_model)?;
        println!();
        println!(
            "== cost model {cost_model:?} (baseline Dist = {}) ==",
            problem.baseline_cost()
        );
        println!("algorithm, search budget, Dist after search");
        for (label, algorithm, iterations) in [
            ("identity", RemapAlgorithm::Identity, 0usize),
            ("random shuffle", RemapAlgorithm::RandomShuffle, 0),
            (
                "swap hill-climb (paper)",
                RemapAlgorithm::SwapHillClimb,
                20_000,
            ),
            (
                "genetic (pop 16)",
                RemapAlgorithm::Genetic { population: 16 },
                20_000,
            ),
        ] {
            let plan = problem.solve(
                &mapped,
                &RemapConfig {
                    algorithm,
                    cost: cost_model,
                    iterations,
                    seed: 9,
                },
            );
            println!("{label}, {iterations}, {}", plan.final_cost);
        }
    }
    println!();
    println!("note: SA1 cost is permutation-invariant, so the Extended model's");
    println!("floor is the SA1 count; only SA0 errors can be re-mapped away.");
    Ok(())
}
