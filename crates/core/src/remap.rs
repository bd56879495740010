//! Fault-tolerant re-mapping by neuron re-ordering (§5.2 of the paper).
//!
//! After a detection phase there are two networks: the *pruned network*
//! `P` (`p(n)_{i,j} = 0` where the weight can be fixed to zero, `∞`
//! otherwise) and the *fault-distribution network* `F` (`f(n)_{i,j} ∈ {0,1}`
//! for SA0/SA1 faults, `∞` for healthy cells). The **ErrorSet** is
//!
//! > `E = { (i, j, n) : p(n)_{i,j} ≠ 0  ∧  f(n)_{i,j} ≠ ∞ }`
//!
//! — the unpruned weights sitting on faulty cells — and
//! `Dist(P, F) = |E|` is the cost to minimize by re-ordering neurons.
//! Re-ordering neuron `i` and `j` of layer `n` exchanges *columns* `i, j`
//! of `W(n)` **and** *rows* `i, j` of `W(n+1)`, keeping the network
//! isomorphic (no routing hardware needed). The problem maps to coupled
//! knapsack instances and is NP-hard, so the paper uses a stochastic
//! neuron-swap search, optimizing layer by layer; a genetic algorithm and
//! two baselines are also provided for the ablation benches.
//!
//! # Parallel cost evaluation
//!
//! `Dist(P, F)` decomposes per layer, so [`RemapProblem::cost`] fans the
//! per-layer recounts across the [`par`] worker budget and sums the
//! partials in layer order (identical to the sequential count).

use nn::network::Network;
use nn::permute::{permute_columns, permute_hidden_neurons, permute_row_blocks, Permutation};
use nn::pruning::PruneMask;
use rand::Rng;
use rram::fault::FaultKind;
use rram::rng::sim_rng;

use crate::config::RemapConfig;
use crate::error::FttError;
use crate::mapping::{LayerDetection, MappedNetwork};

/// The re-mapping search algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapAlgorithm {
    /// Keep the current order (baseline).
    Identity,
    /// A single uniformly random re-order per group (baseline).
    RandomShuffle,
    /// The paper's method: repeatedly exchange two random neurons and keep
    /// the exchange when the cost does not increase.
    SwapHillClimb,
    /// A genetic algorithm optimizing each neuron group in turn
    /// ("layer by layer" per the paper), with tournament selection, order
    /// crossover and swap mutation. Each group evolves one population for
    /// `iterations / population` generations from its own sub-RNG, derived
    /// from the search seed and salted by the group index.
    Genetic {
        /// Population size (clamped to at least 4).
        population: usize,
    },
}

/// How mapping errors are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// The paper's `Dist(P, F)`: an error wherever an *unpruned* weight
    /// lands on *any* faulty cell.
    PaperDist,
    /// Physically stricter: an SA1 cell is an error regardless of pruning
    /// (a pruned zero on a stuck-at-max cell still reads full scale), while
    /// SA0 errors require an unpruned weight.
    Extended,
}

impl CostModel {
    #[inline]
    fn is_error(&self, pruned: bool, fault: Option<FaultKind>) -> bool {
        match (self, fault) {
            (_, None) => false,
            (CostModel::PaperDist, Some(_)) => !pruned,
            (CostModel::Extended, Some(FaultKind::StuckAt0)) => !pruned,
            (CostModel::Extended, Some(FaultKind::StuckAt1)) => true,
        }
    }
}

/// One layer of the re-mapping problem, in logical weight coordinates.
#[derive(Debug, Clone)]
struct RemapLayer {
    rows: usize,
    cols: usize,
    /// `true` = prunable (a zero the hardware can park on a fault).
    pruned: Vec<bool>,
    /// Detected fault at each cell.
    fault: Vec<Option<FaultKind>>,
}

/// A permutable neuron group: the output neurons of mapped layer `layer`,
/// whose re-order also gathers the row *blocks* of mapped layer `layer + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NeuronGroup {
    /// Position (index into the problem's layers) whose columns permute.
    layer: usize,
    /// Number of neurons (columns of `layer`).
    neurons: usize,
    /// Rows of `layer + 1` moved per neuron.
    block: usize,
}

/// The assembled re-mapping problem.
#[derive(Debug, Clone)]
pub struct RemapProblem {
    layers: Vec<RemapLayer>,
    groups: Vec<NeuronGroup>,
    cost_model: CostModel,
}

/// The chosen permutation per neuron group.
#[derive(Debug, Clone)]
pub struct RemapPlan {
    /// `(weight_layer_of_group, permutation)` pairs: the permutation
    /// re-orders the output neurons of that weight layer.
    perms: Vec<(usize, Permutation)>,
    /// Cost before the search.
    pub initial_cost: u64,
    /// Cost achieved by the search.
    pub final_cost: u64,
}

impl RemapPlan {
    /// The group permutations as `(weight_layer, permutation)`.
    pub fn perms(&self) -> &[(usize, Permutation)] {
        &self.perms
    }

    /// Whether the plan changes anything.
    pub fn is_identity(&self) -> bool {
        self.perms.iter().all(|(_, p)| p.is_identity())
    }

    /// Applies the plan to the software network (an isomorphism: the
    /// network's function is unchanged) and to the pruning mask so it stays
    /// aligned with the permuted weights.
    ///
    /// # Errors
    ///
    /// Returns an error if a permutation no longer matches the network
    /// geometry (which would indicate the network changed since planning).
    pub fn apply(&self, net: &mut Network, mask: &mut PruneMask) -> Result<(), FttError> {
        for (weight_layer, perm) in &self.perms {
            if perm.is_identity() {
                continue;
            }
            permute_hidden_neurons(net, *weight_layer, perm)?;
            permute_mask(mask, *weight_layer, perm)?;
        }
        Ok(())
    }
}

/// Permutes a [`PruneMask`] alongside the network: columns of weight layer
/// `k`, row blocks of weight layer `k + 1`.
fn permute_mask(mask: &mut PruneMask, k: usize, perm: &Permutation) -> Result<(), FttError> {
    let layers = mask.layers().to_vec();
    if k + 1 >= layers.len() {
        return Err(FttError::InvalidConfig(format!(
            "mask has no layer after weight layer {k}"
        )));
    }
    // Rebuild via the public API: masks are cheap.
    let mut rebuilt = layers;
    {
        let lm = &mut rebuilt[k];
        let (rows, cols) = lm.shape;
        if cols != perm.len() {
            return Err(FttError::InvalidConfig(format!(
                "mask layer {k} has {cols} cols, permutation covers {}",
                perm.len()
            )));
        }
        permute_columns(&mut lm.pruned, rows, cols, perm);
    }
    {
        let lm = &mut rebuilt[k + 1];
        let (rows, cols) = lm.shape;
        if rows % perm.len() != 0 {
            return Err(FttError::InvalidConfig(format!(
                "mask layer {} has {rows} rows, not divisible by {} neurons",
                k + 1,
                perm.len()
            )));
        }
        let block = rows / perm.len();
        permute_row_blocks(&mut lm.pruned, rows, cols, block, perm);
    }
    *mask = PruneMask::from_layers(rebuilt);
    Ok(())
}

impl RemapProblem {
    /// Assembles the problem from the mapped network, the pruning mask
    /// (over *all* weight layers, as produced by `nn::pruning`), and the
    /// per-layer fault detections.
    ///
    /// Only consecutive mapped weight layers with compatible geometry form
    /// permutable neuron groups; the paper's FC-only and entire-CNN cases
    /// both satisfy this.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if the detections do not match
    /// the mapping.
    pub fn new(
        mapped: &MappedNetwork,
        mask: &PruneMask,
        detections: &[LayerDetection],
        cost_model: CostModel,
    ) -> Result<Self, FttError> {
        if detections.len() != mapped.layers().len() {
            return Err(FttError::InvalidConfig(format!(
                "{} detections for {} mapped layers",
                detections.len(),
                mapped.layers().len()
            )));
        }
        let mut layers = Vec::with_capacity(mapped.layers().len());
        for (ml, det) in mapped.layers().iter().zip(detections) {
            if det.weight_layer != ml.weight_layer {
                return Err(FttError::InvalidConfig(
                    "detections out of order with mapping".into(),
                ));
            }
            let lm = mask
                .layers()
                .iter()
                .find(|l| l.layer_index == ml.layer_index && l.shape == (ml.rows, ml.cols))
                .ok_or_else(|| {
                    FttError::InvalidConfig(format!(
                        "pruning mask missing weight layer {} ({}x{})",
                        ml.weight_layer, ml.rows, ml.cols
                    ))
                })?;
            let mut fault = vec![None; ml.rows * ml.cols];
            for (r, c, kind) in det.predicted.iter_faulty() {
                fault[r * ml.cols + c] = Some(kind);
            }
            layers.push(RemapLayer {
                rows: ml.rows,
                cols: ml.cols,
                pruned: lm.pruned.clone(),
                fault,
            });
        }
        // Neuron groups between consecutive mapped layers that are also
        // consecutive weight layers with divisible geometry.
        let mut groups = Vec::new();
        for i in 0..layers.len().saturating_sub(1) {
            let consecutive =
                mapped.layers()[i + 1].weight_layer == mapped.layers()[i].weight_layer + 1;
            let neurons = layers[i].cols;
            if consecutive && neurons > 1 && layers[i + 1].rows % neurons == 0 {
                groups.push(NeuronGroup {
                    layer: i,
                    neurons,
                    block: layers[i + 1].rows / neurons,
                });
            }
        }
        Ok(Self {
            layers,
            groups,
            cost_model,
        })
    }

    /// Builds the problem from ground-truth fault maps instead of detector
    /// output (the oracle upper bound for the ablation benches).
    pub fn with_ground_truth(
        mapped: &MappedNetwork,
        mask: &PruneMask,
        cost_model: CostModel,
    ) -> Result<Self, FttError> {
        let detections: Vec<LayerDetection> = mapped
            .layers()
            .iter()
            .zip(mapped.ground_truth())
            .map(|(ml, truth)| LayerDetection {
                weight_layer: ml.weight_layer,
                predicted: truth,
                cycles: 0,
                write_pulses: 0,
                untested_groups: 0,
            })
            .collect();
        Self::new(mapped, mask, &detections, cost_model)
    }

    /// Number of permutable neuron groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The total cost `Dist(P, F)` under identity permutations.
    pub fn baseline_cost(&self) -> u64 {
        let perms: Vec<Permutation> = self
            .groups
            .iter()
            .map(|g| Permutation::identity(g.neurons))
            .collect();
        self.cost(&perms)
    }

    /// Evaluates `Dist(P, F)` for a full assignment of group permutations.
    ///
    /// The count decomposes per layer, so the per-layer recounts run on the
    /// [`par`] worker budget (gated on total cell count) and the partials
    /// are summed in layer order — identical to the sequential count.
    ///
    /// # Panics
    ///
    /// Panics if the permutation count or sizes mismatch the groups.
    pub fn cost(&self, perms: &[Permutation]) -> u64 {
        assert_eq!(perms.len(), self.groups.len(), "one permutation per group");
        let est = self
            .layers
            .iter()
            .map(|l| l.rows * l.cols)
            .max()
            .unwrap_or(0);
        par::map_indices(self.layers.len(), est, |li| self.layer_cost(perms, li))
            .into_iter()
            .sum()
    }

    /// The `Dist(P, F)` contribution of one layer under the permutations.
    fn layer_cost(&self, perms: &[Permutation], li: usize) -> u64 {
        let layer = &self.layers[li];
        let mut total = 0u64;
        // The permutation acting on this layer's columns (output side)
        // and on its row blocks (input side).
        let out_perm = self
            .groups
            .iter()
            .position(|g| g.layer == li)
            .map(|gi| &perms[gi]);
        let in_group = self.groups.iter().position(|g| g.layer + 1 == li);
        let in_perm = in_group.map(|gi| (&perms[gi], self.groups[gi].block));
        for i in 0..layer.rows {
            // Logical row i of the hardware receives software row src_i.
            let src_i = match in_perm {
                Some((p, block)) => p.as_slice()[i / block] * block + i % block,
                None => i,
            };
            for j in 0..layer.cols {
                let src_j = match out_perm {
                    Some(p) => p.as_slice()[j],
                    None => j,
                };
                let pruned = layer.pruned[src_i * layer.cols + src_j];
                let fault = layer.fault[i * layer.cols + j];
                if self.cost_model.is_error(pruned, fault) {
                    total += 1;
                }
            }
        }
        total
    }

    /// Cost contribution of one neuron position within a group: the slice
    /// of `layer`'s column `j` plus `layer + 1`'s row block `j`, under the
    /// given permutations. Used for O(rows + block·cols) swap deltas.
    fn neuron_cost(&self, perms: &[Permutation], group_idx: usize, j: usize) -> u64 {
        let group = self.groups[group_idx];
        let li = group.layer;
        let src = perms[group_idx].as_slice()[j];
        let mut total = 0u64;
        // Column j of layer li.
        {
            let layer = &self.layers[li];
            let src_j = src;
            let in_perm = self
                .groups
                .iter()
                .position(|g| g.layer + 1 == li)
                .map(|gi| (&perms[gi], self.groups[gi].block));
            for i in 0..layer.rows {
                let src_i = match in_perm {
                    Some((p, block)) => p.as_slice()[i / block] * block + i % block,
                    None => i,
                };
                let pruned = layer.pruned[src_i * layer.cols + src_j];
                let fault = layer.fault[i * layer.cols + j];
                if self.cost_model.is_error(pruned, fault) {
                    total += 1;
                }
            }
        }
        // Row block j of layer li + 1.
        {
            let layer = &self.layers[li + 1];
            let out_perm = self
                .groups
                .iter()
                .position(|g| g.layer == li + 1)
                .map(|gi| &perms[gi]);
            let src_block = src;
            for b in 0..group.block {
                let i = j * group.block + b;
                let src_i = src_block * group.block + b;
                for c in 0..layer.cols {
                    let src_c = match out_perm {
                        Some(p) => p.as_slice()[c],
                        None => c,
                    };
                    let pruned = layer.pruned[src_i * layer.cols + src_c];
                    let fault = layer.fault[i * layer.cols + c];
                    if self.cost_model.is_error(pruned, fault) {
                        total += 1;
                    }
                }
            }
        }
        total
    }

    /// Runs the configured search and returns the plan (with the group
    /// permutations keyed by weight layer, ready for
    /// [`RemapPlan::apply`]).
    pub fn solve(&self, mapped: &MappedNetwork, config: &RemapConfig) -> RemapPlan {
        let mut rng = sim_rng(config.seed);
        let mut perms: Vec<Permutation> = self
            .groups
            .iter()
            .map(|g| Permutation::identity(g.neurons))
            .collect();
        let initial_cost = self.cost(&perms);
        match config.algorithm {
            RemapAlgorithm::Identity => {}
            RemapAlgorithm::RandomShuffle => {
                for (gi, group) in self.groups.iter().enumerate() {
                    perms[gi] = Permutation::random(group.neurons, &mut rng);
                }
            }
            RemapAlgorithm::SwapHillClimb => {
                if !self.groups.is_empty() {
                    for _ in 0..config.iterations {
                        let gi = rng.gen_range(0..self.groups.len());
                        let n = self.groups[gi].neurons;
                        let a = rng.gen_range(0..n);
                        let b = rng.gen_range(0..n);
                        if a == b {
                            continue;
                        }
                        let before =
                            self.neuron_cost(&perms, gi, a) + self.neuron_cost(&perms, gi, b);
                        perms[gi].swap(a, b);
                        let after =
                            self.neuron_cost(&perms, gi, a) + self.neuron_cost(&perms, gi, b);
                        if after > before {
                            perms[gi].swap(a, b); // revert
                        }
                    }
                }
            }
            RemapAlgorithm::Genetic { population } => {
                let population = population.max(4);
                let generations = (config.iterations / population).max(1);
                // Layer by layer, as in the paper.
                for gi in 0..self.groups.len() {
                    perms[gi] =
                        self.genetic_group(&perms, gi, population, generations, config.seed);
                }
            }
        }
        let final_cost = self.cost(&perms);
        let plan_perms = self
            .groups
            .iter()
            .zip(perms)
            .map(|(g, p)| (mapped.layers()[g.layer].weight_layer, p))
            .collect();
        RemapPlan {
            perms: plan_perms,
            initial_cost,
            final_cost,
        }
    }

    /// GA over one neuron group with the other groups fixed: one
    /// population seeded with the current order, evolved by tournament
    /// selection, order crossover, swap mutation and replace-worst. Returns
    /// the best member (the first wins ties).
    fn genetic_group(
        &self,
        perms: &[Permutation],
        gi: usize,
        population: usize,
        generations: usize,
        seed: u64,
    ) -> Permutation {
        let n = self.groups[gi].neurons;
        // Golden-ratio seed spreading: a distinct sub-stream per group that
        // never collides with the solver's own `sim_rng(seed)` stream (the
        // +1 skips the multiplier-zero case).
        let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((gi + 1) as u64);
        let mut rng = sim_rng(seed.wrapping_add(salt));
        let mut pop: Vec<Permutation> = (0..population)
            .map(|i| {
                if i == 0 {
                    perms[gi].clone()
                } else {
                    Permutation::random(n, &mut rng)
                }
            })
            .collect();
        let mut scores: Vec<u64> = pop
            .iter()
            .map(|p| self.group_fitness(perms, gi, p))
            .collect();
        for _ in 0..generations {
            // Tournament selection of two parents.
            let mut pick = || {
                let a = rng.gen_range(0..population);
                let b = rng.gen_range(0..population);
                if scores[a] <= scores[b] {
                    a
                } else {
                    b
                }
            };
            let (pa, pb) = (pick(), pick());
            let mut child = order_crossover(&pop[pa], &pop[pb], &mut rng);
            // Swap mutation.
            if n >= 2 && rng.gen_bool(0.8) {
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                child.swap(x, y);
            }
            let child_score = self.group_fitness(perms, gi, &child);
            // Replace the worst member (the first wins ties) if the child
            // improves on it.
            let w = (0..population).fold(0, |w, i| if scores[i] > scores[w] { i } else { w });
            if child_score < scores[w] {
                pop[w] = child;
                scores[w] = child_score;
            }
        }
        let best = (0..population).fold(0, |b, i| if scores[i] < scores[b] { i } else { b });
        pop.swap_remove(best)
    }

    /// Fitness of one candidate permutation for group `gi`: `Dist(P, F)`
    /// with the other groups frozen.
    fn group_fitness(&self, perms: &[Permutation], gi: usize, p: &Permutation) -> u64 {
        let mut scratch = perms.to_vec();
        scratch[gi] = p.clone();
        self.cost(&scratch)
    }
}

/// Order crossover (OX) for permutations.
fn order_crossover(a: &Permutation, b: &Permutation, rng: &mut rand::rngs::StdRng) -> Permutation {
    let n = a.len();
    if n < 2 {
        return a.clone();
    }
    let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut child = vec![usize::MAX; n];
    let mut used = vec![false; n];
    for i in lo..=hi {
        child[i] = a.as_slice()[i];
        used[child[i]] = true;
    }
    let mut fill = (hi + 1) % n;
    for k in 0..n {
        let candidate = b.as_slice()[(hi + 1 + k) % n];
        if !used[candidate] {
            child[fill] = candidate;
            used[candidate] = true;
            fill = (fill + 1) % n;
        }
    }
    // OX produces a valid permutation by construction; if that invariant
    // were ever violated, degrade to a clone of parent `a` (a valid
    // individual) rather than panicking mid-search.
    Permutation::from_vec(child).unwrap_or_else(|_| a.clone())
}

/// Convenience entry point: assemble the problem, search, and report.
///
/// # Errors
///
/// Propagates problem-assembly errors; see [`RemapProblem::new`].
pub fn plan_remap(
    mapped: &MappedNetwork,
    mask: &PruneMask,
    detections: &[LayerDetection],
    config: &RemapConfig,
) -> Result<RemapPlan, FttError> {
    let problem = RemapProblem::new(mapped, mask, detections, config.cost)?;
    Ok(problem.solve(mapped, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MappingConfig, MappingScope};
    use nn::init::init_rng;
    use nn::layers::{Dense, Relu};
    use nn::pruning::magnitude_prune;
    use nn::tensor::Tensor;

    fn mlp(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(8, 12, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(12, 4, &mut rng));
        net
    }

    fn mapped_with_faults(net: &mut Network, fraction: f64, seed: u64) -> MappedNetwork {
        MappedNetwork::from_network(
            net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(fraction)
                .with_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn cost_is_zero_when_fault_free() {
        let mut net = mlp(1);
        let mapped = mapped_with_faults(&mut net, 0.0, 1);
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        assert_eq!(problem.baseline_cost(), 0);
        assert_eq!(problem.group_count(), 1);
    }

    #[test]
    fn cost_counts_unpruned_weights_on_faults() {
        let mut net = mlp(2);
        let mapped = mapped_with_faults(&mut net, 0.2, 2);
        // With nothing pruned, every fault is an error under PaperDist.
        let mask = magnitude_prune(&mut net, 0.0);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let total_faults: usize = mapped.ground_truth().iter().map(|m| m.count_faulty()).sum();
        assert_eq!(problem.baseline_cost(), total_faults as u64);
        // With everything pruned, no fault is an error under PaperDist.
        let mask = magnitude_prune(&mut net, 1.0);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        assert_eq!(problem.baseline_cost(), 0);
    }

    #[test]
    fn extended_cost_always_counts_sa1() {
        let mut net = mlp(3);
        let mapped = mapped_with_faults(&mut net, 0.2, 3);
        let mask = magnitude_prune(&mut net, 1.0);
        let problem = RemapProblem::with_ground_truth(&mapped, &mask, CostModel::Extended).unwrap();
        let sa1: usize = mapped
            .ground_truth()
            .iter()
            .map(|m| m.count_kind(FaultKind::StuckAt1))
            .sum();
        assert_eq!(problem.baseline_cost(), sa1 as u64);
    }

    #[test]
    fn hill_climb_reduces_cost() {
        let mut net = mlp(4);
        let mapped = mapped_with_faults(&mut net, 0.15, 4);
        let mask = magnitude_prune(&mut net, 0.6);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let config = RemapConfig {
            algorithm: RemapAlgorithm::SwapHillClimb,
            iterations: 3000,
            ..RemapConfig::default()
        };
        let plan = problem.solve(&mapped, &config);
        assert!(plan.final_cost < plan.initial_cost, "{plan:?}");
    }

    #[test]
    fn genetic_reduces_cost() {
        let mut net = mlp(5);
        let mapped = mapped_with_faults(&mut net, 0.15, 5);
        let mask = magnitude_prune(&mut net, 0.6);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let config = RemapConfig {
            algorithm: RemapAlgorithm::Genetic { population: 8 },
            iterations: 4000,
            ..RemapConfig::default()
        };
        let plan = problem.solve(&mapped, &config);
        assert!(plan.final_cost < plan.initial_cost);
    }

    #[test]
    fn genetic_plan_is_thread_count_invariant() {
        // The GA is sequential; only `cost` may fan out (per layer, summed
        // in layer order), so the winning permutations must not depend on
        // the worker budget.
        let mut net = mlp(11);
        let mapped = mapped_with_faults(&mut net, 0.2, 11);
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let config = RemapConfig {
            algorithm: RemapAlgorithm::Genetic { population: 6 },
            iterations: 2000,
            ..RemapConfig::default()
        };
        let run_with = |threads: usize| {
            par::set_thread_count(threads);
            let plan = problem.solve(&mapped, &config);
            par::set_thread_count(0);
            plan
        };
        let seq = run_with(1);
        let par4 = run_with(4);
        assert_eq!(seq.final_cost, par4.final_cost);
        assert_eq!(seq.perms(), par4.perms(), "identical trajectory required");
    }

    #[test]
    fn swap_delta_matches_full_recount() {
        // The incremental neuron_cost must be consistent with cost(): do a
        // few random swaps and compare deltas.
        let mut net = mlp(6);
        let mapped = mapped_with_faults(&mut net, 0.2, 6);
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let mut rng = sim_rng(7);
        let mut perms: Vec<Permutation> = vec![Permutation::identity(12)];
        for _ in 0..20 {
            let a = rng.gen_range(0..12);
            let b = rng.gen_range(0..12);
            if a == b {
                continue;
            }
            let full_before = problem.cost(&perms);
            let local_before =
                problem.neuron_cost(&perms, 0, a) + problem.neuron_cost(&perms, 0, b);
            perms[0].swap(a, b);
            let full_after = problem.cost(&perms);
            let local_after = problem.neuron_cost(&perms, 0, a) + problem.neuron_cost(&perms, 0, b);
            assert_eq!(
                full_after as i64 - full_before as i64,
                local_after as i64 - local_before as i64,
                "incremental delta must match full recount"
            );
        }
    }

    #[test]
    fn plan_apply_preserves_function_and_mask_alignment() {
        let mut net = mlp(7);
        let mapped = mapped_with_faults(&mut net, 0.15, 7);
        let mut mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let config = RemapConfig {
            algorithm: RemapAlgorithm::SwapHillClimb,
            iterations: 1500,
            ..RemapConfig::default()
        };
        let plan = problem.solve(&mapped, &config);
        let x = Tensor::from_vec(
            vec![2, 8],
            (0..16).map(|i| (i as f32 * 0.2).sin()).collect(),
        );
        let before = net.forward(&x);
        plan.apply(&mut net, &mut mask).unwrap();
        let after = net.forward(&x);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!(
                (a - b).abs() < 1e-4,
                "isomorphism must preserve the function"
            );
        }
        // The mask still marks exactly the zero... well, the *same set* of
        // weights, just re-ordered: sparsity unchanged, and the pruned
        // weights are still the smallest in magnitude.
        assert!((mask.total_sparsity() - 0.5).abs() < 0.01);
        let params = net.layer_params_mut(0).unwrap();
        let lm = &mask.layers()[0];
        let pruned_max = params
            .weights
            .iter()
            .zip(&lm.pruned)
            .filter(|(_, &p)| p)
            .map(|(w, _)| w.abs())
            .fold(0.0f32, f32::max);
        let kept_min = params
            .weights
            .iter()
            .zip(&lm.pruned)
            .filter(|(_, &p)| !p)
            .map(|(w, _)| w.abs())
            .fold(f32::INFINITY, f32::min);
        assert!(
            pruned_max <= kept_min,
            "mask must track its weights through the permutation"
        );
    }

    #[test]
    fn baselines_behave() {
        let mut net = mlp(8);
        let mapped = mapped_with_faults(&mut net, 0.15, 8);
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let id_plan = problem.solve(
            &mapped,
            &RemapConfig {
                algorithm: RemapAlgorithm::Identity,
                ..RemapConfig::default()
            },
        );
        assert!(id_plan.is_identity());
        assert_eq!(id_plan.initial_cost, id_plan.final_cost);
        let hc_plan = problem.solve(
            &mapped,
            &RemapConfig {
                algorithm: RemapAlgorithm::SwapHillClimb,
                iterations: 2000,
                ..RemapConfig::default()
            },
        );
        assert!(hc_plan.final_cost <= id_plan.final_cost);
    }

    #[test]
    fn detection_mismatch_is_rejected() {
        let mut net = mlp(9);
        let mapped = mapped_with_faults(&mut net, 0.1, 9);
        let mask = magnitude_prune(&mut net, 0.5);
        let problem = RemapProblem::new(&mapped, &mask, &[], CostModel::PaperDist);
        assert!(problem.is_err());
    }
}
