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
//! A swap changes `Dist` only in the two moved neurons' slices: their
//! columns of `W(n)` and their row blocks of `W(n+1)`. The search scores
//! it on a bitset kernel built once per search. Per group it keeps the
//! columns as one bitset per *software* neuron over *hardware* rows, the
//! next layer's rows as one bitset per software row over hardware
//! columns, the cells that are errors only under an unpruned weight as
//! bitsets per hardware column and row, and a count per hardware position
//! of the cells that are errors whatever the mask (`CostModel::Extended`'s
//! SA1). Software neuron `s`'s cost at position `j` is then a few
//! `popcount`s of ANDed words plus that count, so a probe never swaps the
//! permutation to look. An accepted swap `(a, b)` of the group on layer
//! `n` also swaps bits `a`, `b` in the row bitsets of the group on layer
//! `n − 1` (whose rows are `W(n)`), and bit blocks `a`, `b` in the column
//! bitsets of the group on layer `n + 1` (whose columns are `W(n+1)`).
//! The plans equal those of [`RemapProblem::solve_reference`], the
//! cell-by-cell recount the kernel replaced (DESIGN.md §6.8).

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

    /// [`CostModel::is_error`] split the way the swap kernel counts it:
    /// `Some(true)` for a cell that is an error whatever the mask,
    /// `Some(false)` for one that is an error only under an unpruned
    /// weight, `None` for one that never is.
    #[inline]
    fn always_error(&self, fault: Option<FaultKind>) -> Option<bool> {
        match (self, fault) {
            (_, None) => None,
            (CostModel::Extended, Some(FaultKind::StuckAt1)) => Some(true),
            (_, Some(_)) => Some(false),
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
    /// the mapping: one per mapped layer, in order, each the layer's shape.
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
            let shape = (det.predicted.rows(), det.predicted.cols());
            if shape != (ml.rows, ml.cols) {
                return Err(FttError::InvalidConfig(format!(
                    "detection for weight layer {} is {}x{}, the layer is {}x{}",
                    ml.weight_layer, shape.0, shape.1, ml.rows, ml.cols
                )));
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
        self.cost(&self.identity())
    }

    /// The identity permutation of every group.
    fn identity(&self) -> Vec<Permutation> {
        self.groups
            .iter()
            .map(|g| Permutation::identity(g.neurons))
            .collect()
    }

    /// Evaluates `Dist(P, F)` for a full assignment of group permutations:
    /// the sum of the per-layer counts.
    ///
    /// # Panics
    ///
    /// Panics if the permutation count or sizes mismatch the groups.
    pub fn cost(&self, perms: &[Permutation]) -> u64 {
        assert_eq!(perms.len(), self.groups.len(), "one permutation per group");
        (0..self.layers.len())
            .map(|li| self.layer_cost(perms, li))
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
    /// given permutations, recounted cell by cell (O(rows + block·cols)).
    /// The reference probe: `GroupLines::cost` must equal it.
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
    ///
    /// The swap probes and the GA's fitness read a bitset kernel built
    /// once per search (see the module docs). The plan — every
    /// permutation and both costs — equals
    /// [`RemapProblem::solve_reference`]'s.
    pub fn solve(&self, mapped: &MappedNetwork, config: &RemapConfig) -> RemapPlan {
        self.search::<SwapKernel>(mapped, config)
    }

    /// The search [`RemapProblem::solve`] replaced, kept as its oracle: the
    /// same RNG draws and accept rule, with each swap scored by two
    /// `neuron_cost` recounts and each GA candidate by a full
    /// [`RemapProblem::cost`]. The flow never calls it.
    pub fn solve_reference(&self, mapped: &MappedNetwork, config: &RemapConfig) -> RemapPlan {
        self.search::<Recount<'_>>(mapped, config)
    }

    fn search<'a, S: Scorer<'a>>(
        &'a self,
        mapped: &MappedNetwork,
        config: &RemapConfig,
    ) -> RemapPlan {
        let mut rng = sim_rng(config.seed);
        let identity = self.identity();
        let (initial_cost, final_cost, perms) = match config.algorithm {
            RemapAlgorithm::Identity => {
                let cost = self.cost(&identity);
                (cost, cost, identity)
            }
            RemapAlgorithm::RandomShuffle => {
                let perms = self
                    .groups
                    .iter()
                    .map(|g| Permutation::random(g.neurons, &mut rng))
                    .collect::<Vec<_>>();
                (self.cost(&identity), self.cost(&perms), perms)
            }
            RemapAlgorithm::SwapHillClimb => {
                let mut scorer = S::new(self);
                let initial_cost = scorer.total_cost();
                if !self.groups.is_empty() {
                    for _ in 0..config.iterations {
                        let gi = rng.gen_range(0..self.groups.len());
                        let n = self.groups[gi].neurons;
                        let a = rng.gen_range(0..n);
                        let b = rng.gen_range(0..n);
                        if a == b {
                            continue;
                        }
                        scorer.try_swap(gi, a, b);
                    }
                }
                (initial_cost, scorer.total_cost(), scorer.into_perms())
            }
            RemapAlgorithm::Genetic { population } => {
                let population = population.max(4);
                let generations = (config.iterations / population).max(1);
                let mut scorer = S::new(self);
                let initial_cost = scorer.total_cost();
                // Layer by layer, as in the paper.
                for gi in 0..self.groups.len() {
                    let best = genetic_group(
                        &scorer.perms()[gi],
                        gi,
                        population,
                        generations,
                        config.seed,
                        |p| scorer.group_cost(gi, p),
                    );
                    scorer.install(gi, best);
                }
                (initial_cost, scorer.total_cost(), scorer.into_perms())
            }
        };
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
}

/// How a search scores its moves: [`SwapKernel`], or the [`Recount`]
/// reference it must agree with.
trait Scorer<'a>: Sized {
    /// Starts from the identity order of every group of `problem`.
    fn new(problem: &'a RemapProblem) -> Self;
    fn perms(&self) -> &[Permutation];
    fn into_perms(self) -> Vec<Permutation>;
    /// `Dist(P, F)` under the current permutations.
    fn total_cost(&self) -> u64;
    /// Exchanges neurons `a` and `b` of group `gi` unless that raises
    /// `Dist(P, F)`.
    fn try_swap(&mut self, gi: usize, a: usize, b: usize);
    /// `Dist(P, F)` with group `gi` set to `p` and the other groups as they
    /// are, up to a constant that depends only on the other groups.
    fn group_cost(&self, gi: usize, p: &Permutation) -> u64;
    /// Sets group `gi`'s permutation.
    fn install(&mut self, gi: usize, p: Permutation);
}

/// The reference scorer: `neuron_cost` probes and full recounts.
struct Recount<'a> {
    problem: &'a RemapProblem,
    perms: Vec<Permutation>,
}

impl<'a> Scorer<'a> for Recount<'a> {
    fn new(problem: &'a RemapProblem) -> Self {
        Self {
            problem,
            perms: problem.identity(),
        }
    }

    fn perms(&self) -> &[Permutation] {
        &self.perms
    }

    fn into_perms(self) -> Vec<Permutation> {
        self.perms
    }

    fn try_swap(&mut self, gi: usize, a: usize, b: usize) {
        let p = self.problem;
        let before = p.neuron_cost(&self.perms, gi, a) + p.neuron_cost(&self.perms, gi, b);
        self.perms[gi].swap(a, b);
        let after = p.neuron_cost(&self.perms, gi, a) + p.neuron_cost(&self.perms, gi, b);
        if after > before {
            self.perms[gi].swap(a, b); // revert
        }
    }

    fn total_cost(&self) -> u64 {
        self.problem.cost(&self.perms)
    }

    fn group_cost(&self, gi: usize, p: &Permutation) -> u64 {
        let mut scratch = self.perms.clone();
        scratch[gi] = p.clone();
        self.problem.cost(&scratch)
    }

    fn install(&mut self, gi: usize, p: Permutation) {
        self.perms[gi] = p;
    }
}

/// One side of a layer as bitsets: a line per *software* neuron (or row)
/// over the *hardware* positions, and a line per *hardware* neuron (or
/// row) over the same positions.
#[derive(Debug, Clone)]
struct LineSet {
    /// `u64` words per line.
    words: usize,
    /// Bit `h` of software line `s`: the weight of `s` that sits at
    /// hardware position `h` is unpruned.
    unpruned: Vec<u64>,
    /// Bit `h` of hardware line `j`: cell `(j, h)` is an error iff the
    /// weight on it is unpruned.
    faulty: Vec<u64>,
}

impl LineSet {
    /// A layer in the identity order (software line = hardware line): one
    /// line per column over the rows when `by_column`, else one per row
    /// over the columns. Also returns each line's count of cells that are
    /// errors whatever the mask.
    fn of_layer(layer: &RemapLayer, model: CostModel, by_column: bool) -> (Self, Vec<u64>) {
        let (lines, positions) = if by_column {
            (layer.cols, layer.rows)
        } else {
            (layer.rows, layer.cols)
        };
        let words = positions.div_ceil(64);
        let mut set = Self {
            words,
            unpruned: vec![0; lines * words],
            faulty: vec![0; lines * words],
        };
        let mut always = vec![0u64; lines];
        let rows = layer
            .pruned
            .chunks_exact(layer.cols)
            .zip(layer.fault.chunks_exact(layer.cols));
        for (r, (pruned, fault)) in rows.enumerate() {
            for (c, (&p, &f)) in pruned.iter().zip(fault).enumerate() {
                let (line, pos) = if by_column { (c, r) } else { (r, c) };
                let (at, bit) = (line * words + pos / 64, 1u64 << (pos % 64));
                set.unpruned[at] |= bit * u64::from(!p);
                match model.always_error(f) {
                    Some(true) => always[line] += 1,
                    Some(false) => set.faulty[at] |= bit,
                    None => {}
                }
            }
        }
        (set, always)
    }

    /// Errors of software lines `s..s + n` placed on hardware lines
    /// `j..j + n`, counting the cells that need an unpruned weight.
    #[inline]
    fn overlap(&self, s: usize, j: usize, n: usize) -> u64 {
        let len = n * self.words;
        let u = &self.unpruned[s * self.words..][..len];
        let f = &self.faulty[j * self.words..][..len];
        u.iter()
            .zip(f)
            .map(|(u, f)| u64::from((u & f).count_ones()))
            .sum()
    }

    /// Exchanges the software weights at hardware positions `x` and `y` in
    /// every software line.
    fn swap_positions(&mut self, x: usize, y: usize) {
        let (wx, bx, wy, by) = (x / 64, x % 64, y / 64, y % 64);
        for line in self.unpruned.chunks_exact_mut(self.words) {
            let differ = ((line[wx] >> bx) ^ (line[wy] >> by)) & 1;
            line[wx] ^= differ << bx;
            line[wy] ^= differ << by;
        }
    }
}

/// One neuron group in bitsets: the columns of `layer` and the row
/// blocks of `layer + 1`.
#[derive(Debug, Clone)]
struct GroupLines {
    block: usize,
    /// The group whose row side is this group's column layer.
    prev: Option<usize>,
    /// The group whose column side is this group's row layer.
    next: Option<usize>,
    /// `layer`'s columns over its hardware rows.
    cols: LineSet,
    /// `layer + 1`'s rows over its hardware columns.
    rows: LineSet,
    /// Per hardware position: the cells of its column and row block that
    /// are errors whatever the mask (`CostModel::Extended`'s SA1).
    always: Vec<u64>,
}

impl GroupLines {
    /// `neuron_cost` of software neuron `s` at hardware position `j`.
    #[inline]
    fn cost(&self, s: usize, j: usize) -> u64 {
        self.cols.overlap(s, j, 1)
            + self
                .rows
                .overlap(s * self.block, j * self.block, self.block)
            + self.always[j]
    }
}

/// `Dist(P, F)` that follows the swaps: each group's cost per (software
/// neuron, hardware position) as a few `popcount`s, kept exact across
/// accepted swaps (module docs).
#[derive(Debug, Clone)]
struct SwapKernel {
    perms: Vec<Permutation>,
    groups: Vec<GroupLines>,
    /// The part of `Dist(P, F)` no permutation moves: every error cell of
    /// the layers outside all groups, and the always-error cells of the
    /// rest.
    fixed: u64,
}

impl SwapKernel {
    /// Exchanges neurons `a` and `b` of group `gi`: the permutation, and
    /// the bitsets of the neighbouring groups that read its order.
    fn swap(&mut self, gi: usize, a: usize, b: usize) {
        self.perms[gi].swap(a, b);
        let (block, prev, next) = {
            let g = &self.groups[gi];
            (g.block, g.prev, g.next)
        };
        if let Some(p) = prev {
            self.groups[p].rows.swap_positions(a, b);
        }
        if let Some(n) = next {
            for k in 0..block {
                self.groups[n]
                    .cols
                    .swap_positions(a * block + k, b * block + k);
            }
        }
    }
}

impl<'a> Scorer<'a> for SwapKernel {
    fn new(problem: &'a RemapProblem) -> Self {
        let model = problem.cost_model;
        let perms = problem.identity();
        let mut fixed = 0;
        let groups: Vec<GroupLines> = problem
            .groups
            .iter()
            .map(|g| {
                let (cols, col_always) = LineSet::of_layer(&problem.layers[g.layer], model, true);
                let (rows, row_always) =
                    LineSet::of_layer(&problem.layers[g.layer + 1], model, false);
                let next = problem.groups.iter().position(|n| n.layer == g.layer + 1);
                // Each layer once: as a group's column side, or else as the
                // row side of the group before it.
                fixed += col_always.iter().sum::<u64>();
                if next.is_none() {
                    fixed += row_always.iter().sum::<u64>();
                }
                let always = col_always
                    .iter()
                    .zip(row_always.chunks_exact(g.block))
                    .map(|(c, r)| c + r.iter().sum::<u64>())
                    .collect();
                GroupLines {
                    block: g.block,
                    prev: problem.groups.iter().position(|p| p.layer + 1 == g.layer),
                    next,
                    cols,
                    rows,
                    always,
                }
            })
            .collect();
        let touched = |li: usize| {
            problem
                .groups
                .iter()
                .any(|g| li == g.layer || li == g.layer + 1)
        };
        fixed += (0..problem.layers.len())
            .filter(|&li| !touched(li))
            .map(|li| problem.layer_cost(&perms, li))
            .sum::<u64>();
        Self {
            perms,
            groups,
            fixed,
        }
    }

    fn perms(&self) -> &[Permutation] {
        &self.perms
    }

    fn into_perms(self) -> Vec<Permutation> {
        self.perms
    }

    fn try_swap(&mut self, gi: usize, a: usize, b: usize) {
        let g = &self.groups[gi];
        let p = self.perms[gi].as_slice();
        let (sa, sb) = (p[a], p[b]);
        let before = g.cost(sa, a) + g.cost(sb, b);
        let after = g.cost(sb, a) + g.cost(sa, b);
        if after <= before {
            self.swap(gi, a, b);
        }
    }

    fn total_cost(&self) -> u64 {
        let moved: u64 = self
            .groups
            .iter()
            .zip(&self.perms)
            .map(|(g, p)| {
                let placed = p.as_slice().iter().enumerate();
                let cols: u64 = placed.clone().map(|(j, &s)| g.cols.overlap(s, j, 1)).sum();
                let rows: u64 = match g.next {
                    Some(_) => 0,
                    None => placed
                        .map(|(j, &s)| g.rows.overlap(s * g.block, j * g.block, g.block))
                        .sum(),
                };
                cols + rows
            })
            .sum();
        self.fixed + moved
    }

    fn group_cost(&self, gi: usize, p: &Permutation) -> u64 {
        let g = &self.groups[gi];
        p.as_slice()
            .iter()
            .enumerate()
            .map(|(j, &s)| g.cost(s, j))
            .sum()
    }

    /// Reaches `p` by swaps, so the neighbouring bitsets follow as they do
    /// on an accepted swap.
    fn install(&mut self, gi: usize, p: Permutation) {
        let mut at = self.perms[gi].inverse().as_slice().to_vec();
        for (j, &s) in p.as_slice().iter().enumerate() {
            let k = at[s];
            if k != j {
                let moved = self.perms[gi].as_slice()[j];
                self.swap(gi, j, k);
                at[moved] = k;
                at[s] = j;
            }
        }
    }
}

/// GA over one neuron group with the other groups fixed: one population
/// seeded with `current`, evolved by tournament selection, order
/// crossover, swap mutation and replace-worst under `fitness` (lower is
/// better; only comparisons between candidates matter). Returns the best
/// member (the first wins ties).
fn genetic_group(
    current: &Permutation,
    gi: usize,
    population: usize,
    generations: usize,
    seed: u64,
    fitness: impl Fn(&Permutation) -> u64,
) -> Permutation {
    let n = current.len();
    // Golden-ratio seed spreading: a distinct sub-stream per group that
    // never collides with the solver's own `sim_rng(seed)` stream (the
    // +1 skips the multiplier-zero case).
    let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((gi + 1) as u64);
    let mut rng = sim_rng(seed.wrapping_add(salt));
    let mut pop: Vec<Permutation> = (0..population)
        .map(|i| {
            if i == 0 {
                current.clone()
            } else {
                Permutation::random(n, &mut rng)
            }
        })
        .collect();
    let mut scores: Vec<u64> = pop.iter().map(&fitness).collect();
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
        let child_score = fitness(&child);
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
    use nn::layers::{Conv2d, Dense, Flatten, Relu};
    use nn::pruning::magnitude_prune;
    use nn::tensor::Tensor;
    use rram::fault::FaultMap;

    fn mlp(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(8, 12, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(12, 4, &mut rng));
        net
    }

    /// Two neuron groups (12 and 6 neurons, `block` 1).
    fn mlp3(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Dense::new(8, 12, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(12, 6, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(6, 4, &mut rng));
        net
    }

    /// conv → conv → flatten → dense → dense on 4×4 inputs: three chained
    /// groups with `block` 9, 16 and 1. The middle layers are each a row
    /// side and a column side, and the 96-row dense layer spans two words.
    fn cnn(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Conv2d::new(4, 6, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Dense::new(6 * 16, 5, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(5, 3, &mut rng));
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
    fn swap_delta_matches_full_recount() {
        // The incremental neuron_cost must be consistent with cost(): do a
        // few random swaps and compare deltas, on one group and on two.
        for (seed, mut net) in [(6, mlp(6)), (16, mlp3(16))] {
            let mapped = mapped_with_faults(&mut net, 0.2, seed);
            let mask = magnitude_prune(&mut net, 0.5);
            let problem =
                RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
            let mut rng = sim_rng(7);
            let mut perms = problem.identity();
            for _ in 0..40 {
                let gi = rng.gen_range(0..perms.len());
                let n = perms[gi].len();
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a == b {
                    continue;
                }
                let full_before = problem.cost(&perms);
                let local_before =
                    problem.neuron_cost(&perms, gi, a) + problem.neuron_cost(&perms, gi, b);
                perms[gi].swap(a, b);
                let full_after = problem.cost(&perms);
                let local_after =
                    problem.neuron_cost(&perms, gi, a) + problem.neuron_cost(&perms, gi, b);
                assert_eq!(
                    full_after as i64 - full_before as i64,
                    local_after as i64 - local_before as i64,
                    "incremental delta must match full recount"
                );
            }
        }
    }

    /// Every (group, position) cost the kernel holds equals `neuron_cost`
    /// after each swap of a random sequence and each whole-permutation
    /// install. A plan comparison alone would miss a kernel that drops
    /// the always-error counts: they cancel between a probe's two sides.
    #[test]
    fn kernel_cost_tracks_neuron_cost_across_swaps() {
        let check = |problem: &RemapProblem, kernel: &SwapKernel| {
            assert_eq!(kernel.total_cost(), problem.cost(&kernel.perms));
            for (gi, g) in kernel.groups.iter().enumerate() {
                for (j, &s) in kernel.perms[gi].as_slice().iter().enumerate() {
                    assert_eq!(
                        g.cost(s, j),
                        problem.neuron_cost(&kernel.perms, gi, j),
                        "group {gi}, position {j}"
                    );
                }
            }
        };
        for (seed, mut net) in [(21, mlp3(21)), (22, cnn(22))] {
            let mapped = mapped_with_faults(&mut net, 0.3, seed);
            let mask = magnitude_prune(&mut net, 0.5);
            for model in [CostModel::PaperDist, CostModel::Extended] {
                let problem = RemapProblem::with_ground_truth(&mapped, &mask, model).unwrap();
                let mut kernel = SwapKernel::new(&problem);
                assert_eq!(
                    kernel
                        .groups
                        .iter()
                        .any(|g| g.always.iter().any(|&c| c > 0)),
                    model == CostModel::Extended,
                    "the case must hold always-error cells exactly under Extended"
                );
                check(&problem, &kernel);
                let mut rng = sim_rng(seed);
                for _ in 0..150 {
                    let gi = rng.gen_range(0..kernel.perms.len());
                    let n = kernel.perms[gi].len();
                    kernel.swap(gi, rng.gen_range(0..n), rng.gen_range(0..n));
                    check(&problem, &kernel);
                }
                for gi in 0..kernel.perms.len() {
                    let p = Permutation::random(kernel.perms[gi].len(), &mut rng);
                    kernel.install(gi, p.clone());
                    assert_eq!(kernel.perms[gi], p);
                    check(&problem, &kernel);
                }
            }
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

    /// A detection map of another shape than its layer is an error, not an
    /// out-of-bounds panic (taller map) or faults shifted into the next
    /// row (wider map).
    #[test]
    fn detection_of_another_shape_is_rejected() {
        let mut net = mlp(10);
        let mapped = mapped_with_faults(&mut net, 0.1, 10);
        let mask = magnitude_prune(&mut net, 0.5);
        let detections = |rows: usize, cols: usize| -> Vec<LayerDetection> {
            mapped
                .layers()
                .iter()
                .zip(mapped.ground_truth())
                .map(|(ml, truth)| {
                    let predicted = if ml.weight_layer == 0 {
                        let mut map = FaultMap::healthy(rows, cols);
                        map.set(rows - 1, cols - 1, Some(FaultKind::StuckAt0));
                        map
                    } else {
                        truth
                    };
                    LayerDetection {
                        weight_layer: ml.weight_layer,
                        predicted,
                        cycles: 0,
                        write_pulses: 0,
                        untested_groups: 0,
                    }
                })
                .collect()
        };
        for (rows, cols) in [(9, 12), (8, 13), (7, 12), (8, 11)] {
            let err = RemapProblem::new(
                &mapped,
                &mask,
                &detections(rows, cols),
                CostModel::PaperDist,
            )
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid configuration: detection for weight layer 0 is \
                     {rows}x{cols}, the layer is 8x12"
                )
            );
        }
        assert!(
            RemapProblem::new(&mapped, &mask, &detections(8, 12), CostModel::PaperDist).is_ok()
        );
    }
}
