//! Mapping a network's weight matrices onto the tiled RRAM chip.
//!
//! Each mapped weight layer is sharded into crossbar tiles of at most
//! `tile_size × tile_size` cells (inputs on rows, output neurons on
//! columns). One *logical cell per weight* stores the weight magnitude as a
//! normalized conductance (`g = |w| / w_max`); the sign lives in the digital
//! periphery. This is exactly the granularity the paper's re-mapping
//! reasons at: a pruned zero weight corresponds to a minimum-conductance
//! cell, which is why a zero can *reuse* an SA0 cell, and an SA1 fault pins
//! the weight at full scale.
//!
//! The physical arrays live in an [`ftt_tile::TiledChip`], which owns the
//! arrays, the spare pool, and the retirement policy. A layer places each
//! coding polarity through one [`ftt_tile::TiledMapping`] (chip-global
//! tile ids in row-major shard order), so sparing re-points one id. Tile
//! seeds follow allocation order (the chip's
//! `seed · 0x9E37_79B9 + counter` stream).
//!
//! The mapped network is the single point through which training touches
//! hardware: effective (fault- and variation-corrupted) weights are read
//! back into the software network before every forward pass, and every
//! weight update is an analog write that consumes endurance.

use std::collections::BTreeSet;

use faultdet::detector::OnlineFaultDetector;
use ftt_tile::{ChipConfig, ChipState, Shard, SpareOutcome, TiledChip, TiledMapping};
use nn::network::Network;
use rram::cell::WriteOutcome;
use rram::crossbar::Crossbar;
use rram::fault::{FaultKind, FaultMap};
use rram::spatial::FaultInjection;

use crate::config::{MappingConfig, MappingScope, WeightCoding};
use crate::error::FttError;

/// Full-scale weight magnitude as a multiple of each layer's initial max
/// |w|: headroom for weight growth during training. Larger factors make
/// every SA1 cell an extreme outlier (DESIGN.md §2).
const W_MAX_FACTOR: f64 = 2.0;

/// Programmable levels per cell (test-phase view; training writes are
/// analog): the simulator's multi-level cells have 8 levels (DESIGN.md
/// §2).
const LEVELS: u16 = 8;

/// The cell of a weight's coding that one shard grid holds.
#[derive(Debug, Clone, Copy)]
enum Polarity {
    /// Unipolar coding's only cell: `|w|` (the sign lives in the periphery).
    Magnitude,
    /// Differential coding's positive cell: `max(w, 0)`.
    Positive,
    /// Differential coding's negative cell: `max(−w, 0)`.
    Negative,
}

/// One weight layer placed on RRAM.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// Position among the network's weight layers (0-based).
    pub weight_layer: usize,
    /// Raw layer index inside the [`Network`].
    pub layer_index: usize,
    /// Logical weight-matrix rows (crossbar inputs).
    pub rows: usize,
    /// Logical weight-matrix columns (output neurons).
    pub cols: usize,
    /// Full-scale weight magnitude for this layer.
    pub w_max: f64,
    signs: Vec<i8>,
    /// The *software* weight state (Algorithm 1's `Current_w`): what
    /// training intends each cell to hold. Stuck cells silently refuse the
    /// writes, so the effective (hardware) weights diverge from these.
    targets: Vec<f32>,
    /// The magnitude (unipolar) or positive-polarity (differential) cells.
    tiles: TiledMapping,
    /// The negative-polarity cells under differential coding, on the same
    /// grid as `tiles`; `None` for unipolar coding.
    neg_tiles: Option<TiledMapping>,
}

impl MappedLayer {
    /// Whether this layer uses differential (two-cell) coding.
    pub fn is_differential(&self) -> bool {
        self.neg_tiles.is_some()
    }

    /// The weight → conductance coding, for the cell of `polarity` at
    /// full scale `w_max`: unipolar coding stores `|w| / w_max`;
    /// differential coding stores `w⁺ / w_max` and `w⁻ / w_max` on a cell
    /// pair (arXiv 2106.09166). Magnitudes beyond full scale clamp to 1.
    fn conductance(w: f32, polarity: Polarity, w_max: f64) -> f64 {
        let w = f64::from(w);
        let magnitude = match polarity {
            Polarity::Magnitude => w.abs(),
            Polarity::Positive => w.max(0.0),
            Polarity::Negative => (-w).max(0.0),
        };
        (magnitude / w_max).min(1.0)
    }

    /// The layer's shard grids with the polarity each holds: the magnitude
    /// grid alone, or the positive grid then the negative one.
    fn grids(&self) -> impl Iterator<Item = (Polarity, &TiledMapping)> {
        let first = if self.is_differential() {
            Polarity::Positive
        } else {
            Polarity::Magnitude
        };
        std::iter::once((first, &self.tiles))
            .chain(self.neg_tiles.iter().map(|n| (Polarity::Negative, n)))
    }

    /// Every shard of every grid with the id of its tile, positive grid
    /// first.
    fn shards(&self) -> impl Iterator<Item = (Shard, usize)> + '_ {
        self.grids().flat_map(|(_, grid)| grid.shards())
    }

    /// The tile backing weight `idx` (row-major) on `grid`, and the
    /// weight's cell on it: `(id, row, col)`.
    fn locate(&self, grid: &TiledMapping, idx: usize) -> Result<(usize, usize, usize), FttError> {
        grid.locate(idx / self.cols, idx % self.cols)
            .ok_or_else(|| {
                FttError::InvalidConfig(format!(
                    "weight index {idx} out of range for {}x{} layer",
                    self.rows, self.cols
                ))
            })
    }

    /// The effective weight currently realized by the hardware at the given
    /// logical coordinates (includes faults and write variation).
    ///
    /// Kept as the per-cell reference for
    /// [`MappedNetwork::load_effective_weights`], whose plane-backed bulk
    /// copy must reproduce this value bit-for-bit (asserted in tests).
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "per-cell reference read only by the tests")
    )]
    #[expect(
        clippy::expect_used,
        reason = "test-only reference path; callers pass coordinates inside \
                  the layer, whose grids only hold tiles of the chip"
    )]
    fn effective(&self, chip: &TiledChip, row: usize, col: usize) -> f64 {
        let read = |grid: &TiledMapping| {
            let (id, r, c) = grid.locate(row, col).expect("cell inside the layer");
            chip.tile(id)
                .expect("mapped tile exists on the chip")
                .conductance(r, c)
                .expect("tile coordinates are in range by construction")
        };
        let g = read(&self.tiles);
        match &self.neg_tiles {
            Some(neg) => (g - read(neg)) * self.w_max,
            None => f64::from(self.signs[row * self.cols + col]) * g * self.w_max,
        }
    }

    /// Ground-truth fault map of this layer in logical coordinates. Under
    /// differential coding a logical cell is faulty when *either* polarity
    /// cell is stuck; SA1 (the severe kind — it pins full-scale current)
    /// wins when the pair disagrees.
    pub fn fault_map(&self, chip: &TiledChip) -> FaultMap {
        let mut map = FaultMap::healthy(self.rows, self.cols);
        for (shard, id) in self.shards() {
            let Ok(xbar) = chip.tile(id) else {
                continue;
            };
            for (r, c, kind) in xbar.fault_map().iter_faulty() {
                merge_fault(&mut map, shard.row0 + r, shard.col0 + c, kind);
            }
        }
        map
    }

    /// Fraction of this layer's *physical* cells carrying hard faults.
    pub fn fraction_faulty(&self, chip: &TiledChip) -> f64 {
        let faulty: usize = self
            .shards()
            .filter_map(|(_, id)| chip.tile(id).ok())
            .map(|x| x.fault_map().count_faulty())
            .sum();
        let cells = self.rows * self.cols * if self.is_differential() { 2 } else { 1 };
        faulty as f64 / cells as f64
    }

    /// The software (intended) weights, row-major.
    pub fn targets(&self) -> &[f32] {
        &self.targets
    }
}

/// Marks logical cell `(row, col)` of `map` faulty with `kind`. The two
/// cells of a differential pair merge onto one logical cell: SA1 (the
/// severe kind — it pins full-scale current) wins when they disagree.
fn merge_fault(map: &mut FaultMap, row: usize, col: usize, kind: FaultKind) {
    let merged = match (map.get(row, col), kind) {
        (Some(FaultKind::StuckAt1), _) | (_, FaultKind::StuckAt1) => FaultKind::StuckAt1,
        _ => FaultKind::StuckAt0,
    };
    map.set(row, col, Some(merged));
}

/// The outcome one weight's write reports: its only cell's, or for a
/// differential pair the more severe of the two — a wear-out on either
/// side, then a stuck cell on either side, then the positive cell's.
fn merge_outcomes(cells: &[WriteOutcome]) -> WriteOutcome {
    match *cells {
        [cell] => cell,
        [pos, neg] => match (pos, neg) {
            (WriteOutcome::WoreOut(k), _) | (_, WriteOutcome::WoreOut(k)) => {
                WriteOutcome::WoreOut(k)
            }
            (WriteOutcome::Stuck(k), _) | (_, WriteOutcome::Stuck(k)) => WriteOutcome::Stuck(k),
            (p, _) => p,
        },
        _ => WriteOutcome::NoChange,
    }
}

/// Result of running the on-line detector over one mapped layer.
#[derive(Debug, Clone)]
pub struct LayerDetection {
    /// Position among the network's weight layers.
    pub weight_layer: usize,
    /// Predicted fault map in logical layer coordinates.
    pub predicted: FaultMap,
    /// Total test cycles over the layer's tiles (tiles test sequentially).
    pub cycles: u64,
    /// Write pulses the detection itself spent.
    pub write_pulses: u64,
    /// Group sweeps that failed and were skipped across this layer's tiles,
    /// plus whole tiles whose campaign errored out — both degrade coverage
    /// instead of aborting the campaign (see
    /// [`faultdet::detector::DetectionOutcome::untested_groups`]).
    pub untested_groups: u64,
}

/// Aggregate result of one tile-sparing pass (see
/// [`MappedNetwork::apply_sparing_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparingOutcome {
    /// Tiles retired this pass.
    pub tiles_retired: u64,
    /// Spares attached this pass (equals `tiles_retired`).
    pub spares_attached: u64,
    /// Tiles over the threshold left in service because the pool is empty.
    pub spares_exhausted: u64,
    /// Test cycles spent verifying freshly attached spares.
    pub verify_cycles: u64,
    /// Write pulses spent by the verification campaigns.
    pub verify_write_pulses: u64,
    /// Write pulses spent programming the spares with the shard targets.
    pub reprogram_pulses: u64,
}

/// The error raised when a `MappedNetwork` operation is handed a network
/// whose layer at `layer_index` carries no parameters — i.e. a network the
/// mapping was not built from.
fn foreign_network_error(layer_index: usize) -> FttError {
    FttError::InvalidConfig(format!(
        "mapped layer {layer_index} has no parameters in this network \
         (mapping built from a different network?)"
    ))
}

/// Verify-then-write: reprogram one cell only when it drifted beyond
/// `epsilon` of the target conductance.
fn verify_write(
    xbar: &mut Crossbar,
    row: usize,
    col: usize,
    g: f64,
    epsilon: f64,
    writes: &mut u64,
) -> Result<(), FttError> {
    let current = xbar.conductance(row, col)?;
    if (current - g).abs() > epsilon {
        let outcome = xbar.write_analog(row, col, g)?;
        if outcome.changed() {
            *writes += 1;
        }
    }
    Ok(())
}

/// Translates the mapping config into the chip's own config — used both
/// by the initial mapper and by checkpoint restore, which must rebuild
/// the chip under the exact same policies (endurance, variation, spare
/// screening, retirement threshold).
fn chip_config(config: &MappingConfig) -> Result<ChipConfig, FttError> {
    let mut chip_cfg = ChipConfig::new(config.tile_size, LEVELS, config.seed)
        .with_endurance(config.endurance)
        .with_variation(config.variation)
        .with_spare_tiles(config.spare_tiles);
    if config.initial_fault_fraction > 0.0 {
        let injection =
            FaultInjection::new(config.fault_distribution, config.initial_fault_fraction)?
                .with_sa0_prob(config.initial_sa0_prob)?;
        chip_cfg = chip_cfg.with_injection(injection);
    }
    if let Some(density) = config.retire_fault_density {
        chip_cfg = chip_cfg.with_retire_fault_density(density);
    }
    Ok(chip_cfg)
}

/// Plain-data capture of one [`MappedLayer`], for checkpointing. Shard
/// entries are `(row0, col0, chip_tile_id)` in the mapper's row-major
/// grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedLayerState {
    /// Position among the network's weight layers.
    pub weight_layer: usize,
    /// Raw layer index inside the network.
    pub layer_index: usize,
    /// Logical weight-matrix rows.
    pub rows: usize,
    /// Logical weight-matrix columns.
    pub cols: usize,
    /// Full-scale weight magnitude.
    pub w_max: f64,
    /// Periphery sign bits (unipolar coding).
    pub signs: Vec<i8>,
    /// Software (intended) weights, row-major.
    pub targets: Vec<f32>,
    /// Positive-polarity shards: `(row0, col0, chip_tile_id)`.
    pub tiles: Vec<(usize, usize, usize)>,
    /// Negative-polarity shards (empty for unipolar coding).
    pub neg_tiles: Vec<(usize, usize, usize)>,
}

/// Rebuilds one polarity's shard map of captured layer `li` from its
/// `(row0, col0, id)` entries: the ids must back the layer's shard grid
/// tile for shard, and each captured origin must be its shard's.
fn restore_grid(
    chip: &TiledChip,
    li: usize,
    l: &MappedLayerState,
    shards: &[(usize, usize, usize)],
) -> Result<TiledMapping, FttError> {
    let incoherent = |what: String| FttError::InvalidConfig(format!("snapshot layer {li}: {what}"));
    let ids = shards.iter().map(|&(_, _, id)| id).collect();
    let grid = TiledMapping::from_tile_ids(chip, l.rows, l.cols, ids)
        .map_err(|e| incoherent(e.to_string()))?;
    for ((shard, _), &(row0, col0, _)) in grid.shards().zip(shards) {
        if (row0, col0) != (shard.row0, shard.col0) {
            return Err(incoherent(format!(
                "shard origin ({row0},{col0}) where the grid has ({},{})",
                shard.row0, shard.col0
            )));
        }
    }
    Ok(grid)
}

/// Complete capture of a [`MappedNetwork`]: the chip (every tile's cells,
/// wear, journal, campaign outcomes, stores, spare pool) plus each mapped
/// layer's logical placement and software weight state. The
/// [`MappingConfig`] is *not* part of the state — restore is handed the
/// same config the run was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedState {
    /// The tiled chip's full state.
    pub chip: ChipState,
    /// Per-layer placement and software weights.
    pub layers: Vec<MappedLayerState>,
}

/// A network whose selected weight layers live on a simulated tiled RRAM
/// chip.
#[derive(Debug)]
pub struct MappedNetwork {
    config: MappingConfig,
    chip: TiledChip,
    layers: Vec<MappedLayer>,
}

impl MappedNetwork {
    /// Places the network's weights onto chip tiles per the mapping config
    /// and programs the initial values.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] for an empty or out-of-range
    /// scope, or any crossbar construction failure.
    pub fn from_network(net: &mut Network, config: MappingConfig) -> Result<Self, FttError> {
        let weight_layers = net.weight_layer_indices();
        let selected: Vec<usize> = match &config.scope {
            MappingScope::EntireNetwork => (0..weight_layers.len()).collect(),
            MappingScope::FcOnly => (0..weight_layers.len())
                .filter(|&k| net.layer_kind(weight_layers[k]) == "dense")
                .collect(),
            MappingScope::WeightLayers(list) => {
                for &k in list {
                    if k >= weight_layers.len() {
                        return Err(FttError::InvalidConfig(format!(
                            "weight layer {k} out of range ({} layers)",
                            weight_layers.len()
                        )));
                    }
                }
                list.clone()
            }
        };
        if selected.is_empty() {
            return Err(FttError::InvalidConfig(
                "mapping scope selects no layers".into(),
            ));
        }
        if config.tile_size == 0 {
            return Err(FttError::InvalidConfig("tile size must be non-zero".into()));
        }

        let mut chip = TiledChip::new(chip_config(&config)?)?;

        let mut layers = Vec::with_capacity(selected.len());
        for &k in &selected {
            let layer_index = weight_layers[k];
            #[expect(
                clippy::expect_used,
                reason = "`layer_index` comes from `weight_layer_indices` on this same \
                          network, which only lists layers with parameters"
            )]
            let params = net
                .layer_params_mut(layer_index)
                .expect("weight layer has parameters");
            let (rows, cols) = params.weight_shape;
            let absmax = params.weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            let w_max = (f64::from(absmax) * W_MAX_FACTOR).max(1e-3);
            let signs: Vec<i8> = params
                .weights
                .iter()
                .map(|&w| if w < 0.0 { -1 } else { 1 })
                .collect();
            let targets = params.weights.to_vec();
            // Each polarity's shards allocate and program in row-major
            // order, all positive shards before any negative one: the
            // tile counter, and hence every tile's RNG seed, follows
            // (layer, polarity, shard) order.
            let mut place = |polarity| {
                let g: Vec<f64> = targets
                    .iter()
                    .map(|&w| MappedLayer::conductance(w, polarity, w_max))
                    .collect();
                TiledMapping::place(&mut chip, rows, cols, &g)
            };
            let (tiles, neg_tiles) = match config.coding {
                WeightCoding::Unipolar => (place(Polarity::Magnitude)?, None),
                WeightCoding::Differential => {
                    (place(Polarity::Positive)?, Some(place(Polarity::Negative)?))
                }
            };
            layers.push(MappedLayer {
                weight_layer: k,
                layer_index,
                rows,
                cols,
                w_max,
                signs,
                targets,
                tiles,
                neg_tiles,
            });
        }
        Ok(Self {
            config,
            chip,
            layers,
        })
    }

    /// The mapping configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// The chip backing this mapping (tile pool, spares, health).
    pub fn chip(&self) -> &TiledChip {
        &self.chip
    }

    /// The mapped layers, in weight-layer order.
    pub fn layers(&self) -> &[MappedLayer] {
        &self.layers
    }

    /// Positions (among the network's weight layers) that are mapped.
    pub fn mapped_weight_layers(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.weight_layer).collect()
    }

    /// Whether weight layer `k` is mapped, and at which internal position.
    pub fn position_of(&self, weight_layer: usize) -> Option<usize> {
        self.layers
            .iter()
            .position(|l| l.weight_layer == weight_layer)
    }

    /// Copies the hardware's *effective* weights (faults, variation,
    /// clamping included) into the software network — run before every
    /// forward pass so training sees what the chip actually computes.
    ///
    /// This is the flow's hottest hardware read, so instead of one
    /// [`MappedLayer::effective`] call per cell (tile lookup + bounds-checked
    /// conductance read each), it streams every tile's cached `f64`
    /// conductance plane row-by-row into the weight buffer. The arithmetic
    /// per cell is the exact expression `effective` evaluates, so the loaded
    /// weights are bit-identical to the per-cell path.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from (a mapped layer index has no parameters).
    pub fn load_effective_weights(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let mut params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            let cols = layer.cols;
            let w_max = layer.w_max;
            let out = &mut params.weights;
            if let Some(neg_tiles) = &layer.neg_tiles {
                // Both polarities share one grid geometry.
                for ((shard, pos), (_, neg)) in layer.tiles.shards().zip(neg_tiles.shards()) {
                    let gp = self.chip.tile(pos)?.conductance_plane_f64();
                    let gn = self.chip.tile(neg)?.conductance_plane_f64();
                    let t_cols = shard.cols;
                    for r in 0..shard.rows {
                        let dst = &mut out[(shard.row0 + r) * cols + shard.col0..][..t_cols];
                        let gp_row = &gp[r * t_cols..(r + 1) * t_cols];
                        let gn_row = &gn[r * t_cols..(r + 1) * t_cols];
                        for ((d, &p), &n) in dst.iter_mut().zip(gp_row).zip(gn_row) {
                            *d = ((p - n) * w_max) as f32;
                        }
                    }
                }
            } else {
                for (shard, id) in layer.tiles.shards() {
                    let plane = self.chip.tile(id)?.conductance_plane_f64();
                    let t_cols = shard.cols;
                    for r in 0..shard.rows {
                        let base = (shard.row0 + r) * cols + shard.col0;
                        let dst = &mut out[base..base + t_cols];
                        let signs = &layer.signs[base..base + t_cols];
                        let g_row = &plane[r * t_cols..(r + 1) * t_cols];
                        for ((d, &s), &g) in dst.iter_mut().zip(signs).zip(g_row) {
                            *d = (f64::from(s) * g * w_max) as f32;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Programs a batch of weights of mapped layer `position` with
    /// unconditional training pulses (no write-verify — the paper's
    /// original on-line training pulses a cell even for a vanishing
    /// update, which is the wear threshold training eliminates). Each
    /// update is `(idx, value)` with `idx` row-major, and the indices must
    /// not decrease. Magnitudes clamp to the layer's full scale; under
    /// unipolar coding the sign is stored in the periphery.
    ///
    /// Pulses go out in update order, the positive cell before the
    /// negative one under differential coding, so every tile sees its
    /// writes (and draws its write noise) in the order one pulse per cell
    /// would. Shards are found by stepping a [`ftt_tile::CellCursor`], not
    /// by dividing, and each run of consecutive pulses on one tile is one
    /// [`Crossbar::pulse_analog_batch`], which moves
    /// `rram_write_pulses_total` once.
    ///
    /// `on_changed(idx)` is called for every update whose write changed
    /// the hardware. Under differential coding that is the pair's merged
    /// outcome, in which a stuck cell on either side reports the pair
    /// stuck. Returns the number of cells that wore out, counting both
    /// cells of a pair.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if `position` is out of range or
    /// an index lies past the layer or behind an earlier one (nothing is
    /// written then), and propagates crossbar errors.
    pub fn write_weights(
        &mut self,
        position: usize,
        updates: &[(usize, f32)],
        mut on_changed: impl FnMut(usize),
    ) -> Result<u64, FttError> {
        let layer = self.layers.get_mut(position).ok_or_else(|| {
            FttError::InvalidConfig(format!("mapped position {position} out of range"))
        })?;
        // Every pulse in issue order: its tile, and its cell on the tile
        // with the target conductance.
        let grids: Vec<(Polarity, &[usize])> = layer
            .grids()
            .map(|(p, grid)| (p, grid.tile_ids()))
            .collect();
        let mut tiles = Vec::with_capacity(updates.len() * grids.len());
        let mut cells = Vec::with_capacity(updates.len() * grids.len());
        let mut cursor = layer.tiles.grid().cursor();
        for &(idx, value) in updates {
            let (shard, cell) = cursor.seek(idx).ok_or_else(|| {
                FttError::InvalidConfig(format!(
                    "weight index {idx} is past the {}x{} layer or behind an earlier update",
                    layer.rows, layer.cols
                ))
            })?;
            for &(polarity, ids) in &grids {
                tiles.push(ids[shard]);
                cells.push((cell, MappedLayer::conductance(value, polarity, layer.w_max)));
            }
        }
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut start = 0;
        for run in tiles.chunk_by(|a, b| a == b) {
            let end = start + run.len();
            self.chip
                .tile_mut(run[0])?
                .pulse_analog_batch(&cells[start..end], &mut outcomes)?;
            start = end;
        }
        let cells_per_weight = grids.len();
        let mut worn = 0;
        for (&(idx, value), weight) in updates.iter().zip(outcomes.chunks(cells_per_weight)) {
            layer.targets[idx] = value;
            if value != 0.0 {
                layer.signs[idx] = if value < 0.0 { -1 } else { 1 };
            }
            worn += weight
                .iter()
                .map(|o| u64::from(o.new_fault().is_some()))
                .sum::<u64>();
            if merge_outcomes(weight).changed() {
                on_changed(idx);
            }
        }
        Ok(worn)
    }

    /// Copies the *software* (intended) weights into the network — the view
    /// the pruning and re-mapping phases reason about, independent of which
    /// cells happen to be stuck.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from.
    pub fn load_target_weights(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.targets.len() {
                return Err(foreign_network_error(layer.layer_index));
            }
            params.weights.copy_from_slice(&layer.targets);
        }
        Ok(())
    }

    /// Rewrites every mapped weight from the software network, skipping
    /// cells already within `epsilon` of the target conductance — used to
    /// reprogram the array after a re-mapping permutation. Returns the
    /// number of write pulses issued.
    pub fn reprogram_from(&mut self, net: &mut Network, epsilon: f64) -> Result<u64, FttError> {
        let mut writes = 0u64;
        for layer in &mut self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            for idx in 0..layer.rows * layer.cols {
                let target = params.weights[idx];
                layer.targets[idx] = target;
                if target != 0.0 {
                    layer.signs[idx] = if target < 0.0 { -1 } else { 1 };
                }
                for (polarity, grid) in layer.grids() {
                    let (id, r, c) = layer.locate(grid, idx)?;
                    let g = MappedLayer::conductance(target, polarity, layer.w_max);
                    verify_write(self.chip.tile_mut(id)?, r, c, g, epsilon, &mut writes)?;
                }
            }
        }
        Ok(writes)
    }

    /// Composes the logical per-layer detection view from the chip's
    /// stored per-tile campaign outcomes. Failed tiles degrade coverage
    /// (their groups count untested); the layer errors out only when *no*
    /// tile produced an outcome and at least one failed.
    fn compose_layer(&mut self, li: usize, test_size: usize) -> Result<LayerDetection, FttError> {
        let layer = &self.layers[li];
        let mut predicted = FaultMap::healthy(layer.rows, layer.cols);
        let mut cycles = 0u64;
        let mut write_pulses = 0u64;
        let mut untested_groups = 0u64;
        let mut first_err: Option<FttError> = None;
        let mut any_ok = false;
        let t = test_size.max(1);
        for (shard, id) in layer.shards() {
            let slot = self.chip.slot(id)?;
            if let Some(e) = &slot.last_campaign_error {
                // Graceful degradation: the failed tile's groups are
                // counted untested and the campaign continues with the
                // remaining tiles.
                untested_groups +=
                    2 * (slot.xbar.rows().div_ceil(t) + slot.xbar.cols().div_ceil(t)) as u64;
                if first_err.is_none() {
                    first_err = Some(FttError::from(e.clone()));
                }
                continue;
            }
            let Some(outcome) = &slot.last_detection else {
                continue;
            };
            any_ok = true;
            cycles += outcome.cycles();
            write_pulses += outcome.write_pulses;
            untested_groups += outcome.untested_groups;
            for (r, c, kind) in outcome.predicted.iter_faulty() {
                merge_fault(&mut predicted, shard.row0 + r, shard.col0 + c, kind);
            }
        }
        if !any_ok {
            if let Some(e) = first_err {
                // Every tile failed the same way — a systematic
                // configuration error, not a partial campaign.
                return Err(e);
            }
        }
        Ok(LayerDetection {
            weight_layer: layer.weight_layer,
            predicted,
            cycles,
            write_pulses,
            untested_groups,
        })
    }

    /// Runs the on-line fault detector over every tile of every mapped
    /// layer and composes per-layer logical fault predictions.
    ///
    /// Campaigns run tile-locally (comparison groups never span tile
    /// edges) and fan out across the [`par`] worker budget via
    /// [`ftt_tile::TiledChip::run_campaigns`]; outcomes compose
    /// sequentially in shard order, so results are identical at any thread
    /// count. Each tile keeps a persistent off-chip store, so the first
    /// call tests every cell and later calls retest only the cells written
    /// since (training updates, reprogramming, wear-outs), carrying prior
    /// verdicts forward for untouched cells.
    pub fn detect(
        &mut self,
        detector: &OnlineFaultDetector,
    ) -> Result<Vec<LayerDetection>, FttError> {
        let ids: Vec<usize> = self
            .layers
            .iter()
            .flat_map(|l| l.grids())
            .flat_map(|(_, grid)| grid.tile_ids().iter().copied())
            .collect();
        let _ = self.chip.run_campaigns(detector, &ids);
        let t = detector.config().test_size;
        let mut results = Vec::with_capacity(self.layers.len());
        for li in 0..self.layers.len() {
            results.push(self.compose_layer(li, t)?);
        }
        Ok(results)
    }

    /// The §5-style sparing pass: retire every mapped tile whose
    /// *predicted* fault density (from the latest campaigns) crosses
    /// `threshold`, attach a spare, program it with the shard's target
    /// weights, verify it with a fresh tile-local campaign, and re-point the
    /// shard. With an exhausted pool the tile degrades in service (counted
    /// in the outcome). Dirty layers' entries in `detections` get their
    /// `predicted` maps recomposed so the downstream re-mapping search sees
    /// the post-sparing fault state. Each strategy passes its own threshold
    /// (`retire_fault_density` for the closed loop).
    ///
    /// # Errors
    ///
    /// Device failures while programming or verifying a spare propagate.
    pub fn apply_sparing_at(
        &mut self,
        threshold: f64,
        detector: &OnlineFaultDetector,
        detections: &mut [LayerDetection],
    ) -> Result<SparingOutcome, FttError> {
        let mut out = SparingOutcome::default();
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for id in self.chip.tiles_over_density(threshold) {
            // Locate the shard this tile backs (spare-pool tiles that
            // back nothing are not retirable — nothing to re-point).
            let located = self.layers.iter().enumerate().find_map(|(li, l)| {
                l.grids().find_map(|(polarity, grid)| {
                    grid.shard_of_tile(id).map(|shard| (li, polarity, shard))
                })
            });
            let Some((li, polarity, shard)) = located else {
                continue;
            };
            match self.chip.substitute(id)? {
                SpareOutcome::Exhausted => {
                    out.spares_exhausted += 1;
                    continue;
                }
                SpareOutcome::Attached { new_id } => {
                    out.tiles_retired += 1;
                    out.spares_attached += 1;
                    // Program the spare with the shard's target weights,
                    // shard-locally row-major.
                    let layer = &self.layers[li];
                    let mut g = Vec::with_capacity(shard.cells());
                    for r in shard.row0..shard.row0 + shard.rows {
                        let row = &layer.targets[r * layer.cols + shard.col0..][..shard.cols];
                        g.extend(
                            row.iter()
                                .map(|&w| MappedLayer::conductance(w, polarity, layer.w_max)),
                        );
                    }
                    let before = self.chip.tile(new_id)?.write_pulses();
                    self.chip.tile_mut(new_id)?.program_conductances(&g)?;
                    out.reprogram_pulses += self.chip.tile(new_id)?.write_pulses() - before;
                    // Verify the spare with a tile-local campaign so the
                    // recomposed prediction covers its (injected) faults.
                    // The campaign attaches the spare's store, so the next
                    // periodic campaign starts warm from this verdict.
                    let stats = self.chip.run_campaigns(detector, &[new_id]);
                    out.verify_cycles += stats.cycles;
                    out.verify_write_pulses += stats.write_pulses;
                    // Re-point the shard (`id` backs one shard of one grid).
                    let layer = &mut self.layers[li];
                    for grid in std::iter::once(&mut layer.tiles).chain(&mut layer.neg_tiles) {
                        grid.repoint(id, new_id);
                    }
                    dirty.insert(li);
                }
            }
        }
        // Recompose dirty layers' predictions for the re-mapping search.
        let t = detector.config().test_size;
        for li in dirty {
            let recomposed = self.compose_layer(li, t)?;
            let weight_layer = self.layers[li].weight_layer;
            if let Some(d) = detections
                .iter_mut()
                .find(|d| d.weight_layer == weight_layer)
            {
                d.predicted = recomposed.predicted;
            }
        }
        Ok(out)
    }

    /// Ground-truth fault maps per mapped layer (for oracle experiments and
    /// precision/recall scoring).
    pub fn ground_truth(&self) -> Vec<FaultMap> {
        self.layers
            .iter()
            .map(|l| l.fault_map(&self.chip))
            .collect()
    }

    /// Total write pulses across the whole chip (training + detection +
    /// initial programming; retired tiles included — the logical
    /// write-pulse clock is monotonic across retirement).
    pub fn total_write_pulses(&self) -> u64 {
        self.chip.total_write_pulses()
    }

    /// Fraction of all *in-service* mapped cells that carry hard faults.
    pub fn fraction_faulty(&self) -> f64 {
        let mut faulty = 0usize;
        let mut total = 0usize;
        for (_, id) in self.layers.iter().flat_map(MappedLayer::shards) {
            let Ok(xbar) = self.chip.tile(id) else {
                continue;
            };
            faulty += xbar.fault_map().count_faulty();
            total += xbar.rows() * xbar.cols();
        }
        faulty as f64 / total.max(1) as f64
    }

    /// Instruments the chip (every tile, the spare pool counters, and the
    /// `TileRetired` / `SpareAttached` events) with `recorder`; see
    /// [`ftt_tile::TiledChip::attach_recorder`].
    pub fn attach_recorder(&mut self, recorder: &obs::Recorder) {
        self.chip.attach_recorder(recorder);
    }

    /// Number of cells that wore out (endurance faults) since construction,
    /// chip-wide (retired tiles included).
    pub fn wear_faults(&self) -> u64 {
        self.chip.wear_faults()
    }

    /// Captures the complete mapping state for checkpointing: the chip
    /// plus every layer's placement, signs, and software weights.
    pub fn export_state(&self) -> MappedState {
        let captured = |grid: &TiledMapping| -> Vec<(usize, usize, usize)> {
            grid.shards().map(|(s, id)| (s.row0, s.col0, id)).collect()
        };
        let layer_state = |l: &MappedLayer| MappedLayerState {
            weight_layer: l.weight_layer,
            layer_index: l.layer_index,
            rows: l.rows,
            cols: l.cols,
            w_max: l.w_max,
            signs: l.signs.clone(),
            targets: l.targets.clone(),
            tiles: captured(&l.tiles),
            neg_tiles: l.neg_tiles.as_ref().map(captured).unwrap_or_default(),
        };
        MappedState {
            chip: self.chip.export_state(),
            layers: self.layers.iter().map(layer_state).collect(),
        }
    }

    /// Rebuilds a mapping from a [`MappedState`] capture and the same
    /// `config` the original run was built with. Unlike
    /// [`MappedNetwork::from_network`] this performs no allocation or
    /// programming — the chip restores cell-exact and the layers re-point
    /// at their captured tiles, so behavior after restore is bit-identical
    /// to the exporting run's. Telemetry is not re-attached; call
    /// [`MappedNetwork::attach_recorder`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when the capture is internally
    /// incoherent (mismatched lengths, a non-positive `w_max`, or shard
    /// entries that do not describe the layer's shard grid: wrong count,
    /// unknown tile ids, a tile whose dimensions are not its shard's, a
    /// captured origin that is not its shard's) and propagates chip-level
    /// restore failures.
    pub fn restore_state(config: MappingConfig, state: &MappedState) -> Result<Self, FttError> {
        let chip = TiledChip::restore_state(chip_config(&config)?, &state.chip)?;
        let mut layers = Vec::with_capacity(state.layers.len());
        for (li, l) in state.layers.iter().enumerate() {
            let cells = l.rows * l.cols;
            if l.signs.len() != cells || l.targets.len() != cells {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} carries {} signs / {} targets for {} cells",
                    l.signs.len(),
                    l.targets.len(),
                    cells
                )));
            }
            if !(l.w_max.is_finite() && l.w_max > 0.0) {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} has non-positive w_max {}",
                    l.w_max
                )));
            }
            let tiles = restore_grid(&chip, li, l, &l.tiles)?;
            let neg_tiles = if l.neg_tiles.is_empty() {
                None
            } else {
                Some(restore_grid(&chip, li, l, &l.neg_tiles)?)
            };
            layers.push(MappedLayer {
                weight_layer: l.weight_layer,
                layer_index: l.layer_index,
                rows: l.rows,
                cols: l.cols,
                w_max: l.w_max,
                signs: l.signs.clone(),
                targets: l.targets.clone(),
                tiles,
                neg_tiles,
            });
        }
        Ok(Self {
            config,
            chip,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
    use nn::init::init_rng;
    use nn::layers::{Dense, Relu};
    use nn::models::vgg11_cifar;
    use rram::endurance::EnduranceModel;

    fn mlp() -> Network {
        let mut rng = init_rng(5);
        let mut net = Network::new();
        net.push(Dense::new(6, 10, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(10, 4, &mut rng));
        net
    }

    #[test]
    fn clean_mapping_roundtrips_weights() {
        let mut net = mlp();
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "{b} vs {a}");
        }
    }

    #[test]
    fn fc_only_scope_skips_convs() {
        let mut net = vgg11_cifar(64, 0);
        let mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::FcOnly))
                .unwrap();
        assert_eq!(mapped.mapped_weight_layers(), vec![8, 9, 10]);
        assert_eq!(mapped.position_of(8), Some(0));
        assert_eq!(mapped.position_of(0), None);
    }

    #[test]
    fn explicit_scope_is_validated() {
        let mut net = mlp();
        let bad = MappingConfig::new(MappingScope::WeightLayers(vec![0, 7]));
        assert!(MappedNetwork::from_network(&mut net, bad).is_err());
        let empty = MappingConfig::new(MappingScope::WeightLayers(vec![]));
        assert!(MappedNetwork::from_network(&mut net, empty).is_err());
    }

    #[test]
    fn faults_corrupt_effective_weights() {
        let mut net = mlp();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.3)
                .with_seed(11),
        )
        .unwrap();
        assert!((mapped.fraction_faulty() - 0.3).abs() < 0.05);
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let changed = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (*b - *a).abs() > 1e-4)
            .count();
        assert!(changed > 0, "stuck cells must displace weights");
        // SA1-stuck weights sit at ±w_max.
        let w_max = mapped.layers()[0].w_max as f32;
        let truth = &mapped.ground_truth()[0];
        let mut saw_sa1 = false;
        for (r, c, kind) in truth.iter_faulty() {
            let idx = r * 10 + c;
            match kind {
                rram::FaultKind::StuckAt1 => {
                    saw_sa1 = true;
                    assert!((after[idx].abs() - w_max).abs() < 1e-4);
                }
                rram::FaultKind::StuckAt0 => {
                    assert_eq!(after[idx], 0.0);
                }
            }
        }
        assert!(saw_sa1);
    }

    #[test]
    fn plane_backed_load_matches_per_cell_effective() {
        use crate::config::WeightCoding;
        // The bulk plane copy must reproduce the per-cell reference exactly,
        // for both codings, across tile boundaries, with faults present.
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_initial_fault_fraction(0.2)
                .with_seed(21);
            config.tile_size = 4; // force tiling
            let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
            mapped.load_effective_weights(&mut net).unwrap();
            for layer in mapped.layers() {
                let loaded: Vec<f32> = net
                    .layer_params_mut(layer.layer_index)
                    .unwrap()
                    .weights
                    .to_vec();
                for r in 0..layer.rows {
                    for c in 0..layer.cols {
                        let reference = layer.effective(mapped.chip(), r, c) as f32;
                        assert_eq!(
                            loaded[r * layer.cols + c],
                            reference,
                            "({r},{c}) must match bit-for-bit under {coding:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detect_is_thread_count_invariant() {
        // Tile campaigns fan out across workers; each tile owns its RNG, so
        // the merged predictions must not depend on the thread count. A
        // 784×12×10 MLP takes five 256² tiles (four row bands, then one),
        // and `par`'s work gate gives each worker two tiles' campaigns at
        // least, so budget 4 runs them on two workers.
        let build = || {
            let mut rng = init_rng(5);
            let mut net = Network::new();
            net.push(Dense::new(784, 12, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(12, 10, &mut rng));
            let config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.1)
                .with_seed(3);
            let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
            assert_eq!(mapped.chip().config().tile_size, 256);
            assert_eq!(mapped.chip().slot_count(), 5);
            mapped
        };
        let detector = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        let run_with = |threads: usize| {
            par::set_thread_count(threads);
            let out = build().detect(&detector).unwrap();
            par::set_thread_count(0);
            out
        };
        let seq = run_with(1);
        let par4 = run_with(4);
        assert_eq!(seq.len(), par4.len());
        for (a, b) in seq.iter().zip(&par4) {
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.write_pulses, b.write_pulses);
        }
    }

    #[test]
    fn write_weight_updates_hardware() {
        let mut net = mlp();
        let mut mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        let w_max = mapped.layers()[0].w_max as f32;
        let target = -0.5 * w_max;
        mapped.write_weights(0, &[(3, target)], |_| {}).unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let read = net.layer_params_mut(0).unwrap().weights[3];
        assert!((read - target).abs() < 1e-5, "{read} vs {target}");
        // Magnitudes beyond full scale clamp.
        mapped
            .write_weights(0, &[(3, 10.0 * w_max)], |_| {})
            .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let read = net.layer_params_mut(0).unwrap().weights[3];
        assert!((read - w_max).abs() < 1e-5);
    }

    #[test]
    fn tiling_covers_large_layers() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork);
        config.tile_size = 4; // force tiling of the 6x10 and 10x4 layers
        let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        // Effective read equals the written value across tile boundaries.
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
    }

    #[test]
    fn detection_runs_over_tiles() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.1)
            .with_seed(3);
        config.tile_size = 5;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let detections = mapped.detect(&detector).unwrap();
        assert_eq!(detections.len(), 2);
        // Test size 1 is exact: predictions equal ground truth.
        let truth = mapped.ground_truth();
        for (det, truth) in detections.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
            assert!(det.cycles > 0);
        }
    }

    /// The per-cell write [`MappedNetwork::write_weights`] batches: the
    /// shard found by division, one `pulse_analog` per cell, the positive
    /// cell first. Returns the weight's merged outcome and its worn cells.
    fn write_weight_reference(
        mapped: &mut MappedNetwork,
        position: usize,
        idx: usize,
        value: f32,
    ) -> (WriteOutcome, u64) {
        let layer = &mut mapped.layers[position];
        layer.targets[idx] = value;
        if value != 0.0 {
            layer.signs[idx] = if value < 0.0 { -1 } else { 1 };
        }
        let mut cells = Vec::new();
        for (polarity, grid) in layer.grids() {
            let (id, r, c) = layer.locate(grid, idx).unwrap();
            let g = MappedLayer::conductance(value, polarity, layer.w_max);
            cells.push(
                mapped
                    .chip
                    .tile_mut(id)
                    .unwrap()
                    .pulse_analog(r, c, g)
                    .unwrap(),
            );
        }
        let worn = cells.iter().filter(|o| o.new_fault().is_some()).count();
        (merge_outcomes(&cells), worn as u64)
    }

    #[test]
    fn batched_writes_match_per_cell_pulses() {
        use crate::config::WeightCoding;
        use rram::variation::WriteVariation;
        // 4² tiles split both layers on both axes; write noise and a short
        // endurance exercise every tile's RNG stream and the wear-outs.
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_tile_size(4)
                .with_variation(WriteVariation::new(0.05))
                .with_endurance(EnduranceModel::new(6.0, 2.0))
                .with_initial_fault_fraction(0.1)
                .with_seed(29);
            let build = || {
                let recorder = obs::Recorder::new();
                let mut mapped = MappedNetwork::from_network(&mut mlp(), config.clone()).unwrap();
                mapped.attach_recorder(&recorder);
                (mapped, recorder)
            };
            let (mut batched, batched_rec) = build();
            let (mut reference, reference_rec) = build();
            for round in 0..12u32 {
                for position in 0..2 {
                    let cells = batched.layers()[position].rows * batched.layers()[position].cols;
                    let updates: Vec<(usize, f32)> = (0..cells)
                        .filter(|&idx| (idx as u32 * 7 + round * 3) % 5 < 2)
                        .map(|idx| (idx, ((idx as f32 + round as f32) * 0.37).sin() * 0.6))
                        .collect();
                    let mut changed = Vec::new();
                    let worn = batched
                        .write_weights(position, &updates, |idx| changed.push(idx))
                        .unwrap();
                    let mut expected_changed = Vec::new();
                    let mut expected_worn = 0;
                    for &(idx, value) in &updates {
                        let (outcome, w) =
                            write_weight_reference(&mut reference, position, idx, value);
                        if outcome.changed() {
                            expected_changed.push(idx);
                        }
                        expected_worn += w;
                    }
                    assert_eq!(changed, expected_changed, "{coding:?} round {round}");
                    assert_eq!(worn, expected_worn, "{coding:?} round {round}");
                }
                assert_eq!(batched.export_state(), reference.export_state());
            }
            assert!(
                batched.wear_faults() > 0,
                "{coding:?}: the run must wear cells out"
            );
            let pulses = |r: &obs::Recorder| r.registry().counter_value("rram_write_pulses_total");
            assert_eq!(pulses(&batched_rec), pulses(&reference_rec));
        }
    }

    #[test]
    fn write_weights_rejects_bad_batches_before_writing() {
        let mut net = mlp();
        let mut mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        let before = mapped.export_state();
        let mut calls = 0;
        assert!(mapped
            .write_weights(0, &[(3, 0.1), (2, 0.1)], |_| calls += 1)
            .is_err());
        assert!(mapped
            .write_weights(0, &[(3, 0.1), (60, 0.1)], |_| calls += 1)
            .is_err());
        assert!(mapped
            .write_weights(2, &[(0, 0.1)], |_| calls += 1)
            .is_err());
        assert_eq!(calls, 0);
        assert_eq!(
            mapped.export_state(),
            before,
            "a rejected batch writes nothing"
        );
    }

    #[test]
    fn endurance_wear_creates_faults_through_mapping() {
        let mut net = mlp();
        let mut mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_endurance(EnduranceModel::new(5.0, 0.0))
                .with_seed(1),
        )
        .unwrap();
        // Repeatedly rewriting one weight exhausts its 5-write budget
        // (1 write spent on initial programming).
        let mut worn = false;
        for i in 0..10 {
            let v = if i % 2 == 0 { 0.01 } else { 0.02 };
            if mapped.write_weights(0, &[(0, v)], |_| {}).unwrap() > 0 {
                worn = true;
                break;
            }
        }
        assert!(worn, "cell should wear out");
        assert_eq!(mapped.wear_faults(), 1);
    }

    #[test]
    fn differential_mapping_roundtrips_weights() {
        use crate::config::WeightCoding;
        let mut net = mlp();
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(WeightCoding::Differential),
        )
        .unwrap();
        assert!(mapped.layers()[0].is_differential());
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "{b} vs {a}");
        }
    }

    #[test]
    fn differential_write_costs_two_pulses() {
        use crate::config::WeightCoding;
        let mut net = mlp();
        let mut uni =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        let mut net2 = mlp();
        let mut diff = MappedNetwork::from_network(
            &mut net2,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(WeightCoding::Differential),
        )
        .unwrap();
        let uni_before = uni.total_write_pulses();
        let diff_before = diff.total_write_pulses();
        uni.write_weights(0, &[(0, 0.01)], |_| {}).unwrap();
        diff.write_weights(0, &[(0, 0.01)], |_| {}).unwrap();
        assert_eq!(uni.total_write_pulses() - uni_before, 1);
        assert_eq!(
            diff.total_write_pulses() - diff_before,
            2,
            "differential coding pulses both polarities"
        );
    }

    #[test]
    fn differential_fault_semantics() {
        use crate::config::WeightCoding;
        // With enough injected faults the merged logical map must be
        // non-empty, and effective weights stay within full scale.
        let mut net = mlp();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(WeightCoding::Differential)
                .with_initial_fault_fraction(0.3)
                .with_seed(4),
        )
        .unwrap();
        let truth = &mapped.ground_truth()[0];
        assert!(truth.count_faulty() > 0);
        mapped.load_effective_weights(&mut net).unwrap();
        let w_max = mapped.layers()[0].w_max as f32;
        let effective: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        assert!(effective.iter().all(|w| w.abs() <= w_max + 1e-5));
    }

    #[test]
    fn differential_detection_merges_pairs() {
        use crate::config::WeightCoding;
        use faultdet::detector::DetectorConfig;
        let mut net = mlp();
        let mut mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(WeightCoding::Differential)
                .with_initial_fault_fraction(0.1)
                .with_seed(8),
        )
        .unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let detections = mapped.detect(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in detections.iter().zip(&truth) {
            // Test size 1 is exact per array; the merged logical map must
            // match the merged ground truth.
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn reprogram_skips_unchanged_cells() {
        let mut net = mlp();
        let mut mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let writes = mapped.reprogram_from(&mut net, 1e-9).unwrap();
        assert_eq!(writes, 0, "nothing changed, nothing written");
        // Change one weight and reprogram: exactly one write.
        net.layer_params_mut(0).unwrap().weights[7] = 0.123;
        let writes = mapped.reprogram_from(&mut net, 1e-9).unwrap();
        assert_eq!(writes, 1);
    }

    #[test]
    fn sparing_replaces_dense_fault_tiles() {
        use crate::config::WeightCoding;
        // Heavy faults, a spare pool, and an aggressive threshold: after
        // one detect + sparing pass the faulty tiles are swapped for
        // spares and the effective weights recover toward the targets.
        // Under differential coding negative shards re-point too.
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_initial_fault_fraction(0.25)
                .with_seed(17)
                .with_spare_tiles(64)
                .with_retire_fault_density(0.05);
            config.tile_size = 4;
            let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
            let neg_before: Vec<usize> = mapped
                .layers
                .iter()
                .flat_map(|l| l.neg_tiles.iter().flat_map(|g| g.tile_ids().to_vec()))
                .collect();
            let faulty_before = mapped.fraction_faulty();
            assert!(faulty_before > 0.1);
            let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
            let mut detections = mapped.detect(&detector).unwrap();
            let flagged_before: usize = detections.iter().map(|d| d.predicted.count_faulty()).sum();
            assert!(flagged_before > 0);
            let outcome = mapped
                .apply_sparing_at(0.05, &detector, &mut detections)
                .unwrap();
            assert!(outcome.tiles_retired > 0, "{outcome:?}");
            assert_eq!(outcome.tiles_retired, outcome.spares_attached);
            assert!(outcome.reprogram_pulses > 0);
            assert!(outcome.verify_cycles > 0);
            assert_eq!(mapped.chip().tiles_retired(), outcome.tiles_retired);
            // Every shard now points at an in-service tile; under
            // differential coding, negative shards were among the retired.
            let in_service = |id: usize| !mapped.chip().slot(id).unwrap().retired;
            for layer in mapped.layers() {
                assert!(layer.shards().all(|(_, id)| in_service(id)), "{coding:?}");
            }
            let neg_retired = neg_before.iter().filter(|&&id| !in_service(id)).count();
            assert_eq!(
                neg_retired > 0,
                coding == WeightCoding::Differential,
                "{coding:?}: {neg_retired} negative shards retired"
            );
            // Spares come from the screened pool (fault-free at attach), so
            // swapping them in strictly lowers the in-service fault density.
            let faulty_after = mapped.fraction_faulty();
            assert!(
                faulty_after < faulty_before,
                "{coding:?}: {faulty_after} vs {faulty_before}"
            );
            // The recomposed detections mirror the post-sparing ground truth
            // (test size 1 is exact, and each spare was verified).
            let truth = mapped.ground_truth();
            for (det, truth) in detections.iter().zip(&truth) {
                assert_eq!(&det.predicted, truth, "{coding:?}");
            }
        }
    }

    #[test]
    fn sparing_degrades_when_pool_is_exhausted() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.3)
            .with_seed(13)
            .with_spare_tiles(1)
            .with_retire_fault_density(0.05);
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect(&detector).unwrap();
        let outcome = mapped
            .apply_sparing_at(0.05, &detector, &mut detections)
            .unwrap();
        assert_eq!(outcome.spares_attached, 1, "one spare, one attachment");
        assert!(outcome.spares_exhausted > 0, "the rest degrade in service");
        // Detection still works over the mixed old/spare tile set.
        let after = mapped.detect(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in after.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn sparing_drops_the_retired_store_and_verify_warms_the_spare() {
        // Regression: sparing must drop the retired tile's store (stale
        // aggregates for hardware no shard points at), and the spare's
        // verify campaign must leave a warm store on it, so post-sparing
        // training writes land in a journal some store is watching and the
        // next campaign still sees every fault.
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.25)
            .with_seed(17)
            .with_spare_tiles(64)
            .with_retire_fault_density(0.05)
            .with_endurance(EnduranceModel::new(30.0, 0.0));
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect(&detector).unwrap();
        let before: Vec<Vec<usize>> = mapped
            .layers
            .iter()
            .map(|l| l.tiles.tile_ids().to_vec())
            .collect();
        let outcome = mapped
            .apply_sparing_at(0.05, &detector, &mut detections)
            .unwrap();
        assert!(outcome.spares_attached > 0, "{outcome:?}");
        // Locate a shard that was re-pointed at a spare, and wear out its
        // first cell with repeated post-verify training pulses.
        let (li, ti) = mapped
            .layers
            .iter()
            .enumerate()
            .find_map(|(li, l)| {
                l.tiles
                    .tile_ids()
                    .iter()
                    .enumerate()
                    .find(|&(ti, &id)| before[li][ti] != id)
                    .map(|(ti, _)| (li, ti))
            })
            .unwrap();
        // The retired slot's store is gone; the spare carries a warm one
        // with nothing pending (its verify campaign covered it).
        let retired_id = before[li][ti];
        let new_id = mapped.layers[li].tiles.tile_ids()[ti];
        assert!(mapped.chip().slot(retired_id).unwrap().store.is_none());
        let spare_store = mapped.chip().slot(new_id).unwrap().store.as_ref().unwrap();
        assert_eq!(spare_store.pending_count(), 0, "verified baseline is warm");
        let shard = mapped.layers[li].tiles.shard_of_tile(new_id).unwrap();
        let idx = shard.row0 * mapped.layers[li].cols + shard.col0;
        let mut worn = false;
        for i in 0..80 {
            let v = if i % 2 == 0 { 0.01 } else { 0.02 };
            if mapped.write_weights(li, &[(idx, v)], |_| {}).unwrap() > 0 {
                worn = true;
                break;
            }
        }
        assert!(worn, "spare cell should wear out after verification");
        // Test size 1 is exact over pending cells, so the next campaign's
        // predictions must match the post-wear ground truth — the worn cell
        // must have been journaled as pending by the store the verify
        // campaign attached.
        let after = mapped.detect(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in after.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn mapped_state_roundtrip_is_behavior_identical() {
        use crate::config::WeightCoding;
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_initial_fault_fraction(0.25)
                .with_seed(17)
                .with_spare_tiles(8)
                .with_retire_fault_density(0.05);
            config.tile_size = 4;
            let mut mapped = MappedNetwork::from_network(&mut net, config.clone()).unwrap();
            let detector = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
            let mut detections = mapped.detect(&detector).unwrap();
            let spared = mapped
                .apply_sparing_at(0.05, &detector, &mut detections)
                .unwrap();
            assert!(spared.spares_attached > 0, "{coding:?}: {spared:?}");
            mapped.write_weights(0, &[(3, 0.05)], |_| {}).unwrap();

            let state = mapped.export_state();
            let mut back = MappedNetwork::restore_state(config, &state).unwrap();
            assert_eq!(back.export_state(), state, "double roundtrip is lossless");

            let mut net_a = mlp();
            let mut net_b = mlp();
            mapped.load_effective_weights(&mut net_a).unwrap();
            back.load_effective_weights(&mut net_b).unwrap();
            assert_eq!(
                net_a.layer_params_mut(0).unwrap().weights.to_vec(),
                net_b.layer_params_mut(0).unwrap().weights.to_vec()
            );
            assert_eq!(mapped.ground_truth(), back.ground_truth());
            // Identical future campaigns: per-tile RNG streams, stores, and
            // carried baselines all restore mid-sequence.
            let a = mapped.detect(&detector).unwrap();
            let b = back.detect(&detector).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.predicted, y.predicted);
                assert_eq!(x.cycles, y.cycles);
                assert_eq!(x.write_pulses, y.write_pulses);
            }
        }
    }

    #[test]
    fn restore_state_rejects_incoherent_captures() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork).with_seed(3);
        config.tile_size = 4; // the 6x10 layer is a 2x3 grid of shards
        let mapped = MappedNetwork::from_network(&mut net, config.clone()).unwrap();
        let good = mapped.export_state();
        assert!(MappedNetwork::restore_state(config.clone(), &good).is_ok());
        let incoherent = |bad: &MappedState| {
            matches!(
                MappedNetwork::restore_state(config.clone(), bad),
                Err(FttError::InvalidConfig(_))
            )
        };

        let mut bad = good.clone();
        bad.layers[0].tiles[0].2 = 999;
        assert!(incoherent(&bad));

        // The first shard is 4x4 and the last a 2x2 remainder: swapping
        // their tile ids leaves each tile backing a shard of another size.
        let mut bad = good.clone();
        let shards = &mut bad.layers[0].tiles;
        let (first, last) = (shards[0].2, shards[5].2);
        shards[0].2 = last;
        shards[5].2 = first;
        assert!(incoherent(&bad));

        // A shard origin off the grid.
        let mut bad = good.clone();
        bad.layers[0].tiles[0].0 = 5;
        assert!(incoherent(&bad));

        let mut bad = good.clone();
        bad.layers[0].tiles.pop();
        assert!(incoherent(&bad));

        let mut bad = good.clone();
        bad.layers[0].targets.pop();
        assert!(incoherent(&bad));

        let mut bad = good;
        bad.layers[0].w_max = f64::NAN;
        assert!(incoherent(&bad));
    }
}
