//! Sharded placement of one logical matrix onto chip tiles, plus the
//! batched tiled MVM executor.
//!
//! # Bit-identity with the monolithic kernel
//!
//! [`rram::Crossbar::mvm`] accumulates each output column over rows in
//! ascending global row order (`out[k] += g[r][k]·v[r]`). f32 addition is
//! not associative, so a tiled executor that summed per-band partials
//! would drift from the monolithic result in the last ulps. Instead, the
//! executor here keeps **one accumulator per output column** and walks
//! row-shard bands in ascending order, rows within a band in ascending
//! order — the exact global row order — touching each band's conductance
//! plane in place. Column shards merely partition which plane a segment
//! comes from, which cannot reorder any single column's accumulation, so
//! the result is bit-identical to the monolithic kernel — asserted by
//! in-crate tests and the chaos `tiling` family.
//!
//! The zero-skip gate replicates the monolithic kernel's: skipping a zero
//! input row adds `±0.0 · g` (finite `g`), which cannot move an IEEE-754
//! accumulator, and both kernels call the same predicate
//! ([`rram::crossbar::sparse_enough`]) so they take the same branch. Like
//! the monolithic kernel, the executor runs on the calling thread.

use rram::crossbar::{sparse_enough, Crossbar};
use rram::fault::FaultMap;
use rram::RramError;

use crate::chip::TiledChip;
use crate::error::TileError;
use crate::geometry::{Shard, ShardGrid};

/// One logical matrix sharded across chip tiles.
///
/// The mapping stores tile *ids* in row-major shard order; the arrays
/// live in the [`TiledChip`], so spare substitution re-points one id.
#[derive(Debug, Clone)]
pub struct TiledMapping {
    grid: ShardGrid,
    tiles: Vec<usize>,
}

/// The shard grid of a `rows × cols` matrix on the chip's tiles.
fn chip_grid(chip: &TiledChip, rows: usize, cols: usize) -> Result<ShardGrid, TileError> {
    let ts = chip.config().tile_size;
    ShardGrid::new(rows, cols, ts, ts)
        .ok_or_else(|| TileError::InvalidConfig("matrix dims must be non-zero".into()))
}

/// Rejects a logical row-major buffer that does not cover `grid`.
fn check_plane(grid: &ShardGrid, len: usize) -> Result<(), TileError> {
    if len != grid.rows * grid.cols {
        return Err(TileError::Rram(RramError::DimensionMismatch {
            expected: grid.rows * grid.cols,
            actual: len,
        }));
    }
    Ok(())
}

/// Writes `shard`'s cells of a logical row-major conductance plane onto
/// its tile, shard-locally row-major (one [`Crossbar::write_analog`] per
/// cell, as [`Crossbar::program_conductances`] issues them). Returns the
/// number of cells whose value changed.
fn write_shard(
    xbar: &mut Crossbar,
    shard: &Shard,
    cols: usize,
    targets: &[f64],
) -> Result<u64, RramError> {
    let mut changed = 0;
    for r in 0..shard.rows {
        let row = &targets[(shard.row0 + r) * cols + shard.col0..][..shard.cols];
        for (c, &g) in row.iter().enumerate() {
            if xbar.write_analog(r, c, g)?.changed() {
                changed += 1;
            }
        }
    }
    Ok(changed)
}

impl TiledMapping {
    /// Shards a `rows × cols` matrix onto freshly allocated chip tiles
    /// (row-major shard order — the chip's canonical allocation order).
    ///
    /// # Errors
    ///
    /// Rejects zero dimensions; propagates allocation failures.
    pub fn allocate(chip: &mut TiledChip, rows: usize, cols: usize) -> Result<Self, TileError> {
        let grid = chip_grid(chip, rows, cols)?;
        let mut tiles = Vec::with_capacity(grid.shard_count());
        for shard in grid.iter() {
            tiles.push(chip.allocate(shard.rows, shard.cols)?);
        }
        Ok(TiledMapping { grid, tiles })
    }

    /// [`TiledMapping::allocate`] followed by [`TiledMapping::program`],
    /// with the same tile ids and per-tile writes, except that each tile
    /// is programmed right after its allocation, while it is still in
    /// cache.
    ///
    /// # Errors
    ///
    /// Rejects zero dimensions and a buffer whose length is not
    /// `rows × cols`; propagates allocation and device errors.
    pub fn place(
        chip: &mut TiledChip,
        rows: usize,
        cols: usize,
        targets: &[f64],
    ) -> Result<Self, TileError> {
        let grid = chip_grid(chip, rows, cols)?;
        check_plane(&grid, targets.len())?;
        let mut tiles = Vec::with_capacity(grid.shard_count());
        for shard in grid.iter() {
            let id = chip.allocate(shard.rows, shard.cols)?;
            write_shard(chip.tile_mut(id)?, &shard, cols, targets)?;
            tiles.push(id);
        }
        Ok(TiledMapping { grid, tiles })
    }

    /// Rebuilds the mapping of a `rows × cols` matrix from captured tile
    /// ids in row-major shard order (what [`TiledMapping::tile_ids`]
    /// reports) — the checkpoint-restore counterpart of
    /// [`TiledMapping::allocate`]. No tile is allocated or written.
    ///
    /// # Errors
    ///
    /// Rejects zero dimensions, an id count other than the grid's shard
    /// count, unknown ids, and a tile whose dimensions are not its shard's.
    pub fn from_tile_ids(
        chip: &TiledChip,
        rows: usize,
        cols: usize,
        tiles: Vec<usize>,
    ) -> Result<Self, TileError> {
        let grid = chip_grid(chip, rows, cols)?;
        if tiles.len() != grid.shard_count() {
            return Err(TileError::InvalidConfig(format!(
                "{} tile ids for the {} shards of a {rows}x{cols} matrix",
                tiles.len(),
                grid.shard_count()
            )));
        }
        for (shard, &id) in grid.iter().zip(&tiles) {
            let xbar = chip.tile(id)?;
            if (xbar.rows(), xbar.cols()) != (shard.rows, shard.cols) {
                return Err(TileError::InvalidConfig(format!(
                    "tile {id} is {}x{} but backs the {}x{} shard at ({},{})",
                    xbar.rows(),
                    xbar.cols(),
                    shard.rows,
                    shard.cols,
                    shard.row0,
                    shard.col0
                )));
            }
        }
        Ok(TiledMapping { grid, tiles })
    }

    /// The shard geometry.
    pub fn grid(&self) -> &ShardGrid {
        &self.grid
    }

    /// Tile ids in row-major shard order.
    pub fn tile_ids(&self) -> &[usize] {
        &self.tiles
    }

    /// The shards in row-major order, each with the id of its tile.
    pub fn shards(&self) -> impl Iterator<Item = (Shard, usize)> + '_ {
        self.grid.iter().zip(self.tiles.iter().copied())
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.grid.rows
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.grid.cols
    }

    /// The shard (geometry) currently backed by tile `id`, if any.
    pub fn shard_of_tile(&self, id: usize) -> Option<Shard> {
        let i = self.tiles.iter().position(|&t| t == id)?;
        self.grid
            .shard(i / self.grid.col_shards(), i % self.grid.col_shards())
    }

    /// Re-points every shard backed by `old_id` at `new_id` (spare
    /// substitution). Returns how many shards were re-pointed (0 or 1 —
    /// a tile backs at most one shard).
    pub fn repoint(&mut self, old_id: usize, new_id: usize) -> usize {
        let mut n = 0;
        for t in &mut self.tiles {
            if *t == old_id {
                *t = new_id;
                n += 1;
            }
        }
        n
    }

    /// Programs the whole matrix from a row-major conductance plane in
    /// `[0, 1]` (shard by shard, shard-locally row-major — the same
    /// per-tile write order the monolithic mapper uses). Returns the
    /// number of cells whose value changed.
    ///
    /// # Errors
    ///
    /// Rejects a buffer whose length is not `rows × cols`; propagates
    /// device errors (cells already programmed stay programmed).
    pub fn program(&self, chip: &mut TiledChip, targets: &[f64]) -> Result<u64, TileError> {
        check_plane(&self.grid, targets.len())?;
        let mut changed = 0;
        for (shard, id) in self.shards() {
            changed += write_shard(chip.tile_mut(id)?, &shard, self.grid.cols, targets)?;
        }
        Ok(changed)
    }

    /// Locates logical cell `(row, col)`: the id of the tile backing it
    /// and the cell's coordinates on that tile, as `(id, row, col)`.
    /// `None` outside the matrix.
    pub fn locate(&self, row: usize, col: usize) -> Option<(usize, usize, usize)> {
        let (sr, sc) = self.grid.shard_of_cell(row, col)?;
        let id = *self.tiles.get(self.grid.shard_index(sr, sc))?;
        Some((
            id,
            row - sr * self.grid.tile_rows,
            col - sc * self.grid.tile_cols,
        ))
    }

    /// Composes the logical fault map from the shard tiles' maps.
    ///
    /// # Errors
    ///
    /// Unknown tile ids propagate.
    pub fn fault_map(&self, chip: &TiledChip) -> Result<FaultMap, TileError> {
        let mut map = FaultMap::healthy(self.grid.rows, self.grid.cols);
        for (shard, id) in self.shards() {
            let sub = chip.tile(id)?.fault_map();
            for (r, c, kind) in sub.iter_faulty() {
                map.set(shard.row0 + r, shard.col0 + c, Some(kind));
            }
        }
        Ok(map)
    }

    /// Splits a logical fault map per shard and applies each piece to its
    /// tile (equivalence-test helper: lets a tiled chip mirror the exact
    /// fault pattern of a monolithic array).
    ///
    /// # Errors
    ///
    /// Rejects a map whose dimensions don't match; unknown ids propagate.
    pub fn apply_fault_map(&self, chip: &mut TiledChip, map: &FaultMap) -> Result<(), TileError> {
        if map.rows() != self.grid.rows || map.cols() != self.grid.cols {
            return Err(TileError::Rram(RramError::DimensionMismatch {
                expected: self.grid.rows * self.grid.cols,
                actual: map.rows() * map.cols(),
            }));
        }
        for (shard, id) in self.shards() {
            let mut local = FaultMap::healthy(shard.rows, shard.cols);
            for r in 0..shard.rows {
                for c in 0..shard.cols {
                    local.set(r, c, map.get(shard.row0 + r, shard.col0 + c));
                }
            }
            chip.tile_mut(id)?.apply_fault_map(&local);
        }
        Ok(())
    }

    /// Gathers the shard tiles' f32 conductance planes in row-major shard
    /// order, validating every id first.
    fn planes<'a>(&self, chip: &'a TiledChip) -> Result<Vec<&'a [f32]>, TileError> {
        self.tiles
            .iter()
            .map(|&id| chip.tile(id).map(|x| x.conductance_plane()))
            .collect()
    }

    /// Tiled analog matrix–vector product: `out[k] = Σ_r g[r][k]·input[r]`
    /// with the accumulation order of the monolithic kernel (see module
    /// docs) — bit-identical to [`rram::Crossbar::mvm`] on an array
    /// holding the same conductances.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch for a wrong-length input; unknown
    /// tile ids propagate.
    pub fn mvm(&self, chip: &TiledChip, input: &[f32]) -> Result<Vec<f32>, TileError> {
        if input.len() != self.grid.rows {
            return Err(TileError::Rram(RramError::DimensionMismatch {
                expected: self.grid.rows,
                actual: input.len(),
            }));
        }
        let planes = self.planes(chip)?;
        let mut out = vec![0.0f32; self.grid.cols];
        self.mvm_into(&planes, input, &mut out);
        Ok(out)
    }

    /// Batched tiled MVM: `inputs` is `batch × rows` row-major, the result
    /// is `batch × cols` row-major. Each sample runs the kernel of
    /// [`TiledMapping::mvm`], so every output row is bit-identical to it —
    /// and hence to the monolithic kernel.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when `inputs.len() != batch × rows`.
    pub fn mvm_batch(
        &self,
        chip: &TiledChip,
        inputs: &[f32],
        batch: usize,
    ) -> Result<Vec<f32>, TileError> {
        if inputs.len() != batch * self.grid.rows {
            return Err(TileError::Rram(RramError::DimensionMismatch {
                expected: batch * self.grid.rows,
                actual: inputs.len(),
            }));
        }
        let planes = self.planes(chip)?;
        let mut out = vec![0.0f32; batch * self.grid.cols];
        for (sample, out_row) in inputs
            .chunks_exact(self.grid.rows)
            .zip(out.chunks_exact_mut(self.grid.cols))
        {
            self.mvm_into(&planes, sample, out_row);
        }
        Ok(out)
    }

    /// The shared inner kernel: accumulates every output column over all
    /// rows in ascending global row order, reading each row segment from
    /// the covering shard's plane.
    fn mvm_into(&self, planes: &[&[f32]], input: &[f32], out: &mut [f32]) {
        let skip_zeros = sparse_enough(input);
        for sr in 0..self.grid.row_shards() {
            let row0 = sr * self.grid.tile_rows;
            let band_rows = self.grid.tile_rows.min(self.grid.rows - row0);
            for lr in 0..band_rows {
                let v = input[row0 + lr];
                if skip_zeros && v == 0.0 {
                    continue;
                }
                for sc in 0..self.grid.col_shards() {
                    let scol0 = sc * self.grid.tile_cols;
                    let scols = self.grid.tile_cols.min(self.grid.cols - scol0);
                    let plane = planes[self.grid.shard_index(sr, sc)];
                    let seg = &plane[lr * scols..(lr + 1) * scols];
                    for (o, &g) in out[scol0..scol0 + scols].iter_mut().zip(seg) {
                        *o += g * v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use rram::crossbar::CrossbarBuilder;
    use rram::fault::FaultKind;
    use rram::spatial::{FaultInjection, SpatialDistribution};

    /// Deterministic pseudo-random conductances/inputs without pulling in
    /// an RNG: a splitmix-style integer hash mapped to [0, 1).
    fn lcg01(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn build_pair(
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (TiledChip, TiledMapping, rram::Crossbar) {
        let mut chip = TiledChip::new(ChipConfig::new(tile, 8, 5)).unwrap();
        let targets: Vec<f64> = (0..rows * cols).map(|i| lcg01(i as u64)).collect();
        let mapping = TiledMapping::place(&mut chip, rows, cols, &targets).unwrap();
        let mut mono = CrossbarBuilder::new(rows, cols).seed(977).build().unwrap();
        mono.program_conductances(&targets).unwrap();
        (chip, mapping, mono)
    }

    fn dense_input(rows: usize, salt: u64) -> Vec<f32> {
        (0..rows)
            .map(|i| (lcg01(i as u64 ^ salt) * 2.0 - 1.0) as f32)
            .collect()
    }

    fn sparse_input(rows: usize, salt: u64) -> Vec<f32> {
        (0..rows)
            .map(|i| {
                if lcg01(i as u64 ^ salt) < 0.8 {
                    0.0
                } else {
                    (lcg01(i as u64 ^ salt ^ 0xFF) * 2.0 - 1.0) as f32
                }
            })
            .collect()
    }

    fn assert_bit_identical(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "col {i}: {x} vs {y}");
        }
    }

    #[test]
    fn tiled_mvm_matches_monolithic_with_remainders() {
        // 300×200 on 128² tiles: remainder bands on both axes.
        let (chip, mapping, mono) = build_pair(300, 200, 128);
        for salt in [1u64, 2, 3] {
            let dense = dense_input(300, salt);
            assert_bit_identical(
                &mapping.mvm(&chip, &dense).unwrap(),
                &mono.mvm(&dense).unwrap(),
            );
            let sparse = sparse_input(300, salt);
            assert_bit_identical(
                &mapping.mvm(&chip, &sparse).unwrap(),
                &mono.mvm(&sparse).unwrap(),
            );
        }
    }

    #[test]
    fn place_matches_allocate_then_program() {
        let config = ChipConfig::new(16, 8, 5)
            .with_injection(FaultInjection::new(SpatialDistribution::Uniform, 0.2).unwrap());
        let targets: Vec<f64> = (0..40 * 30).map(|i| lcg01(i as u64)).collect();
        let mut placed = TiledChip::new(config).unwrap();
        let a = TiledMapping::place(&mut placed, 40, 30, &targets).unwrap();
        let mut programmed = TiledChip::new(config).unwrap();
        let b = TiledMapping::allocate(&mut programmed, 40, 30).unwrap();
        b.program(&mut programmed, &targets).unwrap();
        assert_eq!(a.tile_ids(), b.tile_ids());
        assert_eq!(placed.export_state(), programmed.export_state());
    }

    #[test]
    fn tiled_mvm_matches_monolithic_with_faults() {
        let (mut chip, mapping, mut mono) = build_pair(150, 140, 64);
        // Mirror an adversarial fault pattern across both, including
        // cells on shard edges.
        let mut map = FaultMap::healthy(150, 140);
        for i in 0..150usize {
            let (r, c) = (i, (i * 7) % 140);
            let kind = if i % 2 == 0 {
                FaultKind::StuckAt0
            } else {
                FaultKind::StuckAt1
            };
            map.set(r, c, Some(kind));
        }
        map.set(63, 63, Some(FaultKind::StuckAt1));
        map.set(64, 64, Some(FaultKind::StuckAt0));
        mapping.apply_fault_map(&mut chip, &map).unwrap();
        mono.apply_fault_map(&map);
        assert_eq!(
            mapping.fault_map(&chip).unwrap().count_faulty(),
            map.count_faulty()
        );
        let input = dense_input(150, 9);
        assert_bit_identical(
            &mapping.mvm(&chip, &input).unwrap(),
            &mono.mvm(&input).unwrap(),
        );
    }

    #[test]
    fn single_tile_degenerates_to_monolithic() {
        let (chip, mapping, mono) = build_pair(60, 50, 128);
        assert_eq!(mapping.tile_ids().len(), 1);
        let input = dense_input(60, 4);
        assert_bit_identical(
            &mapping.mvm(&chip, &input).unwrap(),
            &mono.mvm(&input).unwrap(),
        );
    }

    #[test]
    fn batch_rows_match_single_mvm() {
        let (chip, mapping, _) = build_pair(130, 70, 64);
        let batch = 5;
        let mut inputs = Vec::new();
        for b in 0..batch {
            inputs.extend(dense_input(130, 100 + b as u64));
        }
        let out = mapping.mvm_batch(&chip, &inputs, batch).unwrap();
        for b in 0..batch {
            let single = mapping.mvm(&chip, &inputs[b * 130..(b + 1) * 130]).unwrap();
            assert_bit_identical(&out[b * 70..(b + 1) * 70], &single);
        }
    }

    #[test]
    fn dimension_errors() {
        let (mut chip, mapping, _) = build_pair(40, 30, 16);
        assert!(mapping.mvm(&chip, &[0.0; 39]).is_err());
        assert!(mapping.mvm_batch(&chip, &[0.0; 41], 1).is_err());
        assert!(mapping.program(&mut chip, &[0.5; 7]).is_err());
        assert!(TiledMapping::place(&mut chip, 40, 30, &[0.5; 7]).is_err());
        assert!(mapping.locate(40, 0).is_none());
        assert!(mapping.locate(0, 30).is_none());
        let ids = mapping.tile_ids().to_vec();
        assert!(TiledMapping::from_tile_ids(&chip, 40, 30, ids.clone()).is_ok());
        assert!(TiledMapping::from_tile_ids(&chip, 40, 30, ids[1..].to_vec()).is_err());
        assert!(TiledMapping::from_tile_ids(&chip, 0, 30, ids.clone()).is_err());
        let mut unknown = ids.clone();
        unknown[0] = 99;
        assert!(TiledMapping::from_tile_ids(&chip, 40, 30, unknown).is_err());
        // The first shard is 16x16, the last an 8x14 remainder.
        let mut swapped = ids;
        let last = swapped.len() - 1;
        swapped.swap(0, last);
        assert!(TiledMapping::from_tile_ids(&chip, 40, 30, swapped).is_err());
    }

    #[test]
    fn repoint_and_write_route_to_shards() {
        let mut chip = TiledChip::new(ChipConfig::new(16, 8, 3).with_spare_tiles(1)).unwrap();
        let mut mapping = TiledMapping::allocate(&mut chip, 20, 20).unwrap();
        // Cell (17, 3) lives in shard (1, 0) — the bottom remainder band.
        let id = mapping.tile_ids()[2];
        assert_eq!(mapping.locate(17, 3), Some((id, 1, 3)));
        let write = |chip: &mut TiledChip, mapping: &TiledMapping, g| {
            let (id, r, c) = mapping.locate(17, 3).unwrap();
            chip.tile_mut(id).unwrap().write_analog(r, c, g).unwrap();
        };
        write(&mut chip, &mapping, 1.0);
        assert_eq!(chip.tile(id).unwrap().conductance(1, 3).unwrap(), 1.0);
        // Substitute that tile and re-point the shard.
        let new_id = match chip.substitute(id).unwrap() {
            crate::chip::SpareOutcome::Attached { new_id } => new_id,
            crate::chip::SpareOutcome::Exhausted => panic!("have a spare"),
        };
        assert_eq!(mapping.repoint(id, new_id), 1);
        assert_eq!(mapping.shard_of_tile(new_id).unwrap().row0, 16);
        // Writes now land on the spare.
        write(&mut chip, &mapping, 0.5);
        assert_eq!(chip.tile(new_id).unwrap().conductance(1, 3).unwrap(), 0.5);
    }
}
