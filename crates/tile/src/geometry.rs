//! Remainder-aware shard geometry.
//!
//! A logical `rows × cols` matrix sharded onto bounded `tile_rows ×
//! tile_cols` arrays decomposes into a row-major grid of
//! `⌈rows/tile_rows⌉ × ⌈cols/tile_cols⌉` shards; the last shard of each
//! axis carries the remainder and may be smaller. All tile-local fault
//! handling, detection scheduling, and reduction ordering in this crate is
//! phrased in terms of this grid, so the geometry lives in one place and
//! is exhaustively unit-tested against hand-computed remainders.

/// One rectangular shard of a logical matrix: where it starts and how big
/// it is (remainder shards are smaller than the nominal tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First logical row covered.
    pub row0: usize,
    /// First logical column covered.
    pub col0: usize,
    /// Rows covered (≤ nominal tile rows).
    pub rows: usize,
    /// Columns covered (≤ nominal tile cols).
    pub cols: usize,
}

impl Shard {
    /// Cells covered by this shard.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// The shard grid of one logical matrix on fixed-size tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGrid {
    /// Logical matrix rows.
    pub rows: usize,
    /// Logical matrix columns.
    pub cols: usize,
    /// Nominal tile rows (shards never exceed this).
    pub tile_rows: usize,
    /// Nominal tile columns.
    pub tile_cols: usize,
}

impl ShardGrid {
    /// Builds the grid; all four dimensions must be non-zero.
    pub fn new(rows: usize, cols: usize, tile_rows: usize, tile_cols: usize) -> Option<Self> {
        if rows == 0 || cols == 0 || tile_rows == 0 || tile_cols == 0 {
            return None;
        }
        Some(ShardGrid {
            rows,
            cols,
            tile_rows,
            tile_cols,
        })
    }

    /// Shard rows (`⌈rows/tile_rows⌉`).
    pub fn row_shards(&self) -> usize {
        self.rows.div_ceil(self.tile_rows)
    }

    /// Shard columns (`⌈cols/tile_cols⌉`).
    pub fn col_shards(&self) -> usize {
        self.cols.div_ceil(self.tile_cols)
    }

    /// Total shard count.
    pub fn shard_count(&self) -> usize {
        self.row_shards() * self.col_shards()
    }

    /// The shard at grid position `(sr, sc)`, remainder-aware. Returns
    /// `None` outside the grid.
    pub fn shard(&self, sr: usize, sc: usize) -> Option<Shard> {
        if sr >= self.row_shards() || sc >= self.col_shards() {
            return None;
        }
        let row0 = sr * self.tile_rows;
        let col0 = sc * self.tile_cols;
        Some(Shard {
            row0,
            col0,
            rows: self.tile_rows.min(self.rows - row0),
            cols: self.tile_cols.min(self.cols - col0),
        })
    }

    /// Row-major linear index of grid position `(sr, sc)`.
    pub fn shard_index(&self, sr: usize, sc: usize) -> usize {
        sr * self.col_shards() + sc
    }

    /// The grid position `(sr, sc)` covering a logical cell.
    pub fn shard_of_cell(&self, row: usize, col: usize) -> Option<(usize, usize)> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        Some((row / self.tile_rows, col / self.tile_cols))
    }

    /// Iterates all shards in row-major order (the canonical allocation,
    /// programming, and reduction order of this crate).
    pub fn iter(&self) -> impl Iterator<Item = Shard> + '_ {
        let cols = self.col_shards();
        (0..self.shard_count()).map(move |i| {
            #[expect(
                clippy::expect_used,
                reason = "i is in range by construction of the iterator"
            )]
            self.shard(i / cols, i % cols).expect("index in grid range")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dims() {
        assert!(ShardGrid::new(0, 4, 2, 2).is_none());
        assert!(ShardGrid::new(4, 0, 2, 2).is_none());
        assert!(ShardGrid::new(4, 4, 0, 2).is_none());
        assert!(ShardGrid::new(4, 4, 2, 0).is_none());
    }

    #[test]
    fn exact_grid_has_uniform_shards() {
        let g = ShardGrid::new(256, 512, 128, 128).unwrap();
        assert_eq!((g.row_shards(), g.col_shards()), (2, 4));
        for s in g.iter() {
            assert_eq!((s.rows, s.cols), (128, 128));
        }
    }

    #[test]
    fn remainder_shards_shrink() {
        // 1024×784 on 128² tiles: 8×7 grid, last column shard is 128×16.
        let g = ShardGrid::new(1024, 784, 128, 128).unwrap();
        assert_eq!((g.row_shards(), g.col_shards()), (8, 7));
        let last = g.shard(7, 6).unwrap();
        assert_eq!((last.row0, last.col0), (896, 768));
        assert_eq!((last.rows, last.cols), (128, 16));
        // Shards partition the matrix exactly.
        let covered: usize = g.iter().map(|s| s.cells()).sum();
        assert_eq!(covered, 1024 * 784);
    }

    #[test]
    fn tiny_matrix_is_one_remainder_shard() {
        let g = ShardGrid::new(3, 5, 128, 128).unwrap();
        assert_eq!(g.shard_count(), 1);
        let s = g.shard(0, 0).unwrap();
        assert_eq!((s.rows, s.cols), (3, 5));
    }

    #[test]
    fn cell_lookup_matches_geometry() {
        let g = ShardGrid::new(300, 200, 128, 128).unwrap();
        for (row, col) in [(0, 0), (127, 127), (128, 0), (299, 199), (256, 129)] {
            let (sr, sc) = g.shard_of_cell(row, col).unwrap();
            let s = g.shard(sr, sc).unwrap();
            assert!(row >= s.row0 && row < s.row0 + s.rows);
            assert!(col >= s.col0 && col < s.col0 + s.cols);
        }
        assert!(g.shard_of_cell(300, 0).is_none());
        assert!(g.shard_of_cell(0, 200).is_none());
        assert!(g.shard(3, 0).is_none());
    }

    #[test]
    fn iteration_is_row_major() {
        let g = ShardGrid::new(300, 300, 128, 128).unwrap();
        let shards: Vec<Shard> = g.iter().collect();
        assert_eq!(shards.len(), 9);
        assert_eq!((shards[0].row0, shards[0].col0), (0, 0));
        assert_eq!((shards[1].row0, shards[1].col0), (0, 128));
        assert_eq!((shards[3].row0, shards[3].col0), (128, 0));
        assert_eq!((shards[8].rows, shards[8].cols), (44, 44));
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(g.shard_index(s.row0 / 128, s.col0 / 128), i);
        }
    }
}
