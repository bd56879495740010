//! Selected-cell testing (§4.3 of the paper).
//!
//! SA0 faults pin a cell at minimum conductance, so a cell reading a *high*
//! level cannot be hiding one; symmetrically for SA1. The read operation at
//! the start of the test phase therefore tells the controller exactly which
//! cells are worth testing for each fault kind. Testing only those cells
//! shrinks both the test time (skipped groups) and the number of false
//! positives (flagged intersections only ever contain candidates).

use crate::reference::OffChipStore;

/// A per-cell candidate mask for one fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateMask {
    rows: usize,
    cols: usize,
    mask: Vec<bool>,
}

impl CandidateMask {
    /// Marks every cell as a candidate (all-cells testing).
    pub fn all(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            mask: vec![true; rows * cols],
        }
    }

    /// SA0 candidates: cells whose stored level is at most `max_level`
    /// (high-resistance cells — the only place an SA0 fault can hide, since
    /// a stuck-at-0 cell always reads level 0).
    pub fn sa0_candidates(store: &OffChipStore, max_level: u16) -> Self {
        Self::from_predicate(store, |level| level <= max_level)
    }

    /// SA1 candidates: cells whose stored level is at least `min_level`
    /// (low-resistance cells).
    pub fn sa1_candidates(store: &OffChipStore, min_level: u16) -> Self {
        Self::from_predicate(store, |level| level >= min_level)
    }

    fn from_predicate(store: &OffChipStore, pred: impl Fn(u16) -> bool) -> Self {
        let (rows, cols) = (store.rows(), store.cols());
        let mut mask = vec![false; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                mask[r * cols + c] = pred(store.stored_level(r, c));
            }
        }
        Self { rows, cols, mask }
    }

    /// Builds a mask from an explicit row-major bitmap — the off-chip
    /// store's pending-cell set.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != rows * cols`.
    pub fn from_mask(rows: usize, cols: usize, mask: Vec<bool>) -> Self {
        assert_eq!(
            mask.len(),
            rows * cols,
            "mask length must equal rows * cols"
        );
        Self { rows, cols, mask }
    }

    /// Intersects the mask with a stored-level predicate (selected-cell
    /// testing applied on top of a pending set).
    ///
    /// # Panics
    ///
    /// Panics if the store dimensions differ from the mask's.
    pub fn restrict_levels(mut self, store: &OffChipStore, pred: impl Fn(u16) -> bool) -> Self {
        assert!(
            store.rows() == self.rows && store.cols() == self.cols,
            "store dimensions must match the mask"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                let i = r * self.cols + c;
                self.mask[i] = self.mask[i] && pred(store.stored_level(r, c));
            }
        }
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether `(row, col)` is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        self.mask[row * self.cols + col]
    }

    /// Total number of candidate cells.
    pub fn count(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// Whether a row slice contains at least one candidate (drives the
    /// decision to spend a test cycle on this group).
    pub fn any_in_rows(&self, rows: std::ops::Range<usize>) -> bool {
        rows.clone()
            .any(|r| (0..self.cols).any(|c| self.mask[r * self.cols + c]))
    }

    /// Whether a column slice contains at least one candidate.
    pub fn any_in_cols(&self, cols: std::ops::Range<usize>) -> bool {
        (0..self.rows).any(|r| cols.clone().any(|c| self.mask[r * self.cols + c]))
    }

    /// Whether column `col` has a candidate within the given row slice
    /// (controls which output ports are compared during a row-group test).
    pub fn column_has_candidate(&self, rows: std::ops::Range<usize>, col: usize) -> bool {
        rows.clone().any(|r| self.mask[r * self.cols + col])
    }

    /// Whether row `row` has a candidate within the given column slice.
    pub fn row_has_candidate(&self, row: usize, cols: std::ops::Range<usize>) -> bool {
        cols.clone().any(|c| self.mask[row * self.cols + c])
    }

    /// One row of the mask as a slice (`row_slice(r)[c]` ⇔ `contains(r, c)`).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_slice(&self, row: usize) -> &[bool] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.mask[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over candidate coordinates in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mask
            .chunks_exact(self.cols)
            .enumerate()
            .flat_map(|(r, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(move |(c, &m)| m.then_some((r, c)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram::crossbar::CrossbarBuilder;
    use rram::fault::{FaultKind, FaultMap};

    fn store_from_levels(levels: &[(usize, usize, u16)]) -> OffChipStore {
        let mut x = CrossbarBuilder::new(4, 4).seed(0).build().unwrap();
        for &(r, c, l) in levels {
            x.write_level(r, c, l).unwrap();
        }
        OffChipStore::read_from(&x)
    }

    #[test]
    fn all_cells_mask() {
        let m = CandidateMask::all(3, 5);
        assert_eq!(m.count(), 15);
        assert!(m.contains(2, 4));
        assert!(m.any_in_rows(0..1));
        assert!(m.any_in_cols(4..5));
    }

    #[test]
    fn sa0_candidates_are_low_level_cells() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 1), (2, 2, 0)]);
        let m = CandidateMask::sa0_candidates(&store, 1);
        assert!(!m.contains(0, 0), "level-7 cell cannot hide SA0");
        assert!(m.contains(1, 1));
        assert!(m.contains(2, 2));
        assert!(m.contains(3, 3), "fresh cells read 0");
    }

    #[test]
    fn sa1_candidates_are_high_level_cells() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 6), (2, 2, 3)]);
        let m = CandidateMask::sa1_candidates(&store, 6);
        assert!(m.contains(0, 0));
        assert!(m.contains(1, 1));
        assert!(!m.contains(2, 2));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn stuck_cells_are_always_their_kinds_candidates() {
        let mut x = CrossbarBuilder::new(4, 4).seed(0).build().unwrap();
        for r in 0..4 {
            for c in 0..4 {
                x.write_level(r, c, 4).unwrap();
            }
        }
        let mut map = FaultMap::healthy(4, 4);
        map.set(0, 0, Some(FaultKind::StuckAt0));
        map.set(1, 1, Some(FaultKind::StuckAt1));
        x.apply_fault_map(&map);
        let store = OffChipStore::read_from(&x);
        // SA0 cell reads 0 → SA0 candidate for any threshold.
        assert!(CandidateMask::sa0_candidates(&store, 0).contains(0, 0));
        // SA1 cell reads 7 → SA1 candidate for any threshold.
        assert!(CandidateMask::sa1_candidates(&store, 7).contains(1, 1));
    }

    #[test]
    fn explicit_masks_and_level_restriction() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 1)]);
        // Pending set: (0,0), (1,1), (2,2).
        let mut pending = vec![false; 16];
        for i in [0usize, 5, 10] {
            pending[i] = true;
        }
        let m = CandidateMask::from_mask(4, 4, pending);
        assert_eq!(m.count(), 3);
        assert_eq!(m.row_slice(1), &[false, true, false, false]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 0), (1, 1), (2, 2)]);
        // SA0 restriction drops the level-7 cell but keeps low-level ones.
        let sa0 = m.restrict_levels(&store, |level| level <= 1);
        assert!(!sa0.contains(0, 0));
        assert!(sa0.contains(1, 1));
        assert!(sa0.contains(2, 2), "fresh cells read 0");
        assert_eq!(sa0.count(), 2);
    }

    #[test]
    fn group_queries() {
        let store = store_from_levels(&[(2, 3, 7)]);
        let m = CandidateMask::sa1_candidates(&store, 7);
        assert_eq!(m.count(), 1);
        assert!(m.any_in_rows(2..3));
        assert!(!m.any_in_rows(0..2));
        assert!(m.any_in_cols(3..4));
        assert!(!m.any_in_cols(0..3));
        assert!(m.column_has_candidate(0..4, 3));
        assert!(!m.column_has_candidate(0..2, 3));
        assert!(m.row_has_candidate(2, 2..4));
        assert!(!m.row_has_candidate(1, 0..4));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, 3)]);
    }
}
