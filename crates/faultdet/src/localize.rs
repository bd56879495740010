//! Fault localization from two-direction test flags.
//!
//! A row-direction test cycle drives one *group* of rows and compares every
//! column output; a mismatch flags `(row-group, column)` — "at least one
//! cell in these rows of this column failed to update". The column-direction
//! pass symmetrically flags `(column-group, row)`. A cell is predicted
//! faulty when it sits at the intersection of a flagged column and a flagged
//! row (Fig. 4 of the paper), restricted to the candidate cells under test.

use std::collections::BTreeSet;

use rram::fault::{FaultKind, FaultMap};

use crate::selected::CandidateMask;

/// Mismatch flags collected by one fault-kind pass.
#[derive(Debug, Clone, Default)]
pub struct FlagSet {
    /// Flags from row-direction tests: `(row_group_index, column)`.
    ///
    /// A `BTreeSet` (not `HashSet`) so that any future iteration over
    /// the flags is deterministic — the D1 lint bans unordered
    /// collections in the detection path.
    row_test: BTreeSet<(usize, usize)>,
    /// Flags from column-direction tests: `(column_group_index, row)`.
    col_test: BTreeSet<(usize, usize)>,
}

impl FlagSet {
    /// Creates an empty flag set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a mismatch seen while driving row group `group` on column
    /// output `col`.
    pub fn flag_row_test(&mut self, group: usize, col: usize) {
        self.row_test.insert((group, col));
    }

    /// Records a mismatch seen while driving column group `group` on row
    /// output `row`.
    pub fn flag_col_test(&mut self, group: usize, row: usize) {
        self.col_test.insert((group, row));
    }

    /// Predicts the fault map: a candidate cell `(r, c)` is predicted to
    /// carry `kind` iff its row group flagged column `c` **and** its column
    /// group flagged row `r`.
    ///
    /// `test_size` must be the group size used while collecting the flags.
    ///
    /// # Panics
    ///
    /// Panics if `test_size` is zero.
    pub fn predict(
        &self,
        candidates: &CandidateMask,
        kind: FaultKind,
        test_size: usize,
    ) -> FaultMap {
        assert!(test_size > 0, "test size must be non-zero");
        let (rows, cols) = (candidates.rows(), candidates.cols());
        let mut map = FaultMap::healthy(rows, cols);
        // An intersection needs flags from both directions.
        if self.row_test.is_empty() || self.col_test.is_empty() {
            return map;
        }
        // Dense lookup tables instead of per-candidate set queries: candidate
        // coordinates are bounded by the array, so flags outside it (callers
        // may record them) can never join an intersection and are skipped.
        let row_groups = rows.div_ceil(test_size);
        let col_groups = cols.div_ceil(test_size);
        let mut row_lut = vec![false; row_groups * cols];
        for &(group, col) in &self.row_test {
            if group < row_groups && col < cols {
                row_lut[group * cols + col] = true;
            }
        }
        let mut col_lut = vec![false; col_groups * rows];
        for &(group, row) in &self.col_test {
            if group < col_groups && row < rows {
                col_lut[group * rows + row] = true;
            }
        }
        for (r, c) in candidates.iter() {
            if row_lut[(r / test_size) * cols + c] && col_lut[(c / test_size) * rows + r] {
                map.set(r, c, Some(kind));
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_is_localized_exactly() {
        // 10x10, test size 5, fault at (2, 7): row test flags (group 0, col 7),
        // column test flags (group 1, row 2).
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 7);
        flags.flag_col_test(1, 2);
        let candidates = CandidateMask::all(10, 10);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 1);
        assert_eq!(map.get(2, 7), Some(FaultKind::StuckAt0));
    }

    #[test]
    fn cross_product_false_positives_emerge() {
        // Faults at (0, 0) and (1, 1) share both the row group and the
        // column group (test size 5), so the intersections (0,1) and (1,0)
        // are also predicted — the Fig. 4(a) false-positive pattern.
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 0);
        flags.flag_row_test(0, 1);
        flags.flag_col_test(0, 0);
        flags.flag_col_test(0, 1);
        let candidates = CandidateMask::all(10, 10);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 4);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!(map.get(r, c).is_some());
        }
    }

    #[test]
    fn candidates_limit_predictions() {
        // Same flags as above, but only (0,0) is a candidate: the selected-
        // cell improvement removes the other three predictions.
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 0);
        flags.flag_row_test(0, 1);
        flags.flag_col_test(0, 0);
        flags.flag_col_test(0, 1);
        let mut xbar = rram::crossbar::CrossbarBuilder::new(10, 10)
            .seed(0)
            .build()
            .unwrap();
        // Mark every cell except (0,0) as high level → not SA0 candidates.
        for r in 0..10 {
            for c in 0..10 {
                if (r, c) != (0, 0) {
                    xbar.write_level(r, c, 7).unwrap();
                }
            }
        }
        let store = crate::reference::OffChipStore::read_from(&xbar);
        let candidates = CandidateMask::sa0_candidates(&store, 0);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 1);
        assert_eq!(map.get(0, 0), Some(FaultKind::StuckAt0));
    }

    #[test]
    fn one_direction_alone_is_not_enough() {
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 3);
        let candidates = CandidateMask::all(8, 8);
        let map = flags.predict(&candidates, FaultKind::StuckAt1, 4);
        assert_eq!(map.count_faulty(), 0);
    }
}
