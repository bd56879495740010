//! The off-chip value store and reference computation.
//!
//! The first step of the test procedure reads the whole crossbar and stores
//! the levels off-chip. During the comparison steps the controller knows, for
//! every cell, what level it *should* be at — the stored level plus the test
//! increment, saturating at the level range boundaries — so it can select the
//! correct reference voltage for any tested group of rows or columns.
//!
//! Two constructors fill this type:
//!
//! * **Persistent** ([`OffChipStore::attach`] + [`OffChipStore::sync_from`]):
//!   the store every detection campaign runs on. It stays alive between
//!   campaigns and is kept coherent from the crossbar's dirty-cell journal,
//!   so each campaign only re-reads the cells written since the last one. A
//!   pending-cell mask remembers which cells still await testing, and
//!   per-group sum aggregates make the expected group references
//!   O(candidates) instead of O(cells) to compute.
//! * **Snapshot** ([`OffChipStore::read_from`]): a one-off full-array read
//!   with nothing pending — the adaptive detector's store, and the oracle
//!   the persistent store is tested against.

use rram::crossbar::Crossbar;
use rram::RramError;

use crate::selected::CandidateMask;

/// Per-group sums of stored levels, maintained incrementally so expected
/// group references do not require a dense sweep of the snapshot.
#[derive(Debug, Clone)]
struct GroupAggregates {
    /// The test size (group height/width) the partitions were built for.
    test_size: usize,
    /// `col_base[g * cols + c]`: sum of stored levels in column `c` over row
    /// group `g` (rows `g*t .. min((g+1)*t, rows)`).
    col_base: Vec<u64>,
    /// `row_base[g * rows + r]`: sum of stored levels in row `r` over column
    /// group `g`.
    row_base: Vec<u64>,
}

impl GroupAggregates {
    fn build(stored: &[u16], rows: usize, cols: usize, test_size: usize) -> Self {
        let row_groups = rows.div_ceil(test_size);
        let col_groups = cols.div_ceil(test_size);
        let mut col_base = vec![0u64; row_groups * cols];
        let mut row_base = vec![0u64; col_groups * rows];
        for r in 0..rows {
            let row = &stored[r * cols..(r + 1) * cols];
            let group_row = &mut col_base[(r / test_size) * cols..(r / test_size + 1) * cols];
            for (b, &lvl) in group_row.iter_mut().zip(row) {
                *b += u64::from(lvl);
            }
            for (c, &lvl) in row.iter().enumerate() {
                row_base[(c / test_size) * rows + r] += u64::from(lvl);
            }
        }
        Self {
            test_size,
            col_base,
            row_base,
        }
    }

    /// Applies a single-cell level change to both aggregate planes.
    fn update(&mut self, row: usize, col: usize, old: u16, new: u16, rows: usize, cols: usize) {
        let t = self.test_size;
        let cb = &mut self.col_base[(row / t) * cols + col];
        *cb += u64::from(new);
        *cb -= u64::from(old);
        let rb = &mut self.row_base[(col / t) * rows + row];
        *rb += u64::from(new);
        *rb -= u64::from(old);
    }
}

/// Off-chip copy of the crossbar levels used to derive test references.
///
/// Equality compares the snapshot content only (`rows`, `cols`, `levels`,
/// stored levels); the pending mask and cached aggregates are bookkeeping.
#[derive(Debug, Clone)]
pub struct OffChipStore {
    rows: usize,
    cols: usize,
    levels: u16,
    stored: Vec<u16>,
    /// Cells written (level-changed *or* rewritten) since they were last
    /// tested — the campaign's candidate universe.
    pending: Vec<bool>,
    pending_count: usize,
    agg: Option<GroupAggregates>,
}

impl PartialEq for OffChipStore {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.levels == other.levels
            && self.stored == other.stored
    }
}

impl Eq for OffChipStore {}

impl OffChipStore {
    /// Reads the crossbar ("Read RRAM Values, Store Off-Chip" in Fig. 3).
    pub fn read_from(xbar: &Crossbar) -> Self {
        let stored = xbar.read_all_levels();
        let cells = stored.len();
        Self {
            rows: xbar.rows(),
            cols: xbar.cols(),
            levels: xbar.levels(),
            stored,
            pending: vec![false; cells],
            pending_count: 0,
            agg: None,
        }
    }

    /// Creates a *persistent* store attached to the crossbar: a full snapshot
    /// with every cell marked pending (nothing has been tested yet) and the
    /// crossbar's dirty journal reset so future [`sync_from`] calls see only
    /// writes that happened after this point.
    ///
    /// [`sync_from`]: Self::sync_from
    pub fn attach(xbar: &mut Crossbar) -> Self {
        let mut store = Self::read_from(xbar);
        store.pending.fill(true);
        store.pending_count = store.pending.len();
        xbar.clear_dirty();
        store
    }

    /// Brings the store up to date from the crossbar's dirty-cell journal:
    /// every cell written since the last sync is re-read, its stored level
    /// (and any cached aggregates) updated, and the cell marked pending for
    /// the next test campaign. Returns the number of cells read, and clears
    /// the journal.
    ///
    /// The journal is complete — a cell absent from it cannot have changed —
    /// so after this call the store equals a fresh [`read_from`] snapshot.
    ///
    /// [`read_from`]: Self::read_from
    ///
    /// # Errors
    ///
    /// Returns [`RramError::DimensionMismatch`] when the crossbar dimensions
    /// do not match the snapshot.
    pub fn sync_from(&mut self, xbar: &mut Crossbar) -> Result<u64, RramError> {
        if xbar.rows() != self.rows || xbar.cols() != self.cols {
            return Err(RramError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: xbar.rows() * xbar.cols(),
            });
        }
        let dirty = xbar.dirty_cells().to_vec();
        let read = dirty.len() as u64;
        for i in dirty {
            let (r, c) = (i / self.cols, i % self.cols);
            let level = xbar.read_level(r, c)?;
            self.set_level(r, c, level);
        }
        xbar.clear_dirty();
        Ok(read)
    }

    /// Records an off-chip level for one cell, updating any cached group
    /// aggregates and marking the cell pending.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set_level(&mut self, row: usize, col: usize, level: u16) {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        let i = row * self.cols + col;
        let old = self.stored[i];
        if old != level {
            if let Some(agg) = &mut self.agg {
                agg.update(row, col, old, level, self.rows, self.cols);
            }
            self.stored[i] = level;
        }
        if !self.pending[i] {
            self.pending[i] = true;
            self.pending_count += 1;
        }
    }

    /// Row-major mask of cells awaiting testing.
    pub fn pending_mask(&self) -> &[bool] {
        &self.pending
    }

    /// Number of cells awaiting testing.
    pub fn pending_count(&self) -> usize {
        self.pending_count
    }

    /// Marks every cell as tested (called once a campaign has covered the
    /// pending set).
    pub fn clear_pending(&mut self) {
        self.pending.fill(false);
        self.pending_count = 0;
    }

    /// Builds (or rebuilds, when the test size changed) the per-group sum
    /// aggregates backing the `*_cached` expected-sum methods.
    ///
    /// # Panics
    ///
    /// Panics if `test_size` is zero.
    pub fn ensure_aggregates(&mut self, test_size: usize) {
        assert!(test_size > 0, "test size must be non-zero");
        let stale = match &self.agg {
            Some(agg) => agg.test_size != test_size,
            None => true,
        };
        if stale {
            self.agg = Some(GroupAggregates::build(
                &self.stored,
                self.rows,
                self.cols,
                test_size,
            ));
        }
    }

    /// Absorbs a test campaign's own writes (nudges and restores) from the
    /// crossbar journal. Cells that read back at their stored level and are
    /// healthy were fully restored and are dropped silently; cells that
    /// differ or carry a hard fault (stuck or worn out mid-campaign) are
    /// re-synced and marked pending so the next campaign retests them.
    /// Clears the journal.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::DimensionMismatch`] when the crossbar dimensions
    /// do not match the snapshot.
    pub fn absorb_campaign_writes(&mut self, xbar: &mut Crossbar) -> Result<(), RramError> {
        if xbar.rows() != self.rows || xbar.cols() != self.cols {
            return Err(RramError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: xbar.rows() * xbar.cols(),
            });
        }
        let dirty = xbar.dirty_cells().to_vec();
        for i in dirty {
            let (r, c) = (i / self.cols, i % self.cols);
            let level = xbar.read_level(r, c)?;
            if level != self.stored[i] || xbar.cell(r, c)?.state().is_faulty() {
                self.set_level(r, c, level);
            }
        }
        xbar.clear_dirty();
        Ok(())
    }

    /// Number of snapshot rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of snapshot columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The stored (pre-test) level of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn stored_level(&self, row: usize, col: usize) -> u16 {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        self.stored[row * self.cols + col]
    }

    /// The level a cell is *expected* to read after a `delta`-level test
    /// write, saturating at the range boundaries — `delta = 0` means the
    /// cell was not written (not a test candidate).
    pub fn expected_level(&self, row: usize, col: usize, delta: i32) -> u16 {
        let stored = i64::from(self.stored_level(row, col));
        (stored + i64::from(delta)).clamp(0, i64::from(self.levels - 1)) as u16
    }

    /// Expected digital level sum over a slice of rows on one column, given
    /// the per-cell test deltas (`deltas[row * cols + col]`).
    ///
    /// # Panics
    ///
    /// Panics if the range or column is out of bounds.
    pub fn expected_column_group_sum(
        &self,
        rows: std::ops::Range<usize>,
        col: usize,
        deltas: &[i32],
    ) -> u64 {
        assert!(
            rows.end <= self.rows && col < self.cols,
            "range out of bounds"
        );
        rows.map(|r| u64::from(self.expected_level(r, col, deltas[r * self.cols + col])))
            .sum()
    }

    /// Expected digital level sum over a slice of columns on one row.
    ///
    /// # Panics
    ///
    /// Panics if the range or row is out of bounds.
    pub fn expected_row_group_sum(
        &self,
        row: usize,
        cols: std::ops::Range<usize>,
        deltas: &[i32],
    ) -> u64 {
        assert!(
            cols.end <= self.cols && row < self.rows,
            "range out of bounds"
        );
        cols.map(|c| u64::from(self.expected_level(row, c, deltas[row * self.cols + c])))
            .sum()
    }

    /// Batched form of [`expected_column_group_sum`]: the expected sum over
    /// the row slice for *every* column at once, as one dense row-major
    /// sweep over the snapshot. Entry `col` equals
    /// `expected_column_group_sum(rows, col, deltas)` exactly (same
    /// clamped-level accumulation, ascending row order), so callers that
    /// sweep whole detection groups avoid `cols` separate strided walks.
    ///
    /// [`expected_column_group_sum`]: Self::expected_column_group_sum
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds.
    pub fn expected_column_group_sums(
        &self,
        rows: std::ops::Range<usize>,
        deltas: &[i32],
    ) -> Vec<u64> {
        assert!(rows.end <= self.rows, "row range out of bounds");
        let top = i64::from(self.levels - 1);
        let mut sums = vec![0u64; self.cols];
        for r in rows {
            let base = r * self.cols;
            let stored = &self.stored[base..base + self.cols];
            let row_deltas = &deltas[base..base + self.cols];
            for (s, (&lvl, &d)) in sums.iter_mut().zip(stored.iter().zip(row_deltas)) {
                *s += (i64::from(lvl) + i64::from(d)).clamp(0, top) as u64;
            }
        }
        sums
    }

    /// Batched form of [`expected_row_group_sum`]: the expected sum over the
    /// column slice for *every* row at once. Entry `row` equals
    /// `expected_row_group_sum(row, cols, deltas)` exactly.
    ///
    /// [`expected_row_group_sum`]: Self::expected_row_group_sum
    ///
    /// # Panics
    ///
    /// Panics if the column range is out of bounds.
    pub fn expected_row_group_sums(
        &self,
        cols: std::ops::Range<usize>,
        deltas: &[i32],
    ) -> Vec<u64> {
        assert!(cols.end <= self.cols, "column range out of bounds");
        let top = i64::from(self.levels - 1);
        let mut sums = vec![0u64; self.rows];
        for (r, s) in sums.iter_mut().enumerate() {
            let base = r * self.cols;
            let stored = &self.stored[base + cols.start..base + cols.end];
            let row_deltas = &deltas[base + cols.start..base + cols.end];
            for (&lvl, &d) in stored.iter().zip(row_deltas) {
                *s += (i64::from(lvl) + i64::from(d)).clamp(0, top) as u64;
            }
        }
        sums
    }

    /// Aggregate-backed form of [`expected_column_group_sums`] for the
    /// uniform-delta case: the sum for each column is the cached base sum of
    /// stored levels plus, for every *candidate* cell, the saturating
    /// adjustment `clamp(stored + delta) - stored`. Bit-for-bit equal to the
    /// dense method called with `deltas[cell] = delta` on candidates and `0`
    /// elsewhere.
    ///
    /// The row range must be one of the groups [`ensure_aggregates`] was
    /// built for; other ranges fall back to a dense base-sum scan (still
    /// exact, just not O(candidates)).
    ///
    /// [`expected_column_group_sums`]: Self::expected_column_group_sums
    /// [`ensure_aggregates`]: Self::ensure_aggregates
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds or the candidate mask has
    /// different dimensions.
    pub fn expected_column_group_sums_cached(
        &self,
        rows: std::ops::Range<usize>,
        candidates: &CandidateMask,
        delta: i32,
    ) -> Vec<u64> {
        assert!(rows.end <= self.rows, "row range out of bounds");
        assert!(
            candidates.rows() == self.rows && candidates.cols() == self.cols,
            "candidate mask dimensions must match"
        );
        let top = i64::from(self.levels - 1);
        let mut sums = self.column_group_base(&rows);
        for r in rows {
            let mask = candidates.row_slice(r);
            let stored = &self.stored[r * self.cols..(r + 1) * self.cols];
            for (c, (&is_candidate, &lvl)) in mask.iter().zip(stored).enumerate() {
                if is_candidate {
                    adjust(&mut sums[c], i64::from(lvl), delta, top);
                }
            }
        }
        sums
    }

    /// Aggregate-backed form of [`expected_row_group_sums`] for the
    /// uniform-delta case; see [`expected_column_group_sums_cached`].
    ///
    /// [`expected_row_group_sums`]: Self::expected_row_group_sums
    /// [`expected_column_group_sums_cached`]: Self::expected_column_group_sums_cached
    ///
    /// # Panics
    ///
    /// Panics if the column range is out of bounds or the candidate mask has
    /// different dimensions.
    pub fn expected_row_group_sums_cached(
        &self,
        cols: std::ops::Range<usize>,
        candidates: &CandidateMask,
        delta: i32,
    ) -> Vec<u64> {
        assert!(cols.end <= self.cols, "column range out of bounds");
        assert!(
            candidates.rows() == self.rows && candidates.cols() == self.cols,
            "candidate mask dimensions must match"
        );
        let top = i64::from(self.levels - 1);
        let mut sums = self.row_group_base(&cols);
        for (r, s) in sums.iter_mut().enumerate() {
            let base = r * self.cols;
            let mask = &candidates.row_slice(r)[cols.start..cols.end];
            let stored = &self.stored[base + cols.start..base + cols.end];
            for (&is_candidate, &lvl) in mask.iter().zip(stored) {
                if is_candidate {
                    adjust(s, i64::from(lvl), delta, top);
                }
            }
        }
        sums
    }

    /// Base (delta-free) column sums over a row slice: served from the
    /// aggregates when the slice is one of their groups, recomputed densely
    /// otherwise.
    fn column_group_base(&self, rows: &std::ops::Range<usize>) -> Vec<u64> {
        if let Some(agg) = &self.agg {
            let t = agg.test_size;
            let g = rows.start / t;
            if rows.start == g * t && rows.end == ((g + 1) * t).min(self.rows) {
                return agg.col_base[g * self.cols..(g + 1) * self.cols].to_vec();
            }
        }
        let mut base = vec![0u64; self.cols];
        for r in rows.clone() {
            let stored = &self.stored[r * self.cols..(r + 1) * self.cols];
            for (b, &lvl) in base.iter_mut().zip(stored) {
                *b += u64::from(lvl);
            }
        }
        base
    }

    /// Base (delta-free) per-row sums over a column slice.
    fn row_group_base(&self, cols: &std::ops::Range<usize>) -> Vec<u64> {
        if let Some(agg) = &self.agg {
            let t = agg.test_size;
            let g = cols.start / t;
            if cols.start == g * t && cols.end == ((g + 1) * t).min(self.cols) {
                return agg.row_base[g * self.rows..(g + 1) * self.rows].to_vec();
            }
        }
        let mut base = vec![0u64; self.rows];
        for (r, b) in base.iter_mut().enumerate() {
            let start = r * self.cols;
            for &lvl in &self.stored[start + cols.start..start + cols.end] {
                *b += u64::from(lvl);
            }
        }
        base
    }

    /// Captures the serializable state of the store (checkpoint).
    ///
    /// The cached group aggregates are *not* part of the state: they are a
    /// derived view rebuilt exactly (integer sums over `stored`) by the
    /// next [`ensure_aggregates`] call after restore.
    ///
    /// [`ensure_aggregates`]: Self::ensure_aggregates
    pub fn export_state(&self) -> StoreState {
        StoreState {
            rows: self.rows,
            cols: self.cols,
            levels: self.levels,
            stored: self.stored.clone(),
            pending: self.pending.clone(),
            pending_count: self.pending_count,
        }
    }

    /// Rebuilds a store from a previously captured [`StoreState`].
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] when the state is incoherent:
    /// zero dimensions, fewer than two levels, array lengths that do not
    /// match `rows * cols`, a stored level outside the level range, or a
    /// `pending_count` that disagrees with the popcount of the pending
    /// mask (the count is maintained in lockstep with the mask, so
    /// disagreement means the snapshot is corrupt).
    pub fn restore_state(state: &StoreState) -> Result<Self, RramError> {
        if state.rows == 0 || state.cols == 0 {
            return Err(RramError::InvalidConfig(format!(
                "snapshot store dimensions must be non-zero (got {}x{})",
                state.rows, state.cols
            )));
        }
        if state.levels < 2 {
            return Err(RramError::InvalidConfig(format!(
                "snapshot store needs at least 2 levels (got {})",
                state.levels
            )));
        }
        let cells = state.rows * state.cols;
        if state.stored.len() != cells || state.pending.len() != cells {
            return Err(RramError::InvalidConfig(format!(
                "snapshot store arrays ({} stored, {} pending) do not match {}x{}",
                state.stored.len(),
                state.pending.len(),
                state.rows,
                state.cols
            )));
        }
        if let Some(&bad) = state.stored.iter().find(|&&l| l >= state.levels) {
            return Err(RramError::InvalidConfig(format!(
                "snapshot store level {bad} outside 0..{}",
                state.levels
            )));
        }
        let popcount = state.pending.iter().filter(|p| **p).count();
        if state.pending_count != popcount {
            return Err(RramError::InvalidConfig(format!(
                "snapshot pending_count {} disagrees with mask popcount {popcount}",
                state.pending_count
            )));
        }
        Ok(Self {
            rows: state.rows,
            cols: state.cols,
            levels: state.levels,
            stored: state.stored.clone(),
            pending: state.pending.clone(),
            pending_count: state.pending_count,
            agg: None,
        })
    }

    /// Restores every cell whose level differs from the snapshot back to the
    /// stored value (the "recover the training weights" step). Returns the
    /// number of restore writes issued.
    ///
    /// # Errors
    ///
    /// Propagates crossbar write errors (only possible on dimension
    /// mismatch, which would be a bug).
    pub fn restore(&self, xbar: &mut Crossbar) -> Result<u64, rram::RramError> {
        let mut writes = 0u64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let target = self.stored[r * self.cols + c];
                if xbar.read_level(r, c)? != target {
                    let outcome = xbar.write_level(r, c, target)?;
                    if outcome.changed() {
                        writes += 1;
                    }
                }
            }
        }
        Ok(writes)
    }
}

/// Serializable state of an [`OffChipStore`]; see
/// [`OffChipStore::export_state`] / [`OffChipStore::restore_state`].
///
/// Invariant (checked on restore): `pending_count` equals the popcount of
/// `pending`. The cached group aggregates are intentionally absent — they
/// are rebuilt exactly on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreState {
    /// Snapshot rows.
    pub rows: usize,
    /// Snapshot columns.
    pub cols: usize,
    /// Programmable levels per cell.
    pub levels: u16,
    /// Row-major stored (pre-test) levels.
    pub stored: Vec<u16>,
    /// Row-major mask of cells awaiting testing.
    pub pending: Vec<bool>,
    /// Number of `true` entries in `pending`.
    pub pending_count: usize,
}

/// Adds `clamp(stored + delta) - stored` to a group sum without signed
/// round-trips on the accumulator.
#[inline]
fn adjust(sum: &mut u64, stored: i64, delta: i32, top: i64) {
    let expected = (stored + i64::from(delta)).clamp(0, top);
    if expected >= stored {
        *sum += (expected - stored) as u64;
    } else {
        *sum -= (stored - expected) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram::crossbar::CrossbarBuilder;
    use rram::fault::{FaultKind, FaultMap};

    fn programmed_xbar() -> Crossbar {
        let mut x = CrossbarBuilder::new(4, 4).seed(1).build().unwrap();
        for r in 0..4 {
            for c in 0..4 {
                x.write_level(r, c, ((r * 2 + c) % 8) as u16).unwrap();
            }
        }
        x
    }

    #[test]
    fn snapshot_matches_crossbar() {
        let x = programmed_xbar();
        let store = OffChipStore::read_from(&x);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(store.stored_level(r, c), x.read_level(r, c).unwrap());
            }
        }
        assert_eq!(store.rows(), 4);
        assert_eq!(store.cols(), 4);
        assert_eq!(store.pending_count(), 0, "plain snapshots track nothing");
    }

    #[test]
    fn expected_level_saturates() {
        let mut x = programmed_xbar();
        x.write_level(0, 0, 7).unwrap();
        x.write_level(0, 1, 0).unwrap();
        let store = OffChipStore::read_from(&x);
        assert_eq!(store.expected_level(0, 0, 1), 7, "saturates at the top");
        assert_eq!(store.expected_level(0, 1, -1), 0, "saturates at the bottom");
        assert_eq!(store.expected_level(0, 0, 0), 7, "delta 0 = not written");
    }

    #[test]
    fn group_sums_accumulate_expected_levels() {
        let x = programmed_xbar();
        let store = OffChipStore::read_from(&x);
        let deltas = vec![1i32; 16];
        let sum = store.expected_column_group_sum(0..4, 1, &deltas);
        // Stored col 1: levels 1, 3, 5, 7; +1 saturating: 2, 4, 6, 7 = 19.
        assert_eq!(sum, 19);
        let sum = store.expected_row_group_sum(1, 0..4, &deltas);
        // Stored row 1: 2, 3, 4, 5; +1: 3, 4, 5, 6 = 18.
        assert_eq!(sum, 18);
    }

    #[test]
    fn batched_group_sums_match_scalar_sums() {
        let x = programmed_xbar();
        let store = OffChipStore::read_from(&x);
        // Mixed deltas, including saturating ones.
        let deltas: Vec<i32> = (0..16).map(|i| [1, -1, 0, 2][i % 4]).collect();
        for lo in 0..4 {
            for hi in lo..=4 {
                let cols = store.expected_column_group_sums(lo..hi, &deltas);
                for (c, &sum) in cols.iter().enumerate() {
                    assert_eq!(sum, store.expected_column_group_sum(lo..hi, c, &deltas));
                }
                let rows = store.expected_row_group_sums(lo..hi, &deltas);
                for (r, &sum) in rows.iter().enumerate() {
                    assert_eq!(sum, store.expected_row_group_sum(r, lo..hi, &deltas));
                }
            }
        }
    }

    #[test]
    fn restore_returns_crossbar_to_snapshot() {
        let mut x = programmed_xbar();
        let store = OffChipStore::read_from(&x);
        // Perturb.
        x.nudge(0, 0, 1).unwrap();
        x.nudge(2, 3, -1).unwrap();
        let writes = store.restore(&mut x).unwrap();
        assert_eq!(writes, 2);
        assert_eq!(x.read_all_levels(), {
            let mut expected = Vec::new();
            for r in 0..4 {
                for c in 0..4 {
                    expected.push(store.stored_level(r, c));
                }
            }
            expected
        });
        // A second restore is free.
        assert_eq!(store.restore(&mut x).unwrap(), 0);
    }

    #[test]
    fn restore_skips_stuck_cells() {
        let mut x = programmed_xbar();
        let store = OffChipStore::read_from(&x);
        let mut map = FaultMap::healthy(4, 4);
        map.set(1, 1, Some(FaultKind::StuckAt0));
        x.apply_fault_map(&map);
        // Stuck cell reads 0 but stored 3; restore attempts a write that the
        // cell ignores; no effective write is counted.
        let writes = store.restore(&mut x).unwrap();
        assert_eq!(writes, 0);
        assert_eq!(x.read_level(1, 1).unwrap(), 0);
    }

    #[test]
    fn attach_marks_all_pending_and_resets_journal() {
        let mut x = programmed_xbar();
        // Pre-attach traffic dirties the journal; attach must discard it.
        x.write_level(0, 0, 5).unwrap();
        let store = OffChipStore::attach(&mut x);
        assert_eq!(store.pending_count(), 16);
        assert!(store.pending_mask().iter().all(|&p| p));
        assert!(x.dirty_cells().is_empty());
        assert_eq!(
            store,
            OffChipStore::read_from(&x),
            "attach snapshots current levels"
        );
    }

    #[test]
    fn sync_from_keeps_store_coherent_under_interleaved_traffic() {
        let mut x = programmed_xbar();
        let mut store = OffChipStore::attach(&mut x);
        store.clear_pending();
        store.ensure_aggregates(2);

        // Interleave writes, nudges, and a hard fault between syncs.
        x.write_level(0, 0, 6).unwrap();
        x.nudge(1, 2, -1).unwrap();
        x.nudge(1, 2, 1).unwrap(); // round-trips back to its stored level
        let mut map = FaultMap::healthy(4, 4);
        map.set(3, 3, Some(FaultKind::StuckAt1));
        x.apply_fault_map(&map);

        let read = store.sync_from(&mut x).unwrap();
        assert_eq!(read, 3, "one read per distinct dirty cell");
        assert_eq!(
            store,
            OffChipStore::read_from(&x),
            "store matches a fresh snapshot"
        );
        assert_eq!(store.pending_count(), 3);
        for (r, c) in [(0, 0), (1, 2), (3, 3)] {
            assert!(
                store.pending_mask()[r * 4 + c],
                "({r}, {c}) must be pending"
            );
        }
        assert!(x.dirty_cells().is_empty());

        // A second sync with no traffic reads nothing.
        assert_eq!(store.sync_from(&mut x).unwrap(), 0);
    }

    #[test]
    fn cached_group_sums_match_dense_oracle() {
        let mut x = CrossbarBuilder::new(7, 5).seed(9).build().unwrap();
        for r in 0..7 {
            for c in 0..5 {
                x.write_level(r, c, ((r * 3 + c * 5) % 8) as u16).unwrap();
            }
        }
        let mut store = OffChipStore::attach(&mut x);
        for t in [1usize, 2, 3, 7] {
            store.ensure_aggregates(t);
            // A sparse candidate set exercising saturation at both ends.
            let mut mask = vec![false; 35];
            for i in [0usize, 6, 11, 17, 23, 29, 34] {
                mask[i] = true;
            }
            let candidates = CandidateMask::from_mask(7, 5, mask.clone());
            for delta in [1i32, -1, 3, -9] {
                let deltas: Vec<i32> = mask.iter().map(|&m| if m { delta } else { 0 }).collect();
                for g in 0..7usize.div_ceil(t) {
                    let rows = g * t..((g + 1) * t).min(7);
                    assert_eq!(
                        store.expected_column_group_sums_cached(rows.clone(), &candidates, delta),
                        store.expected_column_group_sums(rows, &deltas),
                    );
                }
                for g in 0..5usize.div_ceil(t) {
                    let cols = g * t..((g + 1) * t).min(5);
                    assert_eq!(
                        store.expected_row_group_sums_cached(cols.clone(), &candidates, delta),
                        store.expected_row_group_sums(cols, &deltas),
                    );
                }
            }
        }
    }

    #[test]
    fn cached_sums_follow_incremental_updates() {
        let mut x = programmed_xbar();
        let mut store = OffChipStore::attach(&mut x);
        store.ensure_aggregates(2);
        x.write_level(2, 1, 7).unwrap();
        x.write_level(0, 3, 0).unwrap();
        store.sync_from(&mut x).unwrap();
        // Aggregates were updated in place, not rebuilt: compare against a
        // freshly built store over the same levels.
        let mut fresh = OffChipStore::read_from(&x);
        fresh.ensure_aggregates(2);
        let candidates = CandidateMask::all(4, 4);
        for g in 0..2 {
            let range = g * 2..(g + 1) * 2;
            assert_eq!(
                store.expected_column_group_sums_cached(range.clone(), &candidates, 1),
                fresh.expected_column_group_sums_cached(range.clone(), &candidates, 1),
            );
            assert_eq!(
                store.expected_row_group_sums_cached(range.clone(), &candidates, 1),
                fresh.expected_row_group_sums_cached(range, &candidates, 1),
            );
        }
    }

    #[test]
    fn store_state_roundtrip_preserves_everything_observable() {
        let mut x = programmed_xbar();
        let mut store = OffChipStore::attach(&mut x);
        store.clear_pending();
        x.write_level(0, 0, 6).unwrap();
        x.nudge(1, 2, -1).unwrap();
        store.sync_from(&mut x).unwrap();
        store.ensure_aggregates(2);

        let st = store.export_state();
        let mut back = OffChipStore::restore_state(&st).unwrap();
        assert_eq!(store, back);
        assert_eq!(store.pending_mask(), back.pending_mask());
        assert_eq!(store.pending_count(), back.pending_count());
        // Aggregates rebuild exactly (integer sums are order-independent).
        back.ensure_aggregates(2);
        let candidates = CandidateMask::all(4, 4);
        for g in 0..2 {
            let range = g * 2..(g + 1) * 2;
            assert_eq!(
                store.expected_column_group_sums_cached(range.clone(), &candidates, 1),
                back.expected_column_group_sums_cached(range.clone(), &candidates, 1),
            );
            assert_eq!(
                store.expected_row_group_sums_cached(range.clone(), &candidates, 1),
                back.expected_row_group_sums_cached(range, &candidates, 1),
            );
        }
        // Double roundtrip is lossless.
        assert_eq!(back.export_state(), st);
    }

    #[test]
    fn restore_state_rejects_incoherent_snapshots() {
        let mut x = programmed_xbar();
        let store = OffChipStore::attach(&mut x);
        let good = store.export_state();
        assert!(OffChipStore::restore_state(&good).is_ok());

        // Tampered pending_count: the mask/count invariant must hold.
        let mut bad = good.clone();
        bad.pending_count += 1;
        assert!(OffChipStore::restore_state(&bad).is_err());

        // Truncated arrays.
        let mut bad = good.clone();
        bad.stored.pop();
        assert!(OffChipStore::restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.pending.pop();
        assert!(OffChipStore::restore_state(&bad).is_err());

        // A level outside the range.
        let mut bad = good.clone();
        bad.stored[0] = bad.levels;
        assert!(OffChipStore::restore_state(&bad).is_err());

        // Zero dimensions.
        let mut bad = good;
        bad.rows = 0;
        assert!(OffChipStore::restore_state(&bad).is_err());
    }

    #[test]
    fn absorb_drops_restored_cells_but_keeps_failures_pending() {
        let mut x = programmed_xbar();
        let mut store = OffChipStore::attach(&mut x);
        store.clear_pending();

        // A campaign-style round trip: nudge then restore.
        x.nudge(0, 1, 1).unwrap();
        x.write_level(0, 1, store.stored_level(0, 1)).unwrap();
        // A cell that wears out mid-campaign and cannot be restored.
        x.nudge(2, 2, 1).unwrap();
        let mut map = FaultMap::healthy(4, 4);
        map.set(2, 2, Some(FaultKind::StuckAt1));
        x.apply_fault_map(&map);

        store.absorb_campaign_writes(&mut x).unwrap();
        assert!(!store.pending_mask()[1], "restored cell is not re-marked");
        assert!(store.pending_mask()[2 * 4 + 2], "stuck cell stays pending");
        assert_eq!(store.stored_level(2, 2), x.read_level(2, 2).unwrap());
        assert!(x.dirty_cells().is_empty());
        assert_eq!(store.pending_count(), 1);
    }
}
