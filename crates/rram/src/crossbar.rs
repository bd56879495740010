//! The RRAM crossbar array.
//!
//! A crossbar stores a matrix on the conductances of its cells and computes
//! analog matrix–vector products: driving voltages on the rows produces
//! column currents `i_out[k] = Σ_j g[j][k] · v_in[j]` (and symmetrically in
//! the transposed direction, which the paper's test method exploits to
//! derive row information).
//!
//! The simulator tracks, per cell: programmed level, analog conductance
//! (with write variation), hard-fault state, and remaining write endurance.
//! Every effective write consumes endurance; an exhausted cell becomes a
//! stuck-at fault — this is the mechanism that degrades on-line training in
//! the paper's motivational experiment (Fig. 1).
//!
//! # Cached conductance planes
//!
//! Cell state lives in an array-of-structs `Vec<RramCell>` (convenient for
//! the write/fault/endurance logic), but every analog *read* path — MVM in
//! both directions and the quiescent group sums of the test method — runs
//! on dense row-major **conductance planes** cached next to the cells: a
//! `Vec<f32>` for MVM SAXPY kernels and a `Vec<f64>` for the analog group
//! sums the ADC digitizes. The planes are kept coherent by construction:
//! the only two mutation funnels ([`Crossbar::apply_fault_map`] and the
//! internal `finish_write`, which every write primitive calls) refresh the
//! planes for the touched cell. Invariant, checked by the property tests:
//! `plane32[r*cols+c] == cells[r*cols+c].conductance() as f32` (and the
//! `f64` plane equals `conductance()` exactly) at every observable moment.
//!
//! The read kernels run on the calling thread. One array's product is a
//! per-sample kernel far below `par`'s work gate; callers fan out at a
//! coarser level (whole tile campaigns, batched tensor products).

// Kernel module: keep the hot loops in iterator/slice style so the
// optimizer sees contiguous accesses (regressions to index loops are
// rejected at compile time).
#![deny(clippy::needless_range_loop)]
// The f64 master state / f32 plane cache boundary (DESIGN.md §6): every
// narrowing or lossy cast here states why it is exact or intended.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)
)]

use rand::rngs::StdRng;
use rand::Rng;

use crate::cell::{RramCell, WriteOutcome};
use crate::endurance::EnduranceModel;
use crate::error::RramError;
use crate::fault::{FaultKind, FaultMap, FaultState};
use crate::rng::sim_rng;
use crate::spatial::{FaultInjection, SpatialDistribution};
use crate::stats::WearReport;
use crate::variation::WriteVariation;

/// Default number of programmable conductance levels (Xu et al., DAC'13).
pub const DEFAULT_LEVELS: u16 = 8;

/// Whether `input` is sparse enough for the zero-skip branch to win; see
/// [`par::SPARSITY_SKIP_THRESHOLD`]. The one predicate every MVM kernel
/// uses (this crate's and `ftt-tile`'s sharded ones), so all of them take
/// the same branch.
#[inline]
#[expect(
    clippy::cast_precision_loss,
    reason = "a ratio test on counts; both sides fit f32 exactly for any realistic crossbar \
              dimension (< 2^24 cells per axis)"
)]
pub fn sparse_enough(input: &[f32]) -> bool {
    let zeros = input.iter().filter(|&&v| v == 0.0).count();
    zeros as f32 > par::SPARSITY_SKIP_THRESHOLD * input.len() as f32
}

// ---------------------------------------------------------------------------
// Lane kernels (the workspace-wide lane contract; see `par::F32_LANES`).
//
// Two shapes exist. *Output-axis* kernels (`saxpy_f32`, `accumulate_f64`)
// unroll across independent output elements: each element keeps its own
// accumulator, so the per-element accumulation order is unchanged from the
// scalar loop and results are bit-identical to the pre-lane kernels.
// The *reduction* kernel (`lane_sum_f64`) folds one slice into `F64_LANES`
// independent accumulators (remainder round-robin into the same
// accumulators) and combines them with the fixed tree pinned in `par` —
// that tree *is* the defined summation order for row-direction group sums.
// ---------------------------------------------------------------------------

/// `out[i] += row[i] * v`, unrolled [`par::F32_LANES`] outputs per step —
/// the shared SAXPY of both `mvm` paths.
#[inline]
fn saxpy_f32(out: &mut [f32], row: &[f32], v: f32) {
    debug_assert_eq!(out.len(), row.len());
    let mut o = out.chunks_exact_mut(par::F32_LANES);
    let mut g = row.chunks_exact(par::F32_LANES);
    for (o, g) in (&mut o).zip(&mut g) {
        o[0] += g[0] * v;
        o[1] += g[1] * v;
        o[2] += g[2] * v;
        o[3] += g[3] * v;
        o[4] += g[4] * v;
        o[5] += g[5] * v;
        o[6] += g[6] * v;
        o[7] += g[7] * v;
    }
    for (o, &g) in o.into_remainder().iter_mut().zip(g.remainder()) {
        *o += g * v;
    }
}

/// `out[i] += row[i]`, unrolled [`par::F64_LANES`] outputs per step — the
/// column-group-sum kernel behind the row-group pass's quiescent reads.
#[inline]
fn accumulate_f64(out: &mut [f64], row: &[f64]) {
    debug_assert_eq!(out.len(), row.len());
    let mut o = out.chunks_exact_mut(par::F64_LANES);
    let mut g = row.chunks_exact(par::F64_LANES);
    for (o, g) in (&mut o).zip(&mut g) {
        o[0] += g[0];
        o[1] += g[1];
        o[2] += g[2];
        o[3] += g[3];
    }
    for (o, &g) in o.into_remainder().iter_mut().zip(g.remainder()) {
        *o += g;
    }
}

/// Slice sum over [`par::F64_LANES`] independent accumulators with the
/// lane tree `(a0+a1)+(a2+a3)` — the row-direction group-sum kernel.
#[inline]
fn lane_sum_f64(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; par::F64_LANES];
    let mut c = xs.chunks_exact(par::F64_LANES);
    for x in &mut c {
        acc[0] += x[0];
        acc[1] += x[1];
        acc[2] += x[2];
        acc[3] += x[3];
    }
    for (l, &x) in c.remainder().iter().enumerate() {
        acc[l] += x;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Builder for [`Crossbar`] arrays.
///
/// # Example
///
/// ```
/// use rram::crossbar::CrossbarBuilder;
/// use rram::endurance::EnduranceModel;
/// use rram::variation::WriteVariation;
/// use rram::spatial::SpatialDistribution;
///
/// # fn main() -> Result<(), rram::RramError> {
/// let xbar = CrossbarBuilder::new(128, 128)
///     .levels(8)
///     .endurance(EnduranceModel::high_endurance())
///     .variation(WriteVariation::typical())
///     .initial_faults(SpatialDistribution::Uniform, 0.10)
///     .seed(7)
///     .build()?;
/// assert_eq!(xbar.rows(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarBuilder {
    rows: usize,
    cols: usize,
    levels: u16,
    endurance: EnduranceModel,
    variation: WriteVariation,
    injection: Option<FaultInjection>,
    seed: u64,
}

impl CrossbarBuilder {
    /// Starts building a `rows × cols` crossbar.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            levels: DEFAULT_LEVELS,
            endurance: EnduranceModel::unlimited(),
            variation: WriteVariation::none(),
            injection: None,
            seed: 0,
        }
    }

    /// Sets the number of programmable levels (default 8).
    pub fn levels(mut self, levels: u16) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the per-cell endurance model (default: unlimited).
    pub fn endurance(mut self, model: EnduranceModel) -> Self {
        self.endurance = model;
        self
    }

    /// Sets the write-variation model (default: none).
    pub fn variation(mut self, variation: WriteVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Injects fabrication faults at build time: `fraction` of the cells
    /// become stuck (50/50 SA0/SA1), placed per `distribution`.
    pub fn initial_faults(mut self, distribution: SpatialDistribution, fraction: f64) -> Self {
        // Validation happens in `build` so the builder stays infallible.
        self.injection = FaultInjection::new(distribution, fraction).ok();
        if self.injection.is_none() {
            // Remember the invalid request so build() can report it.
            self.injection = Some(FaultInjection {
                distribution,
                fraction,
                sa0_prob: 0.5,
            });
        }
        self
    }

    /// Injects fabrication faults with full control over the campaign.
    pub fn initial_fault_injection(mut self, injection: FaultInjection) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Seeds the crossbar's RNG (endurance sampling, variation, wear-out).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] for zero-sized arrays, fewer than
    /// two levels, or an out-of-range fault fraction.
    pub fn build(self) -> Result<Crossbar, RramError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(RramError::InvalidConfig(format!(
                "crossbar dimensions must be non-zero (got {}x{})",
                self.rows, self.cols
            )));
        }
        if self.levels < 2 {
            return Err(RramError::InvalidConfig(format!(
                "need at least 2 levels (got {})",
                self.levels
            )));
        }
        if let Some(inj) = &self.injection {
            if !(0.0..=1.0).contains(&inj.fraction) {
                return Err(RramError::InvalidConfig(format!(
                    "fault fraction {} outside [0, 1]",
                    inj.fraction
                )));
            }
        }
        let mut rng = sim_rng(self.seed);
        let cells: Vec<RramCell> = (0..self.rows * self.cols)
            .map(|_| RramCell::new(self.levels, self.endurance.sample(&mut rng)))
            .collect();
        let plane64: Vec<f64> = cells.iter().map(|c| c.conductance()).collect();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the f32 plane *is defined as* the rounded view of the f64 master state \
                      (DESIGN.md §6); coherence tests pin this round-trip"
        )]
        let plane32: Vec<f32> = plane64.iter().map(|&g| g as f32).collect();
        let cell_count = self.rows * self.cols;
        let mut xbar = Crossbar {
            rows: self.rows,
            cols: self.cols,
            levels: self.levels,
            cells,
            plane32,
            plane64,
            endurance: self.endurance,
            variation: self.variation,
            rng,
            write_pulses: 0,
            wear_faults: 0,
            dirty_marked: vec![false; cell_count],
            dirty: Vec::new(),
            metrics: None,
        };
        if let Some(inj) = self.injection {
            let map = inj.generate(self.rows, self.cols, &mut xbar.rng);
            xbar.apply_fault_map(&map);
        }
        Ok(xbar)
    }
}

/// A simulated RRAM crossbar array.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    levels: u16,
    cells: Vec<RramCell>,
    /// Row-major cached conductances (`cells[i].conductance() as f32`),
    /// consumed by the dense MVM kernels. Kept coherent by `finish_write`
    /// and [`Crossbar::apply_fault_map`].
    plane32: Vec<f32>,
    /// Row-major cached conductances at full precision, consumed by the
    /// quiescent group-sum reads (the ADC digitizes analog `f64` sums).
    plane64: Vec<f64>,
    endurance: EnduranceModel,
    variation: WriteVariation,
    rng: StdRng,
    write_pulses: u64,
    wear_faults: u64,
    /// Dedup flag per cell for the dirty journal (`true` iff the cell's
    /// index is already in `dirty`).
    dirty_marked: Vec<bool>,
    /// Row-major indices of cells mutated since the last
    /// [`Crossbar::clear_dirty`], in first-touch order. Every cell-state
    /// mutation funnels through `sync_plane`, so this journal is complete:
    /// a cell absent from it cannot have changed level, conductance, or
    /// fault state. Detection campaigns' persistent reference stores
    /// drain it.
    dirty: Vec<usize>,
    /// Optional telemetry handles; see [`Crossbar::attach_recorder`].
    metrics: Option<CrossbarMetrics>,
}

/// Cached telemetry counters of an instrumented crossbar. Counter adds are
/// commutative, so instrumented arrays may live on worker threads without
/// affecting determinism.
#[derive(Debug, Clone)]
struct CrossbarMetrics {
    write_pulses: obs::Counter,
    wear_faults: obs::Counter,
}

impl Crossbar {
    /// Number of rows (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of programmable levels per cell.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// Total write pulses issued to the array so far.
    pub fn write_pulses(&self) -> u64 {
        self.write_pulses
    }

    /// Number of cells that wore out (developed endurance faults) so far.
    pub fn wear_faults(&self) -> u64 {
        self.wear_faults
    }

    /// Instruments the array: every effective write pulse and wear-out
    /// fault also bumps the workspace-wide counters
    /// `rram_write_pulses_total` / `rram_wear_faults_total` on `recorder`'s
    /// registry. Clones of an instrumented crossbar share the same counter
    /// storage (handles are `Arc`s), so aggregate totals include every
    /// clone's writes.
    pub fn attach_recorder(&mut self, recorder: &obs::Recorder) {
        self.metrics = Some(CrossbarMetrics {
            write_pulses: recorder.counter("rram_write_pulses_total"),
            wear_faults: recorder.counter("rram_wear_faults_total"),
        });
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> Result<usize, RramError> {
        if row >= self.rows || col >= self.cols {
            return Err(RramError::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(row * self.cols + col)
    }

    /// Immutable access to a cell.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates.
    pub fn cell(&self, row: usize, col: usize) -> Result<&RramCell, RramError> {
        let i = self.idx(row, col)?;
        Ok(&self.cells[i])
    }

    /// The ideal programmed level at `(row, col)` (stuck cells read pinned).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates.
    pub fn read_level(&self, row: usize, col: usize) -> Result<u16, RramError> {
        Ok(self.cells[self.idx(row, col)?].level())
    }

    /// The analog conductance in `[0, 1]` at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates.
    pub fn conductance(&self, row: usize, col: usize) -> Result<f64, RramError> {
        Ok(self.cells[self.idx(row, col)?].conductance())
    }

    /// Reads all levels row-major — the "read RRAM values, store off-chip"
    /// step at the start of the paper's test procedure.
    pub fn read_all_levels(&self) -> Vec<u16> {
        self.cells.iter().map(|c| c.level()).collect()
    }

    /// Programs the cell at `(row, col)` to `target` level.
    ///
    /// Consumes endurance when a pulse is issued; a cell whose budget is
    /// exhausted becomes stuck (SA0 with the endurance model's wear-out
    /// probability, SA1 otherwise) and the outcome reports the new fault.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates or
    /// [`RramError::LevelOutOfRange`] for an unrepresentable level.
    pub fn write_level(
        &mut self,
        row: usize,
        col: usize,
        target: u16,
    ) -> Result<WriteOutcome, RramError> {
        if target >= self.levels {
            return Err(RramError::LevelOutOfRange {
                level: target,
                levels: self.levels,
            });
        }
        let i = self.idx(row, col)?;
        let noise = self.sample_noise();
        let outcome = self.cells[i].write_level(target, noise);
        self.finish_write(i, outcome, true)
    }

    /// Programs an arbitrary analog conductance in `[0, 1]` — the write
    /// primitive on-line *training* uses (test writes use the level-grid
    /// [`Crossbar::nudge`]; see §4.2 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates and
    /// [`RramError::NonFiniteValue`] for a NaN/infinite target (which would
    /// otherwise poison the cached conductance planes).
    pub fn write_analog(
        &mut self,
        row: usize,
        col: usize,
        target: f64,
    ) -> Result<WriteOutcome, RramError> {
        if !target.is_finite() {
            return Err(RramError::NonFiniteValue {
                context: "write_analog target",
            });
        }
        let i = self.idx(row, col)?;
        let noise = self.sample_noise();
        let outcome = self.cells[i].write_analog(target, noise);
        self.finish_write(i, outcome, true)
    }

    /// Bulk-programs every cell from a row-major conductance plane in
    /// `[0, 1]` — one [`Crossbar::write_analog`] per cell, in row-major
    /// order (so the write-noise RNG stream matches a per-cell loop
    /// exactly). Returns the number of cells whose value actually changed;
    /// stuck/exhausted cells are skipped silently, matching how array
    /// initialization treats pre-existing faults.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::DimensionMismatch`] when `targets.len()` is not
    /// `rows * cols`, and [`RramError::NonFiniteValue`] on any NaN/infinite
    /// target (cells before the offending one stay programmed).
    pub fn program_conductances(&mut self, targets: &[f64]) -> Result<u64, RramError> {
        if targets.len() != self.rows * self.cols {
            return Err(RramError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: targets.len(),
            });
        }
        let mut changed = 0u64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let outcome = self.write_analog(r, c, targets[r * self.cols + c])?;
                if outcome.changed() {
                    changed += 1;
                }
            }
        }
        Ok(changed)
    }

    /// Program-and-verify: re-pulses the cell until its analog conductance
    /// lands within `tolerance` of the target or `max_pulses` are spent.
    /// Returns the outcome of the last pulse and the number of pulses used.
    ///
    /// This is how production RRAM suppresses write variation — at the cost
    /// of extra endurance per write. A fresh pulse is issued even when the
    /// cell is already in tolerance (the scheme verifies *after* writing).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates or
    /// [`RramError::InvalidConfig`] for a non-positive tolerance or zero
    /// pulse budget.
    pub fn write_verified(
        &mut self,
        row: usize,
        col: usize,
        target: f64,
        tolerance: f64,
        max_pulses: u32,
    ) -> Result<(WriteOutcome, u32), RramError> {
        if !target.is_finite() {
            return Err(RramError::NonFiniteValue {
                context: "write_verified target",
            });
        }
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(RramError::InvalidConfig(format!(
                "tolerance must be positive, got {tolerance}"
            )));
        }
        if max_pulses == 0 {
            return Err(RramError::InvalidConfig("need at least one pulse".into()));
        }
        let target = target.clamp(0.0, 1.0);
        let mut pulses = 0u32;
        let mut outcome = WriteOutcome::NoChange;
        while pulses < max_pulses {
            outcome = self.pulse_analog(row, col, target)?;
            pulses += 1;
            if !outcome.changed() {
                break; // stuck or exhausted: further pulses are futile
            }
            if (self.conductance(row, col)? - target).abs() <= tolerance {
                break;
            }
        }
        Ok((outcome, pulses))
    }

    /// Unconditional programming pulse (no write-verify): consumes
    /// endurance even when the value does not change. Training updates use
    /// this; see [`rram::cell::RramCell::pulse_analog`](crate::cell::RramCell::pulse_analog).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates and
    /// [`RramError::NonFiniteValue`] for a NaN/infinite target.
    pub fn pulse_analog(
        &mut self,
        row: usize,
        col: usize,
        target: f64,
    ) -> Result<WriteOutcome, RramError> {
        if !target.is_finite() {
            return Err(RramError::NonFiniteValue {
                context: "pulse_analog target",
            });
        }
        let i = self.idx(row, col)?;
        let noise = self.sample_noise();
        let outcome = self.cells[i].pulse_analog(target, noise);
        self.finish_write(i, outcome, true)
    }

    /// Unconditional training pulses on row-major cells, in slice order:
    /// [`Crossbar::pulse_analog`] for each `(i, target)`, where
    /// `i = row · cols + col`, with each outcome appended to `outcomes`.
    /// The one difference from a loop of `pulse_analog` calls is the
    /// telemetry: `rram_write_pulses_total` moves once for the batch
    /// instead of once per pulse.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for an index past the array and
    /// [`RramError::NonFiniteValue`] for a NaN/infinite target. The pulses
    /// before it stay issued and counted.
    pub fn pulse_analog_batch(
        &mut self,
        cells: &[(usize, f64)],
        outcomes: &mut Vec<WriteOutcome>,
    ) -> Result<(), RramError> {
        let before = self.write_pulses;
        let issued = cells.iter().try_for_each(|&(i, target)| {
            if !target.is_finite() {
                return Err(RramError::NonFiniteValue {
                    context: "pulse_analog_batch target",
                });
            }
            if i >= self.cells.len() {
                return Err(RramError::OutOfBounds {
                    row: i / self.cols,
                    col: i % self.cols,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            let noise = self.sample_noise();
            let outcome = self.cells[i].pulse_analog(target, noise);
            outcomes.push(self.finish_write(i, outcome, false)?);
            Ok(())
        });
        if let Some(m) = &self.metrics {
            m.write_pulses.add(self.write_pulses - before);
        }
        issued
    }

    /// Adjusts the cell level by `delta` (the paper's "Write ±δw").
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] for invalid coordinates.
    pub fn nudge(&mut self, row: usize, col: usize, delta: i32) -> Result<WriteOutcome, RramError> {
        let i = self.idx(row, col)?;
        let noise = self.sample_noise();
        let outcome = self.cells[i].nudge(delta, noise);
        self.finish_write(i, outcome, true)
    }

    /// Draws a zero-mean write-variation noise sample. Centred on 0.5 so the
    /// clamp inside [`WriteVariation::perturb`] almost never bites, then
    /// recentred to zero.
    fn sample_noise(&mut self) -> f64 {
        if self.variation.is_none() {
            0.0
        } else {
            self.variation.perturb(0.5, &mut self.rng) - 0.5
        }
    }

    /// Refreshes the cached conductance planes for cell `i`. Must be called
    /// after *any* cell-state mutation; `finish_write` and
    /// [`Crossbar::apply_fault_map`] are the only two mutation funnels.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "same rounding as the builder's plane init — the f32 plane is the defined \
                  narrowing of the f64 master (DESIGN.md §6)"
    )]
    fn sync_plane(&mut self, i: usize) {
        let g = self.cells[i].conductance();
        self.plane64[i] = g;
        self.plane32[i] = g as f32;
        if !self.dirty_marked[i] {
            self.dirty_marked[i] = true;
            self.dirty.push(i);
        }
    }

    /// The write funnel every write primitive ends in: counts the pulse,
    /// sticks a cell whose endurance the write exhausted, and refreshes the
    /// planes. `meter` bumps `rram_write_pulses_total` for a changed
    /// outcome; [`Crossbar::pulse_analog_batch`] passes `false` and bumps
    /// the counter once for its whole batch.
    fn finish_write(
        &mut self,
        i: usize,
        outcome: WriteOutcome,
        meter: bool,
    ) -> Result<WriteOutcome, RramError> {
        debug_assert!(
            outcome != WriteOutcome::Exhausted,
            "crossbar sticks cells at the write that exhausts them"
        );
        if outcome.changed() {
            self.write_pulses += 1;
            if let (true, Some(m)) = (meter, &self.metrics) {
                m.write_pulses.inc();
            }
            if self.cells[i].is_worn_out() && !self.cells[i].state().is_faulty() {
                let kind = if self.rng.gen_bool(self.endurance.wearout_sa0_prob()) {
                    FaultKind::StuckAt0
                } else {
                    FaultKind::StuckAt1
                };
                self.cells[i].wear_out(kind);
                self.wear_faults += 1;
                if let Some(m) = &self.metrics {
                    m.wear_faults.inc();
                }
                self.sync_plane(i);
                return Ok(WriteOutcome::WoreOut(kind));
            }
            self.sync_plane(i);
        }
        Ok(outcome)
    }

    /// Analog matrix–vector product driving the **rows**: returns one value
    /// per column, `out[k] = Σ_j g[j][k] · input[j]`.
    ///
    /// # Example
    ///
    /// ```
    /// use rram::crossbar::CrossbarBuilder;
    ///
    /// # fn main() -> Result<(), rram::RramError> {
    /// let mut xbar = CrossbarBuilder::new(2, 2).build()?;
    /// xbar.write_level(0, 0, 7)?; // g = 1.0
    /// xbar.write_level(1, 1, 7)?;
    /// let out = xbar.mvm(&[2.0, 3.0])?; // identity conductance matrix
    /// assert_eq!(out, vec![2.0, 3.0]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RramError::DimensionMismatch`] if `input.len() != rows`.
    pub fn mvm(&self, input: &[f32]) -> Result<Vec<f32>, RramError> {
        if input.len() != self.rows {
            return Err(RramError::DimensionMismatch {
                expected: self.rows,
                actual: input.len(),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        // Skipping a zero input row saves a row-length SAXPY but costs a
        // branch per row; it only wins on mostly-zero inputs (post-§5.2
        // pruning, sparse activations). Gate it on measured sparsity so
        // dense inputs run branch-free. Skipping preserves the result
        // exactly: every skipped contribution is `±0.0 · g` with finite
        // `g ∈ [0, 1]`, which cannot move an IEEE-754 accumulator off the
        // value it would otherwise hold.
        let skip_zeros = sparse_enough(input);
        for (row, &v) in self.plane32.chunks_exact(self.cols).zip(input) {
            if skip_zeros && v == 0.0 {
                continue;
            }
            saxpy_f32(&mut out, row, v);
        }
        Ok(out)
    }

    /// Scalar reference implementation of [`Crossbar::mvm`] iterating the
    /// array-of-structs cell storage directly (the pre-plane seed kernel).
    /// Kept for property tests and benches: [`Crossbar::mvm`] must return
    /// results equal to this for every input.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::DimensionMismatch`] if `input.len() != rows`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the f32 reference path mirrors the plane cache's defined narrowing so scalar \
                  and plane MVMs stay bit-equal"
    )]
    pub fn mvm_reference(&self, input: &[f32]) -> Result<Vec<f32>, RramError> {
        if input.len() != self.rows {
            return Err(RramError::DimensionMismatch {
                expected: self.rows,
                actual: input.len(),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        for (r, &v) in input.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let row_cells = &self.cells[r * self.cols..(r + 1) * self.cols];
            for (o, cell) in out.iter_mut().zip(row_cells) {
                *o += cell.conductance() as f32 * v;
            }
        }
        Ok(out)
    }

    /// Quiescent column reads for the test method, for **all** columns at
    /// once: `out[k] = Σ_{r ∈ rows} g[r][k]`, the analog sum over a slice of
    /// driven word lines. One dense row-major sweep that accumulates
    /// row by row in ascending row order via `accumulate_f64` — the
    /// kernel behind the detection campaign's row-group pass.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] if the row range is invalid.
    pub fn column_group_sums(&self, rows: std::ops::Range<usize>) -> Result<Vec<f64>, RramError> {
        if rows.end > self.rows {
            return Err(RramError::OutOfBounds {
                row: rows.end.saturating_sub(1),
                col: 0,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut out = vec![0.0f64; self.cols];
        for r in rows {
            accumulate_f64(&mut out, &self.plane64[r * self.cols..(r + 1) * self.cols]);
        }
        Ok(out)
    }

    /// Quiescent row reads for **all** rows at once: `out[j] = Σ_{k ∈ cols}
    /// g[j][k]`, the analog sum over a slice of driven bit lines, folded by
    /// `lane_sum_f64` — the kernel behind the detection campaign's
    /// column-group pass.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::OutOfBounds`] if the column range is invalid.
    pub fn row_group_sums(&self, cols: std::ops::Range<usize>) -> Result<Vec<f64>, RramError> {
        if cols.end > self.cols {
            return Err(RramError::OutOfBounds {
                row: 0,
                col: cols.end.saturating_sub(1),
                rows: self.rows,
                cols: self.cols,
            });
        }
        let out = (0..self.rows)
            .map(|r| {
                lane_sum_f64(&self.plane64[r * self.cols + cols.start..r * self.cols + cols.end])
            })
            .collect();
        Ok(out)
    }

    /// Pins cells to hard faults per the given map (fabrication injection).
    pub fn apply_fault_map(&mut self, map: &FaultMap) {
        for (r, c, kind) in map.iter_faulty() {
            if r < self.rows && c < self.cols {
                let i = r * self.cols + c;
                self.cells[i].force_fault(kind);
                self.sync_plane(i);
            }
        }
    }

    /// The cached row-major `f32` conductance plane
    /// (`plane[r * cols + c] == cells[r * cols + c].conductance() as f32`).
    /// External kernels (and the coherence property tests) read it directly.
    pub fn conductance_plane(&self) -> &[f32] {
        &self.plane32
    }

    /// The cached row-major `f64` conductance plane backing the quiescent
    /// group-sum reads (exactly `conductance()` per cell).
    pub fn conductance_plane_f64(&self) -> &[f64] {
        &self.plane64
    }

    /// Ground-truth fault map of the current array state.
    pub fn fault_map(&self) -> FaultMap {
        let mut map = FaultMap::healthy(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if let FaultState::Stuck(kind) = self.cells[r * self.cols + c].state() {
                    map.set(r, c, Some(kind));
                }
            }
        }
        map
    }

    /// Aggregate wear statistics.
    pub fn wear_report(&self) -> WearReport {
        WearReport::from_cells(self.rows, self.cols, &self.cells, self.write_pulses)
    }

    /// Row-major indices of cells whose state changed (writes, nudges,
    /// wear-out, forced faults) since the last [`Crossbar::clear_dirty`],
    /// in first-touch order, deduplicated. A freshly built array lists its
    /// injected-fault cells; attaching a reference store clears the journal
    /// after its full snapshot.
    pub fn dirty_cells(&self) -> &[usize] {
        &self.dirty
    }

    /// Resets the dirty journal (after a reference store has consumed it).
    pub fn clear_dirty(&mut self) {
        for &i in &self.dirty {
            self.dirty_marked[i] = false;
        }
        self.dirty.clear();
    }

    /// Captures the complete serializable state of the array (checkpoint).
    ///
    /// The conductance planes and the `dirty_marked` flags are *not* part
    /// of the state: both are derived views ( `plane64[i] ==
    /// cells[i].conductance()` exactly, `plane32` its defined narrowing,
    /// `dirty_marked[i] ⇔ i ∈ dirty` ) and are rebuilt on restore.
    /// Telemetry handles are not captured either; re-attach with
    /// [`Crossbar::attach_recorder`] after restoring.
    pub fn export_state(&self) -> CrossbarState {
        CrossbarState {
            rows: self.rows,
            cols: self.cols,
            levels: self.levels,
            cells: self
                .cells
                .iter()
                .map(|c| CellState {
                    level: c.raw_level(),
                    analog: c.raw_analog(),
                    state: c.state(),
                    endurance_left: c.endurance_left(),
                    writes: c.writes(),
                })
                .collect(),
            rng: self.rng.state(),
            write_pulses: self.write_pulses,
            wear_faults: self.wear_faults,
            dirty: self.dirty.clone(),
        }
    }

    /// Rebuilds an array from a previously captured [`CrossbarState`].
    ///
    /// `endurance` and `variation` are configuration (not state) and come
    /// from the caller, exactly as at build time. The conductance planes
    /// and `dirty_marked` are reconstructed from the cells and the journal.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] when the state is incoherent:
    /// zero dimensions, fewer than two levels, a cell count that does not
    /// match `rows * cols`, or a dirty journal with out-of-bounds or
    /// duplicate entries (the journal is deduplicated by construction, so
    /// disagreement means the snapshot is corrupt).
    pub fn restore_state(
        state: &CrossbarState,
        endurance: EnduranceModel,
        variation: WriteVariation,
    ) -> Result<Self, RramError> {
        if state.rows == 0 || state.cols == 0 {
            return Err(RramError::InvalidConfig(format!(
                "snapshot crossbar dimensions must be non-zero (got {}x{})",
                state.rows, state.cols
            )));
        }
        if state.levels < 2 {
            return Err(RramError::InvalidConfig(format!(
                "snapshot needs at least 2 levels (got {})",
                state.levels
            )));
        }
        let cell_count = state.rows * state.cols;
        if state.cells.len() != cell_count {
            return Err(RramError::InvalidConfig(format!(
                "snapshot has {} cells for a {}x{} array",
                state.cells.len(),
                state.rows,
                state.cols
            )));
        }
        let cells: Vec<RramCell> = state
            .cells
            .iter()
            .map(|c| {
                RramCell::from_raw_parts(
                    state.levels,
                    c.level,
                    c.analog,
                    c.state,
                    c.endurance_left,
                    c.writes,
                )
            })
            .collect();
        let plane64: Vec<f64> = cells.iter().map(|c| c.conductance()).collect();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "same defined narrowing as the builder's plane init"
        )]
        let plane32: Vec<f32> = plane64.iter().map(|&g| g as f32).collect();
        let mut dirty_marked = vec![false; cell_count];
        for &i in &state.dirty {
            if i >= cell_count {
                return Err(RramError::InvalidConfig(format!(
                    "dirty journal entry {i} out of bounds for {cell_count} cells"
                )));
            }
            if dirty_marked[i] {
                return Err(RramError::InvalidConfig(format!(
                    "dirty journal entry {i} duplicated — journal and marks disagree"
                )));
            }
            dirty_marked[i] = true;
        }
        Ok(Self {
            rows: state.rows,
            cols: state.cols,
            levels: state.levels,
            cells,
            plane32,
            plane64,
            endurance,
            variation,
            rng: StdRng::from_state(state.rng),
            write_pulses: state.write_pulses,
            wear_faults: state.wear_faults,
            dirty_marked,
            dirty: state.dirty.clone(),
            metrics: None,
        })
    }
}

/// Raw serializable state of one cell; see [`Crossbar::export_state`].
///
/// `level`/`analog` are the *raw* stored values (a stuck cell keeps its
/// pre-fault value underneath the pin), so a restored cell is bit-identical
/// to the snapshotted one.
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// Raw programmed level (unpinned).
    pub level: u16,
    /// Raw analog conductance (unpinned).
    pub analog: f64,
    /// Health state.
    pub state: FaultState,
    /// Remaining write budget.
    pub endurance_left: u64,
    /// Effective writes performed.
    pub writes: u64,
}

/// Complete serializable state of a [`Crossbar`]; see
/// [`Crossbar::export_state`] / [`Crossbar::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarState {
    /// Rows (word lines).
    pub rows: usize,
    /// Columns (bit lines).
    pub cols: usize,
    /// Programmable levels per cell.
    pub levels: u16,
    /// Row-major raw cell states.
    pub cells: Vec<CellState>,
    /// The write-noise / wear-out RNG stream (xoshiro256++ state).
    pub rng: [u64; 4],
    /// Total write pulses issued.
    pub write_pulses: u64,
    /// Wear-out faults accumulated.
    pub wear_faults: u64,
    /// Dirty-cell journal in first-touch order (`dirty_marked` is rebuilt
    /// from this on restore).
    pub dirty: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Crossbar {
        CrossbarBuilder::new(4, 4).seed(1).build().unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(CrossbarBuilder::new(0, 4).build().is_err());
        assert!(CrossbarBuilder::new(4, 0).build().is_err());
        assert!(CrossbarBuilder::new(4, 4).levels(1).build().is_err());
        assert!(CrossbarBuilder::new(4, 4)
            .initial_faults(SpatialDistribution::Uniform, 2.0)
            .build()
            .is_err());
    }

    #[test]
    fn fresh_crossbar_reads_zero() {
        let x = small();
        assert_eq!(x.read_all_levels(), vec![0; 16]);
        assert_eq!(x.mvm(&[1.0; 4]).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn mvm_matches_dense_math() {
        let mut x = small();
        // Program an identifiable pattern: level = (r + c) % 8.
        for r in 0..4 {
            for c in 0..4 {
                x.write_level(r, c, ((r + c) % 8) as u16).unwrap();
            }
        }
        let input = [1.0, 0.5, -0.25, 2.0];
        let out = x.mvm(&input).unwrap();
        #[allow(clippy::needless_range_loop)]
        for c in 0..4 {
            let expect: f32 = (0..4)
                .map(|r| (((r + c) % 8) as f32 / 7.0) * input[r])
                .sum();
            assert!(
                (out[c] - expect).abs() < 1e-5,
                "col {c}: {} vs {expect}",
                out[c]
            );
        }
    }

    #[test]
    fn mvm_rejects_wrong_length() {
        let x = small();
        assert!(matches!(
            x.mvm(&[1.0; 3]),
            Err(RramError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn stuck_cells_dominate_reads() {
        let mut x = small();
        let mut map = FaultMap::healthy(4, 4);
        map.set(0, 0, Some(FaultKind::StuckAt1));
        map.set(1, 1, Some(FaultKind::StuckAt0));
        x.apply_fault_map(&map);
        assert_eq!(x.read_level(0, 0).unwrap(), 7);
        assert_eq!(x.conductance(0, 0).unwrap(), 1.0);
        assert_eq!(x.read_level(1, 1).unwrap(), 0);
        // Writes to stuck cells have no effect.
        assert!(matches!(
            x.write_level(0, 0, 3).unwrap(),
            WriteOutcome::Stuck(FaultKind::StuckAt1)
        ));
        assert_eq!(x.fault_map().count_faulty(), 2);
    }

    #[test]
    fn endurance_wearout_creates_faults() {
        let mut x = CrossbarBuilder::new(2, 2)
            .endurance(EnduranceModel::new(3.0, 0.0))
            .seed(9)
            .build()
            .unwrap();
        // Toggle one cell until it wears out (budget = 3 writes).
        let mut worn = None;
        for i in 0..10 {
            let out = x.write_level(0, 0, (i % 2 + 1) as u16).unwrap();
            if let WriteOutcome::WoreOut(kind) = out {
                worn = Some((i, kind));
                break;
            }
        }
        let (i, _) = worn.expect("cell should wear out");
        assert_eq!(i, 2, "third write exhausts a 3-write budget");
        assert_eq!(x.wear_faults(), 1);
        assert_eq!(x.fault_map().count_faulty(), 1);
        // Further writes report Stuck.
        assert!(matches!(
            x.write_level(0, 0, 5).unwrap(),
            WriteOutcome::Stuck(_)
        ));
    }

    #[test]
    fn group_sums_match_manual_sums() {
        let mut x = small();
        for r in 0..4 {
            for c in 0..4 {
                x.write_level(r, c, (r as u16 + 1).min(7)).unwrap();
            }
        }
        let s = x.column_group_sums(0..2).unwrap()[1];
        let expect = (1.0 + 2.0) / 7.0;
        assert!((s - expect).abs() < 1e-9);
        let s = x.row_group_sums(1..4).unwrap()[2];
        let expect = 3.0 * 3.0 / 7.0;
        assert!((s - expect).abs() < 1e-9);
        assert!(x.column_group_sums(0..5).is_err());
        assert!(x.row_group_sums(0..5).is_err());
    }

    #[test]
    fn dirty_journal_tracks_every_mutation_funnel() {
        let mut x = CrossbarBuilder::new(4, 4)
            .initial_faults(SpatialDistribution::Uniform, 0.25)
            .seed(7)
            .build()
            .unwrap();
        // Injection runs through sync_plane, so fault cells start dirty.
        assert_eq!(x.dirty_cells().len(), 4);
        x.clear_dirty();
        assert!(x.dirty_cells().is_empty());
        // A no-op write (same level) issues no pulse and stays clean.
        let healthy = (0..16)
            .find(|&i| x.fault_map().get(i / 4, i % 4).is_none())
            .unwrap();
        let (r, c) = (healthy / 4, healthy % 4);
        x.write_level(r, c, x.read_level(r, c).unwrap()).unwrap();
        assert!(x.dirty_cells().is_empty());
        // Effective writes journal once per cell (deduplicated).
        x.write_level(r, c, 3).unwrap();
        x.nudge(r, c, 1).unwrap();
        assert_eq!(x.dirty_cells(), &[r * 4 + c]);
        // Forced faults journal too.
        let mut map = x.fault_map();
        map.set(0, 0, Some(FaultKind::StuckAt1));
        x.apply_fault_map(&map);
        assert!(x.dirty_cells().contains(&0));
        x.clear_dirty();
        assert!(x.dirty_cells().is_empty());
    }

    #[test]
    fn write_pulse_accounting() {
        let mut x = small();
        assert_eq!(x.write_pulses(), 0);
        x.write_level(0, 0, 3).unwrap();
        x.write_level(0, 0, 3).unwrap(); // no change, no pulse
        x.nudge(0, 0, 1).unwrap();
        x.nudge(0, 0, 0).unwrap(); // no-op
        assert_eq!(x.write_pulses(), 2);
    }

    #[test]
    fn initial_fault_injection_via_builder() {
        let x = CrossbarBuilder::new(32, 32)
            .initial_faults(SpatialDistribution::Uniform, 0.25)
            .seed(3)
            .build()
            .unwrap();
        let frac = x.fault_map().fraction_faulty();
        assert!((frac - 0.25).abs() < 0.01, "fraction was {frac}");
    }

    #[test]
    fn non_finite_write_targets_are_rejected() {
        let mut x = small();
        let before = x.conductance(0, 0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                x.write_analog(0, 0, bad),
                Err(RramError::NonFiniteValue { .. })
            ));
            assert!(matches!(
                x.pulse_analog(0, 0, bad),
                Err(RramError::NonFiniteValue { .. })
            ));
            assert!(matches!(
                x.write_verified(0, 0, bad, 0.01, 4),
                Err(RramError::NonFiniteValue { .. })
            ));
        }
        // So must a level the cell cannot represent.
        assert!(matches!(
            x.write_level(0, 0, 99),
            Err(RramError::LevelOutOfRange { .. })
        ));
        // The rejected writes must not have touched cell state or planes.
        assert_eq!(x.conductance(0, 0).unwrap(), before);
        assert!(x.conductance_plane().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn write_verified_converges_under_variation() {
        let mut x = CrossbarBuilder::new(2, 2)
            .variation(WriteVariation::new(0.05))
            .seed(8)
            .build()
            .unwrap();
        let (outcome, pulses) = x.write_verified(0, 0, 0.5, 0.01, 50).unwrap();
        assert!(outcome.changed());
        assert!((x.conductance(0, 0).unwrap() - 0.5).abs() <= 0.01);
        assert!(pulses >= 1);
        // With σ = 0.05 and tolerance 0.01 the loop usually needs retries.
        let mut total = 0u32;
        for i in 0..20 {
            let target = 0.1 + 0.04 * f64::from(i);
            let (_, p) = x.write_verified(0, 1, target, 0.01, 50).unwrap();
            total += p;
        }
        assert!(
            total > 20,
            "verify loops should re-pulse sometimes: {total}"
        );
    }

    #[test]
    fn write_verified_gives_up_on_stuck_cells() {
        let mut x = CrossbarBuilder::new(2, 2).seed(9).build().unwrap();
        let mut map = FaultMap::healthy(2, 2);
        map.set(0, 0, Some(FaultKind::StuckAt0));
        x.apply_fault_map(&map);
        let (outcome, pulses) = x.write_verified(0, 0, 0.7, 0.01, 50).unwrap();
        assert!(matches!(outcome, WriteOutcome::Stuck(FaultKind::StuckAt0)));
        assert_eq!(pulses, 1, "one probe is enough to see the cell is stuck");
    }

    #[test]
    fn write_verified_validates_arguments() {
        let mut x = CrossbarBuilder::new(2, 2).seed(1).build().unwrap();
        assert!(x.write_verified(0, 0, 0.5, 0.0, 10).is_err());
        assert!(x.write_verified(0, 0, 0.5, 0.01, 0).is_err());
        assert!(x.write_verified(5, 0, 0.5, 0.01, 10).is_err());
    }

    #[test]
    fn state_roundtrip_is_bit_identical() {
        let mut x = CrossbarBuilder::new(6, 5)
            .variation(WriteVariation::new(0.03))
            .endurance(EnduranceModel::new(20.0, 5.0))
            .initial_faults(SpatialDistribution::Uniform, 0.2)
            .seed(11)
            .build()
            .unwrap();
        for r in 0..6 {
            for c in 0..5 {
                x.write_level(r, c, ((r * 5 + c) % 8) as u16).unwrap();
            }
        }
        x.clear_dirty();
        x.nudge(1, 2, 1).unwrap();
        let st = x.export_state();
        let mut y = Crossbar::restore_state(
            &st,
            EnduranceModel::new(20.0, 5.0),
            WriteVariation::new(0.03),
        )
        .unwrap();
        assert_eq!(x.conductance_plane_f64(), y.conductance_plane_f64());
        assert_eq!(x.conductance_plane(), y.conductance_plane());
        assert_eq!(x.dirty_cells(), y.dirty_cells());
        assert_eq!(x.write_pulses(), y.write_pulses());
        assert_eq!(x.wear_faults(), y.wear_faults());
        assert_eq!(x.fault_map(), y.fault_map());
        // Same forward RNG stream: identical writes produce identical state.
        for i in 0..10 {
            let a = x.write_level(i % 6, (i * 3) % 5, (i % 8) as u16).unwrap();
            let b = y.write_level(i % 6, (i * 3) % 5, (i % 8) as u16).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(x.conductance_plane_f64(), y.conductance_plane_f64());
        assert_eq!(x.export_state(), y.export_state());
    }

    #[test]
    fn restore_rejects_incoherent_state() {
        let x = small();
        let good = x.export_state();
        let mut bad = good.clone();
        bad.cells.pop();
        assert!(
            Crossbar::restore_state(&bad, EnduranceModel::unlimited(), WriteVariation::none())
                .is_err()
        );
        let mut bad = good.clone();
        bad.dirty = vec![999];
        assert!(
            Crossbar::restore_state(&bad, EnduranceModel::unlimited(), WriteVariation::none())
                .is_err()
        );
        let mut bad = good;
        bad.dirty = vec![1, 1];
        assert!(
            Crossbar::restore_state(&bad, EnduranceModel::unlimited(), WriteVariation::none())
                .is_err()
        );
    }

    #[test]
    fn variation_perturbs_analog_reads() {
        let mut x = CrossbarBuilder::new(2, 2)
            .variation(WriteVariation::new(0.05))
            .seed(21)
            .build()
            .unwrap();
        let mut any_off = false;
        for i in 0..20 {
            x.write_level(0, 0, (i % 7 + 1) as u16).unwrap();
            let ideal = f64::from(x.read_level(0, 0).unwrap()) / 7.0;
            if (x.conductance(0, 0).unwrap() - ideal).abs() > 1e-6 {
                any_off = true;
            }
        }
        assert!(any_off, "variation should displace analog conductance");
    }
}
