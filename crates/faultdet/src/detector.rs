//! The complete quiescent-voltage-comparison detection campaign (Fig. 3).
//!
//! # Comparison sweeps
//!
//! Each test cycle drives one group of `Tr` rows (or `Tc` columns) and reads
//! every output line — a purely read-only pass over a `t × cols` slice of
//! the crossbar's cached conductance plane, between the `±δ` test writes
//! and the restore writes. [`OnlineFaultDetector::kind_pass`] sweeps the
//! candidate-bearing groups in group order on the calling thread; the
//! parallelism lives one level up, where a tiled chip runs whole tile
//! campaigns on the [`par`] budget.

#![deny(clippy::needless_range_loop)]

use rram::adc::Adc;
use rram::crossbar::Crossbar;
use rram::error::RramError;
use rram::fault::{FaultKind, FaultMap};

use crate::localize::FlagSet;
use crate::reference::OffChipStore;
use crate::schedule::groups;
use crate::selected::CandidateMask;

/// Which cells a campaign tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestMode {
    /// Test every cell (§4.1/4.2): simplest, longest, lowest precision.
    AllCells,
    /// Selected-cell testing (§4.3): test SA0 only where the stored level is
    /// ≤ `sa0_max_level` and SA1 only where it is ≥ `sa1_min_level`.
    SelectedCells {
        /// Highest stored level still considered an SA0 candidate.
        sa0_max_level: u16,
        /// Lowest stored level still considered an SA1 candidate.
        sa1_min_level: u16,
    },
}

impl TestMode {
    /// The default selected-cell thresholds for 8-level cells: the bottom
    /// two levels can hide SA0, the top two can hide SA1.
    pub fn default_selected() -> Self {
        TestMode::SelectedCells {
            sa0_max_level: 1,
            sa1_min_level: 6,
        }
    }
}

/// Test increment in levels (the paper's `δw`; must exceed the write
/// variation, §4.2): the SA0 pass writes `+δ`, the SA1 pass `−δ`.
pub(crate) const DELTA_LEVELS: i32 = 1;

/// Configuration of one detection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Rows (and columns — the paper sets `Tr = Tc`) driven per test cycle.
    pub test_size: usize,
    /// Modulo divisor of the ADC comparison (16 in the paper).
    pub modulo_divisor: u32,
    /// All-cells or selected-cells testing.
    pub mode: TestMode,
}

impl DetectorConfig {
    /// Creates an all-cells configuration with the paper's defaults
    /// (`δ = 1` level, mod-16 comparison).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] if `test_size` is zero.
    pub fn new(test_size: usize) -> Result<Self, RramError> {
        if test_size == 0 {
            return Err(RramError::InvalidConfig(
                "test size must be non-zero".into(),
            ));
        }
        Ok(Self {
            test_size,
            modulo_divisor: 16,
            mode: TestMode::AllCells,
        })
    }

    /// Switches to selected-cell testing with the default thresholds.
    pub fn with_selected_cells(mut self) -> Self {
        self.mode = TestMode::default_selected();
        self
    }

    /// Sets the test mode explicitly.
    pub fn with_mode(mut self, mode: TestMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the modulo divisor (must be a power of two ≥ 2; validated when
    /// the campaign builds its ADC).
    pub fn with_modulo_divisor(mut self, divisor: u32) -> Self {
        self.modulo_divisor = divisor;
        self
    }
}

/// Result of one detection campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionOutcome {
    /// Predicted fault map (SA0 and SA1 merged; SA0 wins on overlap).
    pub predicted: FaultMap,
    /// Test cycles spent by the SA0 pass (row groups + column groups driven).
    pub sa0_cycles: u64,
    /// Test cycles spent by the SA1 pass.
    pub sa1_cycles: u64,
    /// Effective write pulses issued by the campaign (test writes plus
    /// restore writes) — detection itself wears the array.
    pub write_pulses: u64,
    /// SA0 candidate count (equals the full array in all-cells mode).
    pub sa0_candidates: usize,
    /// SA1 candidate count.
    pub sa1_candidates: usize,
    /// Comparison sweeps that failed and were skipped instead of aborting
    /// the campaign (graceful degradation: the cells covered only by an
    /// untested group may carry undetected faults). 0 on a clean campaign.
    pub untested_groups: u64,
    /// Cells read into the off-chip store by this campaign: the full array
    /// when the campaign attached the store (Fig. 3's "Read RRAM Values,
    /// Store Off-Chip" step, and every [`OnlineFaultDetector::run`]), only
    /// the cells written since the last campaign on a warm store.
    pub store_read_cells: u64,
    /// The same reads expressed in row-wide read cycles (`⌈cells / cols⌉`).
    pub store_read_cycles: u64,
}

impl DetectionOutcome {
    /// The campaign's total test time in cycles: the snapshot-read cost
    /// plus the comparison sweeps per the paper's §6.1 definition
    /// `T = ⌈Cr/Tr⌉ + ⌈Cc/Tc⌉` (which both kind passes each realize in
    /// all-cells mode), reported as the larger of the two passes.
    pub fn cycles(&self) -> u64 {
        self.sa0_cycles.max(self.sa1_cycles) + self.store_read_cycles
    }
}

/// Cached telemetry handles of an instrumented detector.
///
/// Campaigns may execute on worker threads (the mapped network fans tiles
/// out across the [`par`] budget), so everything here is *commutative*:
/// counter adds and span histograms merge identically in any interleaving.
/// No events are emitted from the detector — the sequential flow spine
/// emits the campaign events.
#[derive(Debug, Clone)]
struct DetectorMetrics {
    recorder: obs::Recorder,
    campaigns: obs::Counter,
    cycles: obs::Counter,
    write_pulses: obs::Counter,
    flagged_cells: obs::Counter,
    untested_groups: obs::Counter,
    candidates: obs::Counter,
}

/// Runs quiescent-voltage-comparison campaigns against a crossbar.
#[derive(Debug, Clone)]
pub struct OnlineFaultDetector {
    config: DetectorConfig,
    metrics: Option<DetectorMetrics>,
}

impl OnlineFaultDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            config,
            metrics: None,
        }
    }

    /// Instruments the detector: per-campaign counters
    /// (`faultdet_campaigns_total`, `faultdet_cycles_total`,
    /// `faultdet_write_pulses_total`, `faultdet_flagged_cells_total`,
    /// `faultdet_untested_groups_total`, `faultdet_candidates_total`) and
    /// per-pass sweep-timing spans land in `recorder`'s registry. Only
    /// commutative metrics are touched, so instrumented campaigns remain
    /// bit-identical at any thread count.
    pub fn with_recorder(mut self, recorder: &obs::Recorder) -> Self {
        self.metrics = Some(DetectorMetrics {
            recorder: recorder.clone(),
            campaigns: recorder.counter("faultdet_campaigns_total"),
            cycles: recorder.counter("faultdet_cycles_total"),
            write_pulses: recorder.counter("faultdet_write_pulses_total"),
            flagged_cells: recorder.counter("faultdet_flagged_cells_total"),
            untested_groups: recorder.counter("faultdet_untested_groups_total"),
            candidates: recorder.counter("faultdet_candidates_total"),
        });
        self
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs a one-shot campaign: SA0 pass (`+δ`, compare, restore) followed
    /// by the SA1 pass (`−δ`, compare, restore) over every cell. This is
    /// [`run_on_store`] on a store it attaches and then drops, with no
    /// baseline. The crossbar's training state is recovered up to cells that
    /// wore out during the test itself.
    ///
    /// [`run_on_store`]: Self::run_on_store
    ///
    /// # Errors
    ///
    /// Returns an error for a zero test size or an invalid modulo divisor.
    /// A comparison sweep that fails mid-campaign does **not** abort the
    /// run: the group is counted in
    /// [`DetectionOutcome::untested_groups`] and the campaign continues
    /// with the remaining groups (graceful degradation).
    pub fn run(&self, xbar: &mut Crossbar) -> Result<DetectionOutcome, RramError> {
        self.run_on_store(xbar, &mut None, None)
    }

    /// Runs a campaign against a tile's persistent off-chip store.
    ///
    /// With no store yet (`None`), the campaign attaches one: it reads the
    /// whole array ("Read RRAM Values, Store Off-Chip" in Fig. 3, charged as
    /// `rows × cols` store reads) and tests every cell. With a store, it
    /// brings the store up to date from the crossbar's dirty-cell journal
    /// (charged as the journaled cells) and tests only the cells written
    /// since the last campaign (the store's pending set, intersected with
    /// the mode's level predicate). Untouched cells keep their verdict from
    /// `baseline` — normally the previous campaign's
    /// [`DetectionOutcome::predicted`]; `None` means no prior verdict (every
    /// untested cell is presumed healthy). The store stays attached.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero test size, an invalid modulo divisor, or
    /// a store/baseline whose dimensions do not match the crossbar.
    pub fn run_on_store(
        &self,
        xbar: &mut Crossbar,
        store: &mut Option<OffChipStore>,
        baseline: Option<&FaultMap>,
    ) -> Result<DetectionOutcome, RramError> {
        if self.config.test_size == 0 {
            // `DetectorConfig` fields are public, so a zero test size is
            // constructible without going through `DetectorConfig::new`.
            return Err(RramError::InvalidConfig(
                "test size must be non-zero".into(),
            ));
        }
        let adc = Adc::new(xbar.levels(), self.config.modulo_divisor)?;
        if let Some(previous) = baseline {
            if previous.rows() != xbar.rows() || previous.cols() != xbar.cols() {
                return Err(RramError::DimensionMismatch {
                    expected: xbar.rows() * xbar.cols(),
                    actual: previous.rows() * previous.cols(),
                });
            }
        }
        let (store, store_read_cells) = match store {
            Some(store) => {
                let read = store.sync_from(xbar)?;
                (store, read)
            }
            None => {
                let cells = (xbar.rows() * xbar.cols()) as u64;
                (store.insert(OffChipStore::attach(xbar)), cells)
            }
        };
        store.ensure_aggregates(self.config.test_size);
        let pending =
            CandidateMask::from_mask(xbar.rows(), xbar.cols(), store.pending_mask().to_vec());
        let (sa0_candidates, sa1_candidates) = match self.config.mode {
            TestMode::AllCells => (pending.clone(), pending),
            TestMode::SelectedCells {
                sa0_max_level,
                sa1_min_level,
            } => (
                pending
                    .clone()
                    .restrict_levels(store, |level| level <= sa0_max_level),
                pending.restrict_levels(store, |level| level >= sa1_min_level),
            ),
        };
        let pulses_before = xbar.write_pulses();

        let (sa0_map, sa0_cycles, sa0_untested) = self.kind_pass(
            xbar,
            store,
            &adc,
            &sa0_candidates,
            FaultKind::StuckAt0,
            DELTA_LEVELS,
        )?;
        let (sa1_map, sa1_cycles, sa1_untested) = self.kind_pass(
            xbar,
            store,
            &adc,
            &sa1_candidates,
            FaultKind::StuckAt1,
            -DELTA_LEVELS,
        )?;

        // Retested cells get fresh verdicts; everything else carries over.
        let canvas = match baseline {
            Some(previous) => {
                let mut canvas = previous.clone();
                for (r, c) in sa0_candidates.iter() {
                    canvas.set(r, c, None);
                }
                for (r, c) in sa1_candidates.iter() {
                    canvas.set(r, c, None);
                }
                canvas
            }
            None => FaultMap::healthy(xbar.rows(), xbar.cols()),
        };
        let predicted = merge_kind_maps(&sa0_map, &sa1_map, store, xbar.levels(), canvas);

        // The pending cells are tested (cleared only now, so a campaign
        // that errors out leaves them pending). The campaign's own nudges
        // and restores are in the journal; drop the round-tripped ones,
        // keep failed restores pending.
        store.clear_pending();
        store.absorb_campaign_writes(xbar)?;

        let outcome = DetectionOutcome {
            predicted,
            sa0_cycles,
            sa1_cycles,
            write_pulses: xbar.write_pulses() - pulses_before,
            sa0_candidates: sa0_candidates.count(),
            sa1_candidates: sa1_candidates.count(),
            untested_groups: sa0_untested + sa1_untested,
            store_read_cells,
            store_read_cycles: store_read_cells.div_ceil(xbar.cols() as u64),
        };
        self.record_campaign(&outcome);
        Ok(outcome)
    }

    fn record_campaign(&self, outcome: &DetectionOutcome) {
        if let Some(m) = &self.metrics {
            m.campaigns.inc();
            m.cycles.add(outcome.cycles());
            m.write_pulses.add(outcome.write_pulses);
            m.flagged_cells.add(outcome.predicted.count_faulty() as u64);
            m.untested_groups.add(outcome.untested_groups);
            m.candidates
                .add((outcome.sa0_candidates + outcome.sa1_candidates) as u64);
        }
    }

    /// One fault-kind pass: write `delta` to the candidates, run the
    /// two-direction comparison, restore, and localize. Returns the
    /// predicted map, the cycles spent, and the number of comparison
    /// sweeps that failed and were skipped (graceful degradation).
    ///
    /// The expected group sums come from the store's incremental aggregates
    /// (`expected_*_group_sums_cached`, exact integer equality with the
    /// dense per-cell-delta sweep).
    fn kind_pass(
        &self,
        xbar: &mut Crossbar,
        store: &OffChipStore,
        adc: &Adc,
        candidates: &CandidateMask,
        kind: FaultKind,
        delta: i32,
    ) -> Result<(FaultMap, u64, u64), RramError> {
        let (rows, cols) = (xbar.rows(), xbar.cols());
        let t = self.config.test_size;

        // Step 1 (Fig. 3): write the increment to every candidate cell.
        for (r, c) in candidates.iter() {
            let _ = xbar.nudge(r, c, delta)?;
        }

        // Steps 2-4: drive each candidate-bearing row group, compare all
        // candidate columns. The dense batched kernels compute every output
        // line's sum — exactly what the hardware's quiescent read produces —
        // but only candidate lines are compared, matching the old per-line
        // loop's predictions.
        let mut flags = FlagSet::new();
        let mut cycles = 0u64;
        let mut untested = 0u64;
        {
            // Per-pass sweep timing (histogram only; never the event
            // stream, so wall-clock jitter cannot break determinism).
            let _sweep_span = self.metrics.as_ref().map(|m| {
                m.recorder.span(match kind {
                    FaultKind::StuckAt0 => "faultdet_sweep_sa0",
                    FaultKind::StuckAt1 => "faultdet_sweep_sa1",
                })
            });
            for (g, group) in groups(rows, t).into_iter().enumerate() {
                if !candidates.any_in_rows(group.clone()) {
                    continue;
                }
                cycles += 1;
                // Graceful degradation: a failed sweep marks the group
                // untested and the campaign continues (§4's controller
                // re-schedules the group on the next periodic test).
                let Ok(actual) = xbar.column_group_sums(group.clone()) else {
                    untested += 1;
                    continue;
                };
                let expected =
                    store.expected_column_group_sums_cached(group.clone(), candidates, delta);
                for (col, (&sum, &exp)) in actual.iter().zip(&expected).enumerate() {
                    if candidates.column_has_candidate(group.clone(), col)
                        && adc.digitize_mod(sum) != adc.reduce(exp)
                    {
                        flags.flag_row_test(g, col);
                    }
                }
            }

            // Repeat in the column direction to derive row information.
            for (g, group) in groups(cols, t).into_iter().enumerate() {
                if !candidates.any_in_cols(group.clone()) {
                    continue;
                }
                cycles += 1;
                let Ok(actual) = xbar.row_group_sums(group.clone()) else {
                    untested += 1;
                    continue;
                };
                let expected =
                    store.expected_row_group_sums_cached(group.clone(), candidates, delta);
                for (row, (&sum, &exp)) in actual.iter().zip(&expected).enumerate() {
                    if candidates.row_has_candidate(row, group.clone())
                        && adc.digitize_mod(sum) != adc.reduce(exp)
                    {
                        flags.flag_col_test(g, row);
                    }
                }
            }
        }

        // Restore the training weights on the tested cells.
        for (r, c) in candidates.iter() {
            let target = store.stored_level(r, c);
            if xbar.read_level(r, c)? != target {
                let _ = xbar.write_level(r, c, target)?;
            }
        }

        Ok((flags.predict(candidates, kind, t), cycles, untested))
    }
}

/// Merges the two kind passes onto `canvas`, touching only flagged cells
/// (O(flagged), not O(cells)). When both passes flag the same cell the
/// controller disambiguates from the stored read: a stuck-at-0 cell always
/// reads low, a stuck-at-1 cell always reads high.
fn merge_kind_maps(
    sa0_map: &FaultMap,
    sa1_map: &FaultMap,
    store: &OffChipStore,
    levels: u16,
    mut canvas: FaultMap,
) -> FaultMap {
    let mid = (levels - 1) / 2;
    for (r, c, kind) in sa0_map.iter_faulty() {
        canvas.set(r, c, Some(kind));
    }
    for (r, c, kind) in sa1_map.iter_faulty() {
        let resolved = if sa0_map.get(r, c).is_some() {
            if store.stored_level(r, c) <= mid {
                FaultKind::StuckAt0
            } else {
                FaultKind::StuckAt1
            }
        } else {
            kind
        };
        canvas.set(r, c, Some(resolved));
    }
    canvas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DetectionReport;
    use rram::crossbar::CrossbarBuilder;
    use rram::spatial::SpatialDistribution;

    fn faulty_xbar(n: usize, fraction: f64, seed: u64) -> Crossbar {
        let mut xbar = CrossbarBuilder::new(n, n)
            .initial_faults(SpatialDistribution::Uniform, fraction)
            .seed(seed)
            .build()
            .unwrap();
        // Program a realistic mixed-level state.
        use rand::Rng;
        let mut rng = rram::rng::sim_rng(seed + 1);
        for r in 0..n {
            for c in 0..n {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        xbar
    }

    #[test]
    fn clean_array_produces_no_flags() {
        let mut xbar = faulty_xbar(16, 0.0, 1);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(4).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        assert_eq!(outcome.predicted.count_faulty(), 0);
    }

    #[test]
    fn test_restores_training_state() {
        let mut xbar = faulty_xbar(16, 0.05, 2);
        let before = xbar.read_all_levels();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(4).unwrap());
        let _ = detector.run(&mut xbar).unwrap();
        assert_eq!(xbar.read_all_levels(), before, "weights must be recovered");
    }

    #[test]
    fn detection_wears_the_array() {
        let mut xbar = faulty_xbar(16, 0.0, 3);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(4).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        assert!(outcome.write_pulses > 0, "test writes consume endurance");
    }

    #[test]
    fn single_cell_test_size_gives_perfect_detection() {
        // Groups of one cell leave no room for aliasing or cross products.
        let mut xbar = faulty_xbar(12, 0.1, 4);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        assert_eq!(report.recall(), 1.0, "no escapes at test size 1");
        assert_eq!(report.precision(), 1.0, "no false positives at test size 1");
    }

    #[test]
    fn recall_stays_high_at_coarse_test_size() {
        let mut xbar = faulty_xbar(64, 0.1, 5);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(32).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        assert!(report.recall() > 0.85, "recall {}", report.recall());
        assert!(
            report.precision() < 1.0,
            "coarse groups must cost precision"
        );
    }

    #[test]
    fn selected_mode_improves_precision_at_similar_recall() {
        let (mut a, mut b) = (faulty_xbar(64, 0.1, 6), faulty_xbar(64, 0.1, 6));
        let truth = a.fault_map();
        let all = OnlineFaultDetector::new(DetectorConfig::new(16).unwrap())
            .run(&mut a)
            .unwrap();
        let sel = OnlineFaultDetector::new(DetectorConfig::new(16).unwrap().with_selected_cells())
            .run(&mut b)
            .unwrap();
        let all_report = DetectionReport::evaluate(&truth, &all.predicted);
        let sel_report = DetectionReport::evaluate(&truth, &sel.predicted);
        assert!(
            sel_report.precision() > all_report.precision(),
            "selected {} vs all {}",
            sel_report.precision(),
            all_report.precision()
        );
        assert!(sel_report.recall() > 0.85);
        assert!(sel.sa0_candidates < all.sa0_candidates);
    }

    #[test]
    fn all_cells_cycles_match_paper_formula() {
        let mut xbar = faulty_xbar(64, 0.1, 7);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(8).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        // ⌈64/8⌉ + ⌈64/8⌉ = 16 cycles per kind pass.
        assert_eq!(outcome.sa0_cycles, 16);
        assert_eq!(outcome.sa1_cycles, 16);
        // Plus the full-array snapshot read: 64² cells over 64-wide rows.
        assert_eq!(outcome.store_read_cells, 64 * 64);
        assert_eq!(outcome.store_read_cycles, 64);
        assert_eq!(outcome.cycles(), 64 + 16);
    }

    #[test]
    fn selected_mode_reduces_cycles() {
        // All cells at mid level except a few candidates confined to the
        // top-left corner: only those groups need driving.
        let mut xbar = faulty_xbar(64, 0.0, 8);
        for r in 0..64 {
            for c in 0..64 {
                let _ = xbar.write_level(r, c, 4);
            }
        }
        xbar.write_level(0, 0, 0).unwrap();
        xbar.write_level(1, 1, 7).unwrap();
        let sel = OnlineFaultDetector::new(DetectorConfig::new(8).unwrap().with_selected_cells())
            .run(&mut xbar)
            .unwrap();
        // The sweeps shrink below the all-cells 16 cycles; the snapshot
        // charge (64 read cycles) is mode-independent.
        assert!(
            sel.sa0_cycles.max(sel.sa1_cycles) < 16,
            "sweep cycles {}",
            sel.sa0_cycles
        );
        assert!(sel.cycles() < 64 + 16, "cycles {}", sel.cycles());
    }

    #[test]
    fn attaching_campaign_charges_the_full_read_and_keeps_the_store_warm() {
        for config in [
            DetectorConfig::new(8).unwrap(),
            DetectorConfig::new(8).unwrap().with_selected_cells(),
        ] {
            let mut xbar = faulty_xbar(32, 0.1, 21);
            let detector = OnlineFaultDetector::new(config);
            let mut store = None;
            let outcome = detector.run_on_store(&mut xbar, &mut store, None).unwrap();
            assert_eq!(outcome.store_read_cells, 32 * 32);
            assert_eq!(outcome.store_read_cycles, 32);
            // The store stays attached and coherent, with nothing pending:
            // no cell wore out under the test.
            let store = store.unwrap();
            assert_eq!(store, OffChipStore::read_from(&xbar));
            assert_eq!(store.pending_count(), 0);
        }
    }

    #[test]
    fn warm_store_retests_only_dirty_cells_and_carries_baseline() {
        // Test size 1 localizes exactly, so predictions can be compared to
        // ground truth at every step.
        let mut xbar = faulty_xbar(24, 0.08, 22);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut store = None;
        let first = detector.run_on_store(&mut xbar, &mut store, None).unwrap();
        assert_eq!(first.predicted, truth);
        assert_eq!(first.store_read_cells, 24 * 24, "attach reads every cell");

        // Sparse traffic between campaigns: a few weight writes and one new
        // hard fault.
        xbar.write_level(0, 0, 5).unwrap();
        xbar.write_level(3, 7, 2).unwrap();
        xbar.nudge(10, 10, 1).unwrap();
        let mut injected = FaultMap::healthy(24, 24);
        injected.set(5, 5, Some(FaultKind::StuckAt1));
        xbar.apply_fault_map(&injected);

        let second = detector
            .run_on_store(&mut xbar, &mut store, Some(&first.predicted))
            .unwrap();
        assert_eq!(
            second.predicted,
            xbar.fault_map(),
            "carried + fresh verdicts = truth"
        );
        assert!(
            second.store_read_cells <= 4,
            "only the written cells are re-read, got {}",
            second.store_read_cells
        );
        assert!(second.sa0_candidates <= 4);
        assert!(
            second.cycles() < first.cycles(),
            "sparse retest must be cheaper: {} vs {}",
            second.cycles(),
            first.cycles()
        );
    }

    #[test]
    fn zero_test_size_is_rejected() {
        assert!(DetectorConfig::new(0).is_err());
    }

    #[test]
    fn zero_test_size_literal_errors_instead_of_panicking() {
        // `DetectorConfig` fields are pub, so the constructor's validation
        // can be bypassed; `run` must still surface a typed error.
        let mut xbar = faulty_xbar(8, 0.0, 10);
        let cfg = DetectorConfig {
            test_size: 0,
            modulo_divisor: 16,
            mode: TestMode::AllCells,
        };
        let err = OnlineFaultDetector::new(cfg).run(&mut xbar);
        assert!(matches!(err, Err(RramError::InvalidConfig(_))));
    }

    #[test]
    fn clean_campaign_reports_no_untested_groups() {
        let mut xbar = faulty_xbar(16, 0.1, 12);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(4).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        assert_eq!(outcome.untested_groups, 0);
    }

    #[test]
    fn bad_modulo_divisor_fails_at_run() {
        let mut xbar = faulty_xbar(8, 0.0, 9);
        let detector =
            OnlineFaultDetector::new(DetectorConfig::new(2).unwrap().with_modulo_divisor(12));
        assert!(detector.run(&mut xbar).is_err());
    }

    /// Every cell at `level`, variation-free — the deterministic substrate
    /// the remainder/aliasing regressions are built on.
    fn uniform_xbar(rows: usize, cols: usize, level: u16) -> Crossbar {
        let mut xbar = CrossbarBuilder::new(rows, cols).build().unwrap();
        for r in 0..rows {
            for c in 0..cols {
                xbar.write_level(r, c, level).unwrap();
            }
        }
        xbar
    }

    #[test]
    fn remainder_groups_are_swept_not_dropped() {
        // Tr = 3 does not divide 10 rows or 7 columns: the campaign must
        // sweep ceil(10/3) + ceil(7/3) = 4 + 3 groups per pass and still
        // find a fault parked in the trailing remainder group.
        for (rows, cols, t) in [(10usize, 7usize, 3usize), (9, 5, 4), (5, 9, 16)] {
            let mut xbar = uniform_xbar(rows, cols, 3);
            let mut injected = FaultMap::healthy(rows, cols);
            injected.set(rows - 1, cols - 1, Some(FaultKind::StuckAt0));
            xbar.apply_fault_map(&injected);

            let detector = OnlineFaultDetector::new(DetectorConfig::new(t).unwrap());
            let outcome = detector.run(&mut xbar).unwrap();
            let expected_cycles = (rows.div_ceil(t) + cols.div_ceil(t)) as u64;
            assert_eq!(
                outcome.sa0_cycles, expected_cycles,
                "{rows}x{cols} t={t}: a remainder group was dropped"
            );
            assert_eq!(
                outcome.predicted.get(rows - 1, cols - 1),
                Some(FaultKind::StuckAt0),
                "{rows}x{cols} t={t}: the remainder-corner fault escaped"
            );
        }
    }

    /// Pins the §4.2 aliasing escape documented at the crate root: failed
    /// increments summing to 0 mod 16 within one tested group are
    /// invisible to the comparison. This is *intended* behavior — the
    /// paper's recall ceiling — and must not silently change.
    #[test]
    fn mod16_aliasing_false_negative_regression() {
        let build_and_run = |divisor: u32| {
            let mut xbar = uniform_xbar(16, 16, 3);
            // 16 SA0 cells in one column of the single 16-row group: the
            // SA0 pass loses exactly 16·δ = 16 levels on that column sum.
            let mut injected = FaultMap::healthy(16, 16);
            for r in 0..16 {
                injected.set(r, 5, Some(FaultKind::StuckAt0));
            }
            xbar.apply_fault_map(&injected);
            let config = DetectorConfig::new(16)
                .unwrap()
                .with_modulo_divisor(divisor);
            OnlineFaultDetector::new(config).run(&mut xbar).unwrap()
        };

        // mod 16: the deviation aliases to 0 — all 16 faults escape.
        let aliased = build_and_run(16);
        assert_eq!(
            aliased.predicted.count_faulty(),
            0,
            "the documented mod-16 false negative disappeared — ADC change?"
        );
        // mod 32: the same deviation is visible — all 16 faults localized.
        let caught = build_and_run(32);
        assert_eq!(caught.predicted.count_faulty(), 16);
        for r in 0..16 {
            assert_eq!(caught.predicted.get(r, 5), Some(FaultKind::StuckAt0));
        }
    }
}
