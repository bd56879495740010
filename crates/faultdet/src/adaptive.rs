//! Adaptive (hierarchical) quiescent-voltage testing — an extension beyond
//! the paper's fixed test size.
//!
//! The fixed-size campaign of [`crate::detector`] trades test time against
//! precision through one global knob. Adaptive testing instead starts with
//! coarse groups and **bisects only the groups that flag**: fault-free
//! regions are cleared in one cycle each, while faulty regions are narrowed
//! down to single lines in `O(log n)` additional cycles. For sparse fault
//! populations this reaches exact localization at a fraction of the cycles
//! the fixed-size sweep needs.
//!
//! The per-group comparison reuses the same hardware assumption as the
//! paper's method (mod-2ⁿ references computed from the off-chip store), so
//! this is a drop-in scheduling improvement, not new circuitry.
//!
//! **Crossover:** each faulty line costs ~`log₂ n` probes, so bisection
//! beats the exhaustive single-line sweep only while the number of faulty
//! lines stays below roughly `n / log₂ n`. That is precisely the periodic
//! in-training regime, where each campaign only needs to find the *new*
//! faults since the previous one.

use rram::adc::Adc;
use rram::crossbar::Crossbar;
use rram::error::RramError;
use rram::fault::{FaultKind, FaultMap};

use crate::detector::{DetectorConfig, DELTA_LEVELS};
use crate::localize::FlagSet;
use crate::reference::OffChipStore;
use crate::selected::CandidateMask;

/// Outcome of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Predicted fault map.
    pub predicted: FaultMap,
    /// Total test cycles spent (each driven group of rows/columns is one).
    pub cycles: u64,
    /// Write pulses spent by the campaign.
    pub write_pulses: u64,
}

/// Hierarchical bisection detector.
///
/// `initial_size` is the starting group size (a power of two works best);
/// flagged groups are recursively split until single rows/columns remain,
/// so the final localization is exact up to modulo aliasing.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveDetector {
    config: DetectorConfig,
}

impl AdaptiveDetector {
    /// Creates an adaptive detector; `config.test_size` is the initial
    /// (coarsest) group size.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// Runs the adaptive campaign (SA0 pass then SA1 pass, with restore).
    ///
    /// # Errors
    ///
    /// Returns configuration or crossbar access errors.
    pub fn run(&self, xbar: &mut Crossbar) -> Result<AdaptiveOutcome, RramError> {
        let adc = Adc::new(xbar.levels(), self.config.modulo_divisor)?;
        let store = OffChipStore::read_from(xbar);
        let candidates = CandidateMask::all(xbar.rows(), xbar.cols());
        let pulses_before = xbar.write_pulses();

        let (sa0_map, sa0_cycles) = self.kind_pass(
            xbar,
            &store,
            &adc,
            &candidates,
            FaultKind::StuckAt0,
            DELTA_LEVELS,
        )?;
        let (sa1_map, sa1_cycles) = self.kind_pass(
            xbar,
            &store,
            &adc,
            &candidates,
            FaultKind::StuckAt1,
            -DELTA_LEVELS,
        )?;

        let mut predicted = sa0_map;
        predicted.merge(&sa1_map);
        Ok(AdaptiveOutcome {
            predicted,
            cycles: sa0_cycles + sa1_cycles,
            write_pulses: xbar.write_pulses() - pulses_before,
        })
    }

    fn kind_pass(
        &self,
        xbar: &mut Crossbar,
        store: &OffChipStore,
        adc: &Adc,
        candidates: &CandidateMask,
        kind: FaultKind,
        delta: i32,
    ) -> Result<(FaultMap, u64), RramError> {
        let (rows, cols) = (xbar.rows(), xbar.cols());

        // Write the test increment everywhere (as in the fixed campaign).
        let mut deltas = vec![0i32; rows * cols];
        for (r, c) in candidates.iter() {
            let _ = xbar.nudge(r, c, delta)?;
            deltas[r * cols + c] = delta;
        }

        let mut cycles = 0u64;
        // Row direction: bisect row ranges; a mismatch on any column keeps
        // the range alive. Terminal (single-row) ranges flag per column.
        let mut flagged_rows: Vec<(usize, Vec<bool>)> = Vec::new();
        #[expect(
            clippy::single_range_in_vec_init,
            reason = "a bisection work stack seeded with the root range, not a collected range"
        )]
        let mut stack = vec![0..rows];
        while let Some(range) = stack.pop() {
            cycles += 1;
            let mut any = false;
            // One batched probe per driven range: every output line's sum in
            // a single vectorized kernel call instead of `cols` strided
            // walks (bit-identical entries, same flags).
            let actual = xbar.column_group_sums(range.clone())?;
            let expected = store.expected_column_group_sums(range.clone(), &deltas);
            let mut col_flags = vec![false; cols];
            for (flag, (&sum, &exp)) in col_flags.iter_mut().zip(actual.iter().zip(&expected)) {
                if adc.digitize_mod(sum) != adc.reduce(exp) {
                    *flag = true;
                    any = true;
                }
            }
            if any {
                if range.len() == 1 {
                    flagged_rows.push((range.start, col_flags));
                } else {
                    let mid = range.start + range.len() / 2;
                    stack.push(range.start..mid);
                    stack.push(mid..range.end);
                }
            }
        }

        // Column direction, symmetric.
        let mut flagged_cols: Vec<(usize, Vec<bool>)> = Vec::new();
        #[expect(
            clippy::single_range_in_vec_init,
            reason = "a bisection work stack seeded with the root range, not a collected range"
        )]
        let mut stack = vec![0..cols];
        while let Some(range) = stack.pop() {
            cycles += 1;
            let mut any = false;
            let actual = xbar.row_group_sums(range.clone())?;
            let expected = store.expected_row_group_sums(range.clone(), &deltas);
            let mut row_flags = vec![false; rows];
            for (flag, (&sum, &exp)) in row_flags.iter_mut().zip(actual.iter().zip(&expected)) {
                if adc.digitize_mod(sum) != adc.reduce(exp) {
                    *flag = true;
                    any = true;
                }
            }
            if any {
                if range.len() == 1 {
                    flagged_cols.push((range.start, row_flags));
                } else {
                    let mid = range.start + range.len() / 2;
                    stack.push(range.start..mid);
                    stack.push(mid..range.end);
                }
            }
        }

        // Intersection at single-line granularity: cell (r, c) is predicted
        // iff row-direction test flagged (row r singleton, column c) and
        // column-direction flagged (column c singleton, row r).
        let mut flags = FlagSet::new();
        for (r, col_flags) in &flagged_rows {
            for (c, &f) in col_flags.iter().enumerate() {
                if f {
                    flags.flag_row_test(*r, c);
                }
            }
        }
        for (c, row_flags) in &flagged_cols {
            for (r, &f) in row_flags.iter().enumerate() {
                if f {
                    flags.flag_col_test(*c, r);
                }
            }
        }
        // Group size 1: FlagSet's grouping becomes the identity.
        let map = flags.predict(candidates, kind, 1);

        // Restore training weights.
        for (r, c) in candidates.iter() {
            let target = store.stored_level(r, c);
            if xbar.read_level(r, c)? != target {
                let _ = xbar.write_level(r, c, target)?;
            }
        }
        Ok((map, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OnlineFaultDetector;
    use crate::metrics::DetectionReport;
    use rram::crossbar::CrossbarBuilder;
    use rram::spatial::SpatialDistribution;

    fn faulty_xbar(n: usize, fraction: f64, seed: u64) -> Crossbar {
        use rand::Rng;
        let mut xbar = CrossbarBuilder::new(n, n)
            .initial_faults(SpatialDistribution::Uniform, fraction)
            .seed(seed)
            .build()
            .unwrap();
        let mut rng = rram::rng::sim_rng(seed + 3);
        for r in 0..n {
            for c in 0..n {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        xbar
    }

    #[test]
    fn adaptive_is_exact_on_sparse_faults() {
        let mut xbar = faulty_xbar(64, 0.02, 1);
        let truth = xbar.fault_map();
        let outcome = AdaptiveDetector::new(DetectorConfig::new(64).unwrap())
            .run(&mut xbar)
            .unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        assert_eq!(report.recall(), 1.0, "fn {}", report.fn_);
        assert_eq!(report.precision(), 1.0, "fp {}", report.fp);
    }

    #[test]
    fn adaptive_restores_state() {
        let mut xbar = faulty_xbar(32, 0.05, 2);
        let before = xbar.read_all_levels();
        let _ = AdaptiveDetector::new(DetectorConfig::new(32).unwrap())
            .run(&mut xbar)
            .unwrap();
        assert_eq!(xbar.read_all_levels(), before);
    }

    #[test]
    fn adaptive_beats_exhaustive_cycles_on_sparse_faults() {
        // At 0.1% faults (the incremental, new-faults-since-last-campaign
        // regime) bisection clears most of the array in a few coarse
        // probes; the exhaustive test-size-1 sweep pays 2n cycles per kind
        // regardless.
        let mut a = faulty_xbar(128, 0.001, 3);
        let adaptive = AdaptiveDetector::new(DetectorConfig::new(128).unwrap())
            .run(&mut a)
            .unwrap();
        let mut b = faulty_xbar(128, 0.001, 3);
        let exhaustive = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap())
            .run(&mut b)
            .unwrap();
        let exhaustive_cycles = exhaustive.sa0_cycles + exhaustive.sa1_cycles;
        assert!(
            adaptive.cycles < exhaustive_cycles,
            "adaptive {} vs exhaustive {exhaustive_cycles}",
            adaptive.cycles
        );
        // And it is just as exact.
        let truth = a.fault_map();
        let report = DetectionReport::evaluate(&truth, &adaptive.predicted);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.precision(), 1.0);
    }

    #[test]
    fn clean_array_costs_two_cycles_per_direction() {
        let mut xbar = faulty_xbar(64, 0.0, 4);
        let outcome = AdaptiveDetector::new(DetectorConfig::new(64).unwrap())
            .run(&mut xbar)
            .unwrap();
        assert_eq!(outcome.predicted.count_faulty(), 0);
        // One coarse probe per direction per kind pass = 4 cycles total.
        assert_eq!(outcome.cycles, 4);
    }
}
