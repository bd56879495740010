//! Precision/recall scoring of a detection outcome (§6.1 of the paper).

use rram::fault::FaultMap;

/// Confusion counts of a fault prediction against the ground truth.
///
/// Following the paper: *TP* = faulty cells correctly identified, *FP* =
/// fault-free cells flagged faulty, *FN* = faulty cells missed (test
/// escapes), *TN* = fault-free cells passed. Identification is
/// kind-agnostic — predicting SA0 where the truth is SA1 still counts as a
/// true positive for these aggregate metrics (use
/// [`DetectionReport::evaluate_kind_aware`] for the stricter variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionReport {
    /// Faulty cells correctly flagged.
    pub tp: u64,
    /// Fault-free cells erroneously flagged.
    pub fp: u64,
    /// Faulty cells missed.
    pub fn_: u64,
    /// Fault-free cells correctly passed.
    pub tn: u64,
}

impl DetectionReport {
    /// Scores `predicted` against `truth` cell-by-cell (kind-agnostic).
    ///
    /// # Panics
    ///
    /// Panics if the map dimensions differ.
    pub fn evaluate(truth: &FaultMap, predicted: &FaultMap) -> Self {
        assert_eq!(
            (truth.rows(), truth.cols()),
            (predicted.rows(), predicted.cols()),
            "map dimensions must match"
        );
        let mut report = DetectionReport::default();
        for r in 0..truth.rows() {
            for c in 0..truth.cols() {
                match (truth.get(r, c).is_some(), predicted.get(r, c).is_some()) {
                    (true, true) => report.tp += 1,
                    (false, true) => report.fp += 1,
                    (true, false) => report.fn_ += 1,
                    (false, false) => report.tn += 1,
                }
            }
        }
        report
    }

    /// Scores with fault-kind matching: a faulty cell only counts as TP when
    /// the predicted kind equals the true kind.
    ///
    /// # Panics
    ///
    /// Panics if the map dimensions differ.
    pub fn evaluate_kind_aware(truth: &FaultMap, predicted: &FaultMap) -> Self {
        assert_eq!(
            (truth.rows(), truth.cols()),
            (predicted.rows(), predicted.cols()),
            "map dimensions must match"
        );
        let mut report = DetectionReport::default();
        for r in 0..truth.rows() {
            for c in 0..truth.cols() {
                match (truth.get(r, c), predicted.get(r, c)) {
                    (Some(t), Some(p)) if t == p => report.tp += 1,
                    (Some(_), Some(_)) => {
                        // Wrong kind: the fault is "seen" but misclassified;
                        // count as both a miss and a spurious flag.
                        report.fn_ += 1;
                        report.fp += 1;
                    }
                    (None, Some(_)) => report.fp += 1,
                    (Some(_), None) => report.fn_ += 1,
                    (None, None) => report.tn += 1,
                }
            }
        }
        report
    }

    /// `TP / (TP + FP)`; `1.0` when nothing was flagged.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// `TP / (TP + FN)`; `1.0` when there was nothing to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Total cells scored.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram::fault::FaultKind;

    fn map_with(faults: &[(usize, usize, FaultKind)]) -> FaultMap {
        let mut m = FaultMap::healthy(4, 4);
        for &(r, c, k) in faults {
            m.set(r, c, Some(k));
        }
        m
    }

    #[test]
    fn perfect_prediction() {
        let truth = map_with(&[(0, 0, FaultKind::StuckAt0), (2, 3, FaultKind::StuckAt1)]);
        let report = DetectionReport::evaluate(&truth, &truth);
        assert_eq!(report.tp, 2);
        assert_eq!(report.fp, 0);
        assert_eq!(report.fn_, 0);
        assert_eq!(report.tn, 14);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.total(), 16);
    }

    #[test]
    fn misses_and_false_alarms() {
        let truth = map_with(&[(0, 0, FaultKind::StuckAt0), (1, 1, FaultKind::StuckAt0)]);
        let predicted = map_with(&[(0, 0, FaultKind::StuckAt0), (3, 3, FaultKind::StuckAt1)]);
        let report = DetectionReport::evaluate(&truth, &predicted);
        assert_eq!(report.tp, 1);
        assert_eq!(report.fp, 1);
        assert_eq!(report.fn_, 1);
        assert_eq!(report.precision(), 0.5);
        assert_eq!(report.recall(), 0.5);
    }

    #[test]
    fn kind_agnostic_vs_kind_aware() {
        let truth = map_with(&[(0, 0, FaultKind::StuckAt0)]);
        let predicted = map_with(&[(0, 0, FaultKind::StuckAt1)]);
        let loose = DetectionReport::evaluate(&truth, &predicted);
        assert_eq!(loose.tp, 1);
        let strict = DetectionReport::evaluate_kind_aware(&truth, &predicted);
        assert_eq!(strict.tp, 0);
        assert_eq!(strict.fn_, 1);
        assert_eq!(strict.fp, 1);
    }

    #[test]
    fn empty_prediction_conventions() {
        let truth = FaultMap::healthy(4, 4);
        let report = DetectionReport::evaluate(&truth, &truth);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }
}
