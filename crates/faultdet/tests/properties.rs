//! Property-based and trend tests for the on-line fault detector.

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use faultdet::metrics::DetectionReport;
use proptest::prelude::*;
use rand::Rng;
use rram::crossbar::{Crossbar, CrossbarBuilder};
use rram::endurance::EnduranceModel;
use rram::fault::{FaultKind, FaultMap};
use rram::spatial::SpatialDistribution;

fn faulty_xbar(n: usize, fraction: f64, seed: u64) -> Crossbar {
    let mut xbar = CrossbarBuilder::new(n, n)
        .initial_faults(SpatialDistribution::Uniform, fraction)
        .seed(seed)
        .build()
        .unwrap();
    let mut rng = rram::rng::sim_rng(seed ^ 0xabcdef);
    for r in 0..n {
        for c in 0..n {
            let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
        }
    }
    xbar
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The campaign always restores the pre-test levels (training state),
    /// for any geometry, fault density, and test size.
    #[test]
    fn campaign_restores_levels(
        seed in 0u64..200,
        n in 8usize..40,
        fraction in 0.0f64..0.3,
        test_size in 1usize..16,
    ) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let before = xbar.read_all_levels();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap());
        let _ = detector.run(&mut xbar).unwrap();
        prop_assert_eq!(xbar.read_all_levels(), before);
    }

    /// Predictions never fall outside the array, and with test size 1 the
    /// prediction equals the ground truth exactly.
    #[test]
    fn exact_at_test_size_one(seed in 0u64..200, n in 8usize..32, fraction in 0.0f64..0.25) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        prop_assert_eq!(report.fp, 0);
        prop_assert_eq!(report.fn_, 0);
    }

    /// Warm campaigns lose no fault. Between campaigns a crossbar with a
    /// small endurance budget takes random journaled traffic: level writes,
    /// nudges, cells hammered until they wear out, and injected faults.
    /// Each campaign runs on the persistent store at test size 1 (exact
    /// localization), retests only the pending cells and carries the
    /// previous prediction forward; its prediction must equal the fault map
    /// taken just before it. The one exception is a cell that wears out
    /// under the campaign's own test writes — the next campaign must flag
    /// it, so the last round runs with no traffic.
    #[test]
    fn warm_campaigns_lose_no_fault(
        seed in 0u64..500,
        rows in 2usize..10,
        cols in 2usize..10,
        rounds in 1usize..6,
        ops in 0usize..16,
    ) {
        let mut xbar = CrossbarBuilder::new(rows, cols)
            .initial_faults(SpatialDistribution::Uniform, 0.1)
            .endurance(EnduranceModel::new(12.0, 4.0))
            .seed(seed)
            .build()
            .unwrap();
        let mut rng = rram::rng::sim_rng(seed ^ 0x5eed);
        for r in 0..rows {
            for c in 0..cols {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut store = None;
        let mut previous: Option<FaultMap> = None;
        // Round 0 attaches the store; rounds 1..=rounds carry traffic; the
        // last round is quiet.
        for round in 0..rounds + 2 {
            if round > 0 && round <= rounds {
                for _ in 0..ops {
                    let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                    match rng.gen_range(0..4) {
                        0 => {
                            let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
                        }
                        1 => {
                            let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
                            let _ = xbar.nudge(r, c, delta).unwrap();
                        }
                        2 => {
                            for k in 0..32u16 {
                                let _ = xbar.write_level(r, c, 7 * (k % 2)).unwrap();
                            }
                        }
                        _ => {
                            let mut injected = FaultMap::healthy(rows, cols);
                            let kind = if rng.gen_bool(0.5) {
                                FaultKind::StuckAt0
                            } else {
                                FaultKind::StuckAt1
                            };
                            injected.set(r, c, Some(kind));
                            xbar.apply_fault_map(&injected);
                        }
                    }
                }
            }
            let truth = xbar.fault_map();
            let outcome = detector
                .run_on_store(&mut xbar, &mut store, previous.as_ref())
                .unwrap();
            let after = xbar.fault_map();
            for r in 0..rows {
                for c in 0..cols {
                    let worn_by_campaign = truth.get(r, c).is_none() && after.get(r, c).is_some();
                    if !worn_by_campaign {
                        prop_assert_eq!(
                            outcome.predicted.get(r, c),
                            truth.get(r, c),
                            "round {} cell ({}, {})",
                            round,
                            r,
                            c
                        );
                    }
                }
            }
            previous = Some(outcome.predicted);
        }
    }

    /// Selected-cell testing never takes more cycles than all-cells testing
    /// at the same test size.
    #[test]
    fn selected_cycles_bounded_by_all_cells(seed in 0u64..100, test_size in 1usize..12) {
        let mut a = faulty_xbar(32, 0.1, seed);
        let mut b = faulty_xbar(32, 0.1, seed);
        let all = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap())
            .run(&mut a)
            .unwrap();
        let sel = OnlineFaultDetector::new(
            DetectorConfig::new(test_size).unwrap().with_selected_cells(),
        )
        .run(&mut b)
        .unwrap();
        prop_assert!(sel.cycles() <= all.cycles());
    }

    /// Recall never falls below the paper's 87% floor minus sampling slack,
    /// across densities and coarse test sizes.
    #[test]
    fn recall_floor(seed in 0u64..60, test_size in 2usize..32) {
        let mut xbar = faulty_xbar(64, 0.1, seed);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        prop_assert!(report.recall() > 0.80, "recall {}", report.recall());
    }
}

#[test]
fn precision_improves_as_test_time_grows() {
    // The Fig. 6 trade-off: smaller test groups = more cycles = higher
    // precision. Averaged over a few seeds to be robust.
    let sizes = [32usize, 8, 2];
    let mut precisions = Vec::new();
    for &size in &sizes {
        let mut total = 0.0;
        for seed in 0..5u64 {
            let mut xbar = faulty_xbar(64, 0.1, seed);
            let truth = xbar.fault_map();
            let outcome = OnlineFaultDetector::new(DetectorConfig::new(size).unwrap())
                .run(&mut xbar)
                .unwrap();
            total += DetectionReport::evaluate(&truth, &outcome.predicted).precision();
        }
        precisions.push(total / 5.0);
    }
    assert!(
        precisions[0] < precisions[1] && precisions[1] < precisions[2],
        "precision should rise as groups shrink: {precisions:?}"
    );
}

#[test]
fn coarse_modulo_costs_recall() {
    // §4.2: a smaller divisor aliases more deficits to zero. Compare mod-2
    // against mod-16 at a coarse test size.
    let mut r2 = 0.0;
    let mut r16 = 0.0;
    for seed in 0..8u64 {
        let mut a = faulty_xbar(64, 0.1, seed);
        let truth = a.fault_map();
        let outcome =
            OnlineFaultDetector::new(DetectorConfig::new(32).unwrap().with_modulo_divisor(2))
                .run(&mut a)
                .unwrap();
        r2 += DetectionReport::evaluate(&truth, &outcome.predicted).recall();

        let mut b = faulty_xbar(64, 0.1, seed);
        let outcome =
            OnlineFaultDetector::new(DetectorConfig::new(32).unwrap().with_modulo_divisor(16))
                .run(&mut b)
                .unwrap();
        r16 += DetectionReport::evaluate(&truth, &outcome.predicted).recall();
    }
    assert!(
        r2 < r16,
        "mod-2 recall {} should trail mod-16 recall {}",
        r2 / 8.0,
        r16 / 8.0
    );
}
