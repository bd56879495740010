//! Determinism-sanitizer chaos: the `par` runtime sanitizer
//! (DESIGN.md §10.5) cross-checks every fan-out's chunk schedule and
//! composition order against the single-thread reference. This family
//! proves both directions: a planted out-of-order reduction *is*
//! caught, and the real workloads — the fork-join helpers themselves
//! and a full detection campaign — run schedule-clean at every thread
//! budget.
//!
//! The sanitizer state is process-global; every case drains it on entry
//! and restores the enablement override and thread budget on exit, so
//! the family composes with the rest of the harness.

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use par::sanitizer;
use rand::Rng;
use rram::rng::sim_rng;

use crate::families::uniform_crossbar;
use crate::{ensure, FamilyReport};

/// The thread budgets the clean-workload cases sweep: sequential, a
/// small fan-out, and the hard cap.
const BUDGETS: [usize; 3] = [1, 4, par::MAX_THREADS];

/// Runs a case with the sanitizer forced on and a drained slate, then
/// restores the env-driven default and the ambient thread budget even
/// when the case fails.
fn with_sanitizer(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    sanitizer::set_enabled(Some(true));
    let _ = sanitizer::take_report();
    let result = f();
    let _ = sanitizer::take_report();
    sanitizer::set_enabled(None);
    par::set_thread_count(0);
    result
}

/// Planted divergences plus clean sweeps of every fork-join helper and a
/// detection campaign, at budgets {1, 4, MAX}.
pub fn sanitize(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("sanitize");

    fam.case("planted_out_of_order_reduction_is_caught", || {
        with_sanitizer(|| {
            // Chunks tile 0..32 exactly, but the partials were combined
            // in reversed order — the schedule a racy reduction yields.
            sanitizer::record_schedule("chaos_plant", 32, &[(0, 16), (16, 16)], &[1, 0]);
            // And a coverage hole: chunk two starts past its boundary.
            sanitizer::record_schedule("chaos_plant", 32, &[(0, 16), (17, 15)], &[0, 1]);
            let rep = sanitizer::take_report();
            ensure(
                rep.calls_checked == 2,
                format!("checked {} calls, planted 2", rep.calls_checked),
            )?;
            ensure(
                rep.violations.len() == 2,
                format!("planted 2 violations, caught {:?}", rep.violations),
            )?;
            ensure(
                rep.violations
                    .iter()
                    .any(|v| v.detail.contains("composition order")),
                format!("no composition-order violation in {:?}", rep.violations),
            )?;
            ensure(
                rep.violations.iter().any(|v| v.detail.contains("tile")),
                format!("no coverage violation in {:?}", rep.violations),
            )
        })
    });

    fam.case("fork_join_helpers_run_schedule_clean", || {
        with_sanitizer(|| {
            let mut rng = sim_rng(seed);
            let n = 40_000 + rng.gen_range(0..1000);
            for &budget in &BUDGETS {
                par::set_thread_count(budget);
                let _ = sanitizer::take_report();

                // Every fork-join entry point, with a per-item work
                // estimate that clears the gate for the whole budget.
                let ops = par::PAR_MIN_WORK;
                let mapped = par::map_indices(n, ops, |i| (i as u64).wrapping_mul(0x9E37));
                let mut buf: Vec<u64> = (0..n as u64).collect();
                par::for_each_chunk_mut(&mut buf, ops, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = v.wrapping_add(mapped[start + k]);
                    }
                });
                let row = 64;
                let mut grid: Vec<u64> = vec![1; (n / row) * row];
                par::for_each_row_block_mut(&mut grid, row, ops, |first_row, block| {
                    for v in block.iter_mut() {
                        *v += first_row as u64;
                    }
                });
                ensure(
                    buf.iter().enumerate().all(|(i, &v)| {
                        v == (i as u64).wrapping_add((i as u64).wrapping_mul(0x9E37))
                    }),
                    "chunked pass skipped or repeated an item",
                )?;

                let rep = sanitizer::take_report();
                par::set_thread_count(0);
                ensure(
                    rep.is_clean(),
                    format!("threads {budget}: violations {:?}", rep.violations),
                )?;
                // Sequential fallbacks *are* the reference schedule and
                // record nothing; every multi-thread budget must have
                // actually exercised the checker.
                if budget > 1 {
                    ensure(
                        rep.calls_checked >= 3,
                        format!(
                            "threads {budget}: only {} schedules checked",
                            rep.calls_checked
                        ),
                    )?;
                }
            }
            Ok(())
        })
    });

    fam.case("detection_campaign_runs_schedule_clean", || {
        with_sanitizer(|| {
            let detector = OnlineFaultDetector::new(
                DetectorConfig::new(4).map_err(|e| format!("config: {e}"))?,
            );
            let mut reference: Option<faultdet::detector::DetectionOutcome> = None;
            for &budget in &BUDGETS {
                par::set_thread_count(budget);
                let _ = sanitizer::take_report();
                let mut xbar = uniform_crossbar(33, 33, 2)?;
                let outcome = detector
                    .run(&mut xbar)
                    .map_err(|e| format!("threads {budget}: run: {e}"))?;
                let rep = sanitizer::take_report();
                par::set_thread_count(0);
                ensure(
                    rep.is_clean(),
                    format!("threads {budget}: violations {:?}", rep.violations),
                )?;
                match &reference {
                    None => reference = Some(outcome),
                    Some(want) => ensure(
                        &outcome == want,
                        format!("detection outcome diverged at {budget} threads"),
                    )?,
                }
            }
            Ok(())
        })
    });

    fam
}
