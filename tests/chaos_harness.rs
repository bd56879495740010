//! Tier-1 wiring of the adversarial harness: the seeded chaos run must
//! pass. Determinism is checked inside the harness, by cases that
//! compare a run byte for byte with a second run or with a recorded
//! golden (`thread_budget/closed_loop_bit_identical_across_thread_counts`,
//! `restore/kill_restore_identical_on_a_second_seed`, the
//! `degenerate_gradients/golden_flow_*` cases, …), so every passing run
//! has also reproduced them.
//!
//! `just chaos` runs the same harness with verbose per-family output.

const SEED: u64 = 0xC0FFEE;

#[test]
fn chaos_harness_passes() {
    let report = chaos::run_all(SEED);
    assert!(
        report.all_passed(),
        "adversarial scenarios failed:\n{report}"
    );
    assert!(report.families.len() >= 8, "at least 8 scenario families");
    assert!(
        report.case_count() >= 20,
        "the families should fan out into many cases"
    );
}
