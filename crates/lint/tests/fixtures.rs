//! Fixture-tree integration suite: runs the six checks over
//! `tests/fixtures/ws` (a miniature workspace with one deliberate
//! violation per check in `bad` and the fixture `obs` crate, the
//! matching clean construction in `good`, and a vendored-shim stand-in
//! under `crates/shims`) and snapshots the rendered report.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn report() -> ftt_lint::diag::Report {
    ftt_lint::run(&fixture_root()).expect("fixture workspace loads")
}

#[test]
fn every_check_has_a_failing_fixture() {
    let counts = report().counts();
    for id in ftt_lint::checks::IDS {
        assert!(
            counts[id] > 0,
            "check {id} produced no findings on the violation fixture: {counts:?}"
        );
    }
}

#[test]
fn every_check_passes_on_the_good_crate() {
    let rep = report();
    let good: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/good"))
        .collect();
    assert!(good.is_empty(), "good crate must be clean: {good:#?}");
}

#[test]
fn the_shim_member_is_neither_scanned_nor_held_to_w1() {
    // Its source has an F1 violation and its manifest an upstream
    // version; the scan exclusion and W1's exemption hide both.
    let rep = report();
    let shim: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.file.contains("crates/shims") || f.message.contains("vendored"))
        .collect();
    assert!(shim.is_empty(), "shim member must add nothing: {shim:#?}");
}

#[test]
fn human_report_matches_snapshot() {
    let expected_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.txt");
    let expected = std::fs::read_to_string(&expected_path).expect("snapshot exists");
    assert_eq!(
        report().to_human(),
        expected,
        "fixture report drifted; if the change is intentional, update \
         tests/fixtures/expected.txt"
    );
}
