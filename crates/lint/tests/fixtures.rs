//! Fixture-tree integration suite: runs the full catalog over
//! `tests/fixtures/ws` (a miniature two-crate workspace with one
//! deliberate violation per check in `bad` and the matching clean
//! construction in `good`) and snapshots the sorted JSON report.

use std::path::PathBuf;
use std::process::Command;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn report() -> ftt_lint::diag::Report {
    ftt_lint::run(&fixture_root(), None).expect("fixture workspace loads")
}

#[test]
fn every_check_has_a_failing_fixture() {
    let counts = report().counts();
    for id in ["D1", "F1", "O1", "W1", "C1", "O2", "R1", "E2"] {
        assert!(
            counts.get(id).copied().unwrap_or(0) > 0,
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
fn json_report_matches_snapshot() {
    let expected_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    let expected = std::fs::read_to_string(&expected_path).expect("snapshot exists");
    let actual = report().to_json();
    assert_eq!(
        actual, expected,
        "fixture JSON drifted; if the change is intentional, update \
         tests/fixtures/expected.json"
    );
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    assert_eq!(report().to_json(), report().to_json());
}

#[test]
fn binary_exits_nonzero_on_violations_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_ftt-lint");

    // Violation fixture -> exit 1.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .output()
        .expect("run ftt-lint on fixtures");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Real workspace -> exit 0 (also asserted by workspace_clean.rs via
    // the library API; this covers the CLI path).
    let ws_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&ws_root)
        .output()
        .expect("run ftt-lint on workspace");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Missing config -> exit 2.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .args(["--config", "/nonexistent/lint.toml"])
        .output()
        .expect("run ftt-lint with bad config");
    assert_eq!(out.status.code(), Some(2));

    // Unknown flag -> exit 2.
    let out = Command::new(bin)
        .args(["--frobnicate"])
        .output()
        .expect("run ftt-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stale_suppressions_surface_as_warnings() {
    let rep = report();
    let kinds: Vec<&str> = rep.warnings.iter().map(|w| w.check).collect();
    for kind in ["stale-allow", "stale-exclude"] {
        assert!(
            kinds.contains(&kind),
            "expected a {kind} warning, got {kinds:?}"
        );
    }
    // Warnings never affect the exit decision.
    assert!(!rep.is_clean(), "fixture still has findings");
}

#[test]
fn human_rendering_carries_file_line_spans() {
    let rep = report();
    let human = rep.to_human();
    assert!(
        human.contains("crates/bad/src/lib.rs:"),
        "diagnostics must carry file:line spans:\n{human}"
    );
    assert!(human.contains("finding(s)"));
}
