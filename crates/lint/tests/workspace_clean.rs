//! Meta-test: the real workspace lints clean, and the JSON report is a
//! deterministic artifact — byte-identical across repeated runs and
//! across `RRAM_FTT_THREADS` settings (the linter reads neither the
//! clock nor the environment; the spawned-process check pins that).

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_lints_clean() {
    let report = ftt_lint::run(&workspace_root(), None).expect("workspace loads");
    assert!(
        report.is_clean(),
        "the workspace must satisfy its own lint gate:\n{}",
        report.to_human()
    );
    // The full catalog ran: the per-file and workspace checks plus the
    // three semantic (cross-crate) checks.
    assert_eq!(report.checks, vec!["C1", "E2", "F1", "O1", "O2", "W1"]);
    // No stale suppressions linger in lint.toml or the source tree.
    assert!(
        report.warnings.is_empty(),
        "stale suppressions:\n{}",
        report.to_human()
    );
    // Sanity: the gate actually scanned the tree (not an empty walk).
    assert!(
        report.files_scanned > 100,
        "scanned {} files",
        report.files_scanned
    );
}

#[test]
fn json_report_is_byte_identical_across_thread_budgets() {
    let bin = env!("CARGO_BIN_EXE_ftt-lint");
    let mut outputs = Vec::new();
    for budget in ["1", "4", "13"] {
        let out = Command::new(bin)
            .args(["--json", "--root"])
            .arg(workspace_root())
            .env("RRAM_FTT_THREADS", budget)
            .output()
            .expect("run ftt-lint --json");
        assert_eq!(out.status.code(), Some(0));
        outputs.push(out.stdout);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "trace must not depend on RRAM_FTT_THREADS"
    );
    assert_eq!(
        outputs[1], outputs[2],
        "trace must not depend on RRAM_FTT_THREADS"
    );
    let text = String::from_utf8(outputs[0].clone()).expect("utf-8 report");
    assert!(
        text.contains("\"findings\": []"),
        "clean workspace report:\n{text}"
    );
}
