//! The gate: the real workspace reports no finding from any of the six
//! checks (`cargo test -p ftt-lint`, or `just lint`).

use std::path::PathBuf;

#[test]
fn the_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ftt_lint::run(&root).expect("workspace loads");
    assert!(
        report.is_clean(),
        "the workspace must satisfy its own lint gate:\n{}",
        report.to_human()
    );
    // Sanity: the gate actually scanned the tree (not an empty walk).
    assert!(
        report.files_scanned > 100,
        "scanned {} files",
        report.files_scanned
    );
}
