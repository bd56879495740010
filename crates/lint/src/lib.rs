//! # ftt-lint — workspace static-analysis gate
//!
//! A zero-dependency, token-level Rust source analyzer for the
//! workspace conventions rustc and clippy cannot express: schedule-
//! independent `par` closures (§6), float-equality discipline, the obs
//! naming grammar and event schema (§9), detection-cycle accounting
//! (§4), and workspace-manifest hygiene. The panic, `unsafe`,
//! narrowing-cast and determinism (wall clock, unordered collection,
//! unscoped thread) policies are clippy gates instead (DESIGN.md §10),
//! each exception an `#[expect(lint, reason = "…")]`.
//!
//! [`run`] lints a workspace and returns its sorted findings. The gate
//! is this crate's own test suite (`cargo test -p ftt-lint`, or
//! `just lint`): `tests/workspace_clean.rs` requires the real workspace
//! to report nothing, and `tests/fixtures.rs` pins what every check
//! finds in a miniature fixture workspace. Nothing is configurable:
//! each setting is a constant next to the check that reads it, with
//! its reason.
//!
//! ## Architecture
//!
//! * [`lexer`] — a string/char/comment/attribute-aware token scanner
//!   (no full parse).
//! * [`model`] — workspace discovery (member list from the root
//!   manifest), per-file scans, and `#[cfg(test)]` scope analysis.
//! * [`model2`] — the workspace semantic model: fn boundaries, `par`
//!   call sites and an approximate call graph.
//! * [`checks`] — the six check functions. Per-file: F1 float
//!   equality, O1 obs naming; workspace: W1 manifest consistency;
//!   semantic: C1 par-capture determinism, O2 obs schema, E2 cycle
//!   accounting.
//! * [`diag`] — sorted findings and their human rendering.

#![warn(missing_docs)]

pub mod checks;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod model2;

use std::path::Path;

use diag::Report;
use model::{LoadError, Workspace};
use model2::SemanticModel;

/// Run the six checks over the workspace rooted at `root`: build the
/// semantic model once, then call each check in id order.
pub fn run(root: &Path) -> Result<Report, LoadError> {
    let ws = Workspace::load(root)?;
    let model = SemanticModel::build(&ws);
    let mut findings = Vec::new();
    checks::par_capture(&ws, &model, &mut findings);
    checks::cycle_audit(&ws, &model, &mut findings);
    for file in &ws.files {
        checks::float_soundness(file, &mut findings);
        checks::obs_policy(file, &mut findings);
    }
    checks::obs_schema(&ws, &mut findings);
    checks::workspace_consistency(&ws, &mut findings);
    Ok(Report::new(findings, ws.files.len()))
}

/// Test-only helpers shared by the check unit tests.
#[cfg(test)]
pub(crate) mod testsupport {
    use crate::model::{FileRole, Member, SourceFile, Workspace};

    /// Build an analyzed library [`SourceFile`] from inline source.
    pub fn lib_file(rel_path: &str, crate_name: &str, src: &str) -> SourceFile {
        let scan = crate::lexer::scan(src);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: Some(crate_name.to_string()),
            role: FileRole::Lib,
            test_scopes: crate::model::test_scopes(&scan),
            scan,
        }
    }

    /// A workspace of `files`, one manifest-less member per crate at
    /// `crates/<name>`.
    pub fn workspace(files: Vec<SourceFile>) -> Workspace {
        let mut names: Vec<String> = files.iter().filter_map(|f| f.crate_name.clone()).collect();
        names.dedup();
        Workspace {
            root_manifest: String::new(),
            members: names
                .into_iter()
                .map(|name| Member {
                    dir: format!("crates/{name}"),
                    name,
                    manifest: String::new(),
                })
                .collect(),
            files,
            docs: Default::default(),
        }
    }
}
