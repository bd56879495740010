//! # ftt-lint — workspace static-analysis gate
//!
//! A zero-dependency, token-level Rust source analyzer for the
//! workspace conventions rustc and clippy cannot express: the
//! determinism contract (§6/§9), float-equality discipline, the obs
//! naming grammar and event schema (§9), panic freedom on the resume
//! paths (§8), detection-cycle accounting (§4), and workspace-manifest
//! hygiene. The panic, `unsafe` and narrowing-cast policies are clippy
//! gates instead (DESIGN.md §10), each exception an
//! `#[expect(lint, reason = "…")]`.
//!
//! Run it as `cargo run -p ftt-lint` (or `just lint`). Findings are
//! rendered as human diagnostics with `file:line` spans and — with
//! `--json` — as a deterministic, sorted, machine-readable report that
//! is byte-identical across repeated runs regardless of environment
//! (the linter never reads the clock, the thread budget, or anything
//! else nondeterministic).
//!
//! ## Architecture
//!
//! * [`lexer`] — a string/char/comment/attribute-aware token scanner
//!   (no full parse).
//! * [`model`] — workspace discovery (member list from the root
//!   manifest), per-file scans, and scope analysis (`#[cfg(test)]`
//!   ranges, panic-lint `#[expect]` ranges).
//! * [`model2`] — the workspace semantic model: fn boundaries, `use`
//!   edges, `par` call sites and an approximate call graph.
//! * [`checks`] — the pluggable [`checks::Check`] catalog. Per-file:
//!   D1 determinism, F1 float equality, O1 obs naming; workspace: W1
//!   manifest consistency; semantic: C1 par-capture determinism, O2
//!   obs schema, R1 resume-path panic freedom, E2 cycle accounting.
//! * [`config`] — `lint.toml` (minimal TOML subset, zero deps).
//! * [`diag`] — sorted findings, JSON + human renderers.

#![warn(missing_docs)]

pub mod checks;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod model2;
mod stale;

use std::path::Path;

use config::Config;
use diag::{Finding, Report};
use model::Workspace;

/// A fatal error (I/O or config syntax) — distinct from findings.
#[derive(Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ftt-lint: {}", self.0)
    }
}

/// Run the full check catalog over the workspace rooted at `root`,
/// configured by the `lint.toml` at `config_path` (defaults to
/// `<root>/lint.toml`). A missing config file is a hard error: the gate
/// must not silently run unconfigured.
pub fn run(root: &Path, config_path: Option<&Path>) -> Result<Report, Error> {
    let cfg_file = config_path
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| root.join("lint.toml"));
    let cfg_text = std::fs::read_to_string(&cfg_file)
        .map_err(|e| Error(format!("cannot read config {}: {e}", cfg_file.display())))?;
    let cfg = Config::parse(&cfg_text).map_err(|e| Error(e.to_string()))?;
    run_with_config(root, &cfg)
}

/// [`run`] with an already-parsed configuration.
pub fn run_with_config(root: &Path, cfg: &Config) -> Result<Report, Error> {
    let mut exclude = cfg.list("lint", "exclude");
    exclude.push("target".to_string());

    let ws = Workspace::load(root, &exclude).map_err(|e| Error(e.to_string()))?;
    let catalog = checks::catalog();

    // Phase 1: the workspace semantic model (items, fn boundaries, use
    // graph, approximate call graph). Phase 2: every check, in catalog
    // order — per-file passes, then the workspace pass, then the
    // semantic pass.
    let model = model2::SemanticModel::build(&ws);

    let mut findings: Vec<Finding> = Vec::new();
    for check in &catalog {
        for file in &ws.files {
            check.check_file(file, cfg, &mut findings);
        }
        check.check_workspace(&ws, cfg, &mut findings);
        check.check_semantic(&ws, &model, cfg, &mut findings);
    }
    let warnings = stale::stale_suppressions(root, &ws, &model, cfg, &catalog);
    let ids: Vec<&'static str> = catalog.iter().map(|c| c.id()).collect();
    Ok(Report::with_warnings(
        findings,
        warnings,
        ws.files.len(),
        ids,
    ))
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Test-only helpers shared by the check unit tests.
#[cfg(test)]
pub(crate) mod testsupport {
    use crate::model::{FileRole, SourceFile};

    /// Build an analyzed library [`SourceFile`] from inline source.
    pub fn lib_file(rel_path: &str, crate_name: &str, src: &str) -> SourceFile {
        let scan = crate::lexer::scan(src);
        let (test_scopes, panic_allow_scopes) = analyze(&scan);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: Some(crate_name.to_string()),
            role: FileRole::Lib,
            scan,
            test_scopes,
            panic_allow_scopes,
        }
    }

    // Re-derive scopes the same way model::load does (the function is
    // private there; duplicating three lines keeps the test seam thin).
    fn analyze(
        scan: &crate::lexer::Scan,
    ) -> (Vec<crate::model::Scope>, Vec<(crate::model::Scope, usize)>) {
        crate::model::analyze_scopes_for_tests(scan)
    }
}
