//! The pluggable check catalog.
//!
//! A [`Check`] sees each scanned file (and, once, the whole workspace)
//! and appends [`Finding`]s. Checks read their scoping and allowlists
//! from `lint.toml` under `[checks.<ID>]`; the shared convention is
//! `allow = ["path/prefix", ...]` — workspace-relative path prefixes
//! this check never fires on.
//!
//! Policies rustc or clippy can express (panics, `unsafe`, narrowing
//! casts, wall clocks, unordered collections, unscoped threads) are not
//! checks here: they are lint flags on the `just clippy` and
//! `just clippy-unwrap` gates and the root `clippy.toml` (DESIGN.md §10).
//!
//! Adding a check: implement [`Check`], give it a unique short id, and
//! add it to [`catalog`]. Fixture coverage (one failing + one passing
//! case) is part of the definition of done — see
//! `tests/fixtures/`.

use crate::config::Config;
use crate::diag::Finding;
use crate::model::{SourceFile, Workspace};
use crate::model2::SemanticModel;

mod cycle_audit;
mod float_soundness;
mod obs_policy;
mod obs_schema;
mod par_capture;
mod workspace;

pub use cycle_audit::CycleAudit;
pub use float_soundness::FloatSoundness;
pub use obs_policy::ObsPolicy;
pub use obs_schema::ObsSchema;
pub use par_capture::ParCapture;
pub use workspace::WorkspaceConsistency;

/// A single static-analysis policy.
pub trait Check {
    /// Short stable id (`"F1"`).
    fn id(&self) -> &'static str;

    /// One-line description for reports and docs.
    fn description(&self) -> &'static str;

    /// Per-file pass (default: nothing).
    fn check_file(&self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {}

    /// Workspace-level pass, run once (default: nothing).
    fn check_workspace(&self, _ws: &Workspace, _cfg: &Config, _out: &mut Vec<Finding>) {}

    /// Phase-2 pass over the semantic model, run once (default: nothing).
    fn check_semantic(
        &self,
        _ws: &Workspace,
        _model: &SemanticModel,
        _cfg: &Config,
        _out: &mut Vec<Finding>,
    ) {
    }
}

/// The full check catalog, in id order.
pub fn catalog() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(ParCapture),
        Box::new(CycleAudit),
        Box::new(FloatSoundness),
        Box::new(ObsPolicy),
        Box::new(ObsSchema),
        Box::new(WorkspaceConsistency),
    ]
}

/// Shared helper: is `path` covered by `[checks.<id>] allow` prefixes?
pub(crate) fn path_allowed(cfg: &Config, id: &str, path: &str) -> bool {
    cfg.list(&format!("checks.{id}"), "allow")
        .iter()
        .any(|p| path == p || path.starts_with(&format!("{p}/")))
}
