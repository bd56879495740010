//! The six checks, one function each.
//!
//! Each function sees a scanned file, the workspace, or the semantic
//! model, and appends [`crate::diag::Finding`]s. Nothing is read from
//! a config file: every setting a check needs is a constant next to it,
//! with the reason it holds that value, and a justified exception is
//! such a constant too, reviewed like any other code.
//!
//! Policies rustc or clippy can express (panics, `unsafe`, narrowing
//! casts, wall clocks, unordered collections, unscoped threads) are not
//! checks here: they are lint flags on the `just clippy` and
//! `just clippy-unwrap` gates and the root `clippy.toml` (DESIGN.md §10).
//!
//! Adding a check: write its function and constants in a new module,
//! call it from [`crate::run`], add its id to [`IDS`], and add one case
//! per side to `tests/fixtures/ws` — a violation in `bad`, the matching
//! clean construction in `good` — then update the snapshot
//! `tests/fixtures/expected.txt`.

mod cycle_audit;
mod float_soundness;
mod obs_policy;
mod obs_schema;
mod par_capture;
mod workspace;

pub use cycle_audit::cycle_audit;
pub use float_soundness::float_soundness;
pub use obs_policy::obs_policy;
pub use obs_schema::obs_schema;
pub use par_capture::par_capture;
pub use workspace::workspace_consistency;

/// Every check's id, in the order [`crate::run`] calls them.
pub const IDS: [&str; 6] = [
    par_capture::ID,
    cycle_audit::ID,
    float_soundness::ID,
    obs_policy::ID,
    obs_schema::ID,
    workspace::ID,
];
