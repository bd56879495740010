//! The adversarial scenario families.
//!
//! Each family is a module exposing `run(seed) -> FamilyReport`. Families
//! are independent and derive any randomness from their own seed, so the
//! harness is reproducible case-by-case.

mod arena;
mod detector;
mod geometry;
mod kernels;
mod observability;
mod restore;
mod robustness;
mod serve;
mod tiling;
mod training;

pub use arena::arena;
pub use detector::{all_faulty_extremes, detector_group_remainders, mod16_aliasing};
pub use geometry::{extreme_geometry, plane_coherence};
pub use kernels::kernels;
pub use observability::obs_stream;
pub use restore::restore;
pub use robustness::{config_rejection, thread_budget};
pub use serve::serve;
pub use tiling::tiling;
pub use training::{degenerate_gradients, prune_rate_extremes};

use rram::crossbar::{Crossbar, CrossbarBuilder};

/// Builds a variation-free crossbar with every cell programmed to `level`
/// — the deterministic substrate most detector cases start from.
pub(crate) fn uniform_crossbar(rows: usize, cols: usize, level: u16) -> Result<Crossbar, String> {
    let mut xbar = CrossbarBuilder::new(rows, cols)
        .build()
        .map_err(|e| format!("build {rows}x{cols}: {e}"))?;
    for r in 0..rows {
        for c in 0..cols {
            xbar.write_level(r, c, level)
                .map_err(|e| format!("write_level({r},{c}): {e}"))?;
        }
    }
    Ok(xbar)
}

/// Checks that both cached conductance planes agree exactly with the
/// per-cell scalar state (the coherence invariant every batched kernel
/// relies on).
pub(crate) fn check_plane_coherence(xbar: &Crossbar, context: &str) -> Result<(), String> {
    let plane64 = xbar.conductance_plane_f64();
    let plane32 = xbar.conductance_plane();
    for r in 0..xbar.rows() {
        for c in 0..xbar.cols() {
            let scalar = xbar
                .conductance(r, c)
                .map_err(|e| format!("{context}: conductance({r},{c}): {e}"))?;
            let i = r * xbar.cols() + c;
            if plane64[i].to_bits() != scalar.to_bits() {
                return Err(format!(
                    "{context}: plane64[{r},{c}] = {} but scalar = {scalar}",
                    plane64[i]
                ));
            }
            if plane32[i].to_bits() != (scalar as f32).to_bits() {
                return Err(format!(
                    "{context}: plane32[{r},{c}] = {} but scalar = {scalar}",
                    plane32[i]
                ));
            }
        }
    }
    Ok(())
}
