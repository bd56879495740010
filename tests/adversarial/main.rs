//! Adversarial configurations of the whole stack: the closed loop on
//! dead, rank-1 and sparing-heavy hardware, the threshold-policy goldens
//! and a convolutional network's golden, trace and curve determinism
//! across thread budgets, kill/restore from snapshot bytes, the service
//! under floods and mid-migration kills, and the strategy arena's golden
//! and degenerate heats.
//!
//! Each module holds the cases of one scenario family. Cases that touch a
//! single crate live in that crate's own tests.

mod all_faulty_extremes;
mod arena;
mod conv_flow;
mod degenerate_gradients;
mod extreme_geometry;
mod obs_stream;
mod restore;
mod serve;
mod thread_budget;
mod tiling;

use std::sync::Mutex;

/// Runs `f` with the worker budget forced to `threads`, then hands the
/// budget back to `RRAM_FTT_THREADS`. Tests that force a budget hold one
/// lock, so they never race on the process-global override; the other
/// tests in this binary may run meanwhile, since their results are
/// budget-invariant.
fn at_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static BUDGET: Mutex<()> = Mutex::new(());
    let _guard = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_count(threads);
    let r = f();
    par::set_thread_count(0);
    r
}
