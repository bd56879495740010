//! Scoped-thread data-parallel helpers for the workspace's coarse loops.
//!
//! The build environment is offline (no crates.io registry), so instead of
//! `rayon` this crate provides the minimal fork-join surface the kernels
//! need, built purely on [`std::thread::scope`]:
//!
//! * [`thread_count`] — the worker budget: `RRAM_FTT_THREADS` env override,
//!   else [`std::thread::available_parallelism`].
//! * [`for_each_chunk_mut`] — split a `&mut [T]` into contiguous chunks and
//!   process them on worker threads (chip tile slots).
//! * [`for_each_row_block_mut`] — the same over whole rows of a row-major
//!   buffer (GEMM output rows, convolution samples).
//! * [`map_indices`] — evaluate an independent `Fn(usize) -> T` for
//!   `0..n` and collect results in index order (arena contenders).
//!
//! Four call sites use them, and a workload forks each one: the GEMM
//! loop behind the three tensor products, `Conv2d::forward`,
//! `TiledChip::run_campaigns` and `ftt_arena::run` (DESIGN.md §6.2). Per-sample kernels — one crossbar's
//! MVM, one campaign's group sweeps, one remap cost — run on the calling
//! thread.
//!
//! **One work gate.** Every helper takes an estimate of the scalar
//! operations per item and never gives a worker less than
//! [`PAR_MIN_WORK`] of them; below that it calls the closure once, on the
//! calling thread, over the whole input. A helper called from inside a
//! fan-out (nested parallelism) always runs inline, so the budget is spent
//! once, at the coarsest level that clears the gate.
//!
//! Determinism note: every helper assigns work by index and writes results
//! into pre-sliced disjoint regions, so outputs are bit-identical to the
//! sequential order regardless of the thread count. The proof is the
//! byte-comparison of seeded traces and statistics at several budgets that
//! the root package's adversarial tests, `arena`, the unit tests of each
//! call site and the benchmark's tests run, each sized so the compared
//! budgets fork.
//!
//! The crate holds only the worker budget and the fork-join core: it
//! records no metrics and keeps no other process-global state. A caller
//! that wants a fan-out timed opens a span on its own `obs::Recorder`
//! around the call.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The work gate: the fewest estimated scalar operations a worker may be
/// given. Calibrated from the measured fan-out cost — one scoped fan-out
/// costs ~30 µs on a 2-core VM (the caller running one chunk itself), and
/// the workspace's lane kernels retire roughly one to two scalar ops per
/// nanosecond per core — so a worker holding at least 2^20 ops (≈ 0.5–1
/// ms) keeps the spawn under ~5 % of its work. Estimates are rough by
/// design; the gate only has to separate per-sample kernels from coarse
/// jobs, which differ by orders of magnitude.
pub const PAR_MIN_WORK: usize = 1 << 20;

/// Sparsity gate shared by `Crossbar::mvm` and the SAXPY kernel behind
/// `Tensor::{matmul, matmul_tn, matmul_nt}`: skipping a zero input element
/// saves a row-length SAXPY, but the branch costs a compare per element.
/// Profiling shows the skip only wins once the input is mostly zeros —
/// which happens after §5.2-style pruning re-mapping (>50 % of weights
/// pruned) or with sparse spike-like activations. Dense kernels therefore
/// only take the branch when the caller has measured sparsity above this
/// fraction.
pub const SPARSITY_SKIP_THRESHOLD: f32 = 0.5;

/// Lane count for `f32` kernels (the MVM SAXPY rows): an output-axis
/// unroll, so every output keeps its own accumulator and results equal
/// the scalar loop's.
pub const F32_LANES: usize = 8;

/// Accumulator-lane count for `f64` kernels (group-sum sweeps). Part of
/// the workspace-wide lane contract: the row-direction sum runs this many
/// independent accumulators over `chunks_exact(F64_LANES)`, folds the
/// remainder round-robin into the same accumulators, then combines them
/// with the fixed tree `(a0+a1)+(a2+a3)`. The lane count and the tree are
/// *semantic*: changing either changes float results, so both are pinned
/// here and asserted bit-identical against cell-walking references in
/// `rram`'s tests.
pub const F64_LANES: usize = 4;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the worker budget. `RRAM_FTT_THREADS=4000000` would
/// otherwise ask [`std::thread::scope`] for millions of spawns.
pub const MAX_THREADS: usize = 1024;

/// The worker budget used by all helpers.
///
/// Resolution order: [`set_thread_count`] override (tests, benchmark), the
/// `RRAM_FTT_THREADS` environment variable (resolved once through
/// [`resolve_thread_budget`]), then
/// [`std::thread::available_parallelism`]. Always in `1..=MAX_THREADS`.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        let raw = std::env::var("RRAM_FTT_THREADS").ok();
        resolve_thread_budget(raw.as_deref())
    })
}

/// Resolves a raw `RRAM_FTT_THREADS` value into a usable worker budget.
///
/// This is the pure core of [`thread_count`], exposed so the policy can be
/// tested without mutating process environment (the env lookup itself is
/// cached in a `OnceLock` and cannot be re-run in-process):
///
/// * `None` (unset) — auto-detect via `available_parallelism`, min 1.
/// * `Some("0")` — **clamped to 1** with a diagnostic on stderr. A zero
///   worker budget would make every `div_ceil(workers)` chunk division and
///   `thread::scope` fan-out degenerate; the paper's flow must keep
///   running, just sequentially.
/// * `Some(non-numeric / negative / empty)` — falls back to auto-detect
///   with a diagnostic; garbage must never poison the budget.
/// * Values above [`MAX_THREADS`] are capped.
///
/// Never returns 0.
pub fn resolve_thread_budget(raw: Option<&str>) -> usize {
    let auto = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_THREADS)
    };
    match raw {
        None => auto(),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(0) => {
                debug_log("RRAM_FTT_THREADS=0 is not a valid worker budget; clamping to 1");
                1
            }
            Ok(n) if n > MAX_THREADS => {
                debug_log(&format!(
                    "RRAM_FTT_THREADS={n} exceeds MAX_THREADS; capping to {MAX_THREADS}"
                ));
                MAX_THREADS
            }
            Ok(n) => n,
            Err(_) => {
                debug_log(&format!(
                    "RRAM_FTT_THREADS={s:?} is not a number; using auto-detected parallelism"
                ));
                auto()
            }
        },
    }
}

/// One-line diagnostic for configuration clamps. Kept out of hot paths —
/// only ever called once per process from the `OnceLock` init (or from
/// tests exercising [`resolve_thread_budget`] directly).
fn debug_log(msg: &str) {
    eprintln!("[rram-ftt/par] {msg}");
}

/// Forces [`thread_count`] to `n` for this process (0 restores the
/// env/auto behaviour). Used by the benchmark and the thread-budget
/// byte-comparisons to sweep thread counts.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits `data` into contiguous chunks, one per worker, and runs
/// `f(chunk_start_index, chunk)` for each. `ops_per_item` estimates the
/// scalar operations one item costs; below the [`PAR_MIN_WORK`] gate this
/// is one call `f(0, data)` on the calling thread.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], ops_per_item: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fan_out(data, 1, ops_per_item, f);
}

/// Splits a row-major matrix buffer (`data.len() == rows * row_len`) into
/// contiguous blocks of *whole rows* and runs `f(first_row, block)` for
/// each block. Unlike [`for_each_chunk_mut`] this never splits a row across
/// workers, so per-row kernels (matmul output rows, per-sample passes) stay
/// contiguous. `ops_per_row` feeds the [`PAR_MIN_WORK`] gate.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn for_each_row_block_mut<T, F>(data: &mut [T], row_len: usize, ops_per_row: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert!(
        data.len().is_multiple_of(row_len),
        "buffer length {} is not a multiple of row_len {row_len}",
        data.len()
    );
    fan_out(data, row_len, ops_per_row, f);
}

/// Evaluates `f(i)` for every `i in 0..n` and returns the results in index
/// order. `f` must be independent across indices; `ops_per_item` feeds the
/// [`PAR_MIN_WORK`] gate.
pub fn map_indices<T, F>(n: usize, ops_per_item: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    fan_out(&mut out, 1, ops_per_item, |start, slots| {
        for (k, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(start + k));
        }
    });
    out.into_iter()
        .map(|v| {
            #[expect(
                clippy::expect_used,
                reason = "`fan_out` hands every slot of `out` to exactly one call of the \
                          closure above, which fills it; an empty slot is a bug in this module, \
                          not a caller-reachable state"
            )]
            v.expect("fan-out filled every slot")
        })
        .collect()
}

thread_local! {
    /// Set while this thread runs one chunk of a fan-out; helpers called
    /// from inside it run inline instead of fanning out again.
    static IN_FANOUT: Cell<bool> = const { Cell::new(false) };
}

/// Restores the nesting flag when a chunk finishes (or unwinds).
struct ChunkGuard(bool);

impl Drop for ChunkGuard {
    fn drop(&mut self) {
        IN_FANOUT.with(|c| c.set(self.0));
    }
}

/// Runs one chunk of a fan-out with nested fan-outs disabled.
fn run_chunk(job: impl FnOnce()) {
    let _guard = ChunkGuard(IN_FANOUT.with(|c| c.replace(true)));
    job();
}

/// How many workers `units` items of `ops_per_unit` each may use: no more
/// than the budget or the item count, and never so many that one gets less
/// than [`PAR_MIN_WORK`]. Always 1 inside a running fan-out.
fn workers_for(units: usize, ops_per_unit: usize) -> usize {
    if IN_FANOUT.with(Cell::get) {
        return 1;
    }
    let by_work = units.saturating_mul(ops_per_unit) / PAR_MIN_WORK;
    thread_count().min(units).min(by_work).max(1)
}

/// The one fork-join core behind every helper: splits `data` into
/// contiguous blocks of whole `unit`-element units, one block per worker,
/// and runs `f(first_unit, block)` for each. The calling thread runs the
/// first block itself and spawns one scoped thread per remaining block.
fn fan_out<T, F>(data: &mut [T], unit: usize, ops_per_unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let units = data.len() / unit;
    let workers = workers_for(units, ops_per_unit);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let per_block = units.div_ceil(workers);
    let mut blocks = data.chunks_mut(per_block * unit);
    let f = &f;
    std::thread::scope(|scope| {
        let first = blocks.next();
        for (bi, block) in blocks.enumerate() {
            let first_unit = (bi + 1) * per_block;
            scope.spawn(move || run_chunk(|| f(first_unit, block)));
        }
        if let Some(block) = first {
            run_chunk(|| f(0, block));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Serializes the tests that change the process-wide thread budget.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// Sequential, a small fan-out, and the cap: the budgets the
    /// byte-comparisons across the workspace run at.
    const BUDGETS: [usize; 3] = [1, 4, MAX_THREADS];

    fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_count(threads);
        let r = f();
        set_thread_count(0);
        r
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn budget_unset_auto_detects() {
        let n = resolve_thread_budget(None);
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn budget_zero_clamps_to_one() {
        assert_eq!(resolve_thread_budget(Some("0")), 1);
        assert_eq!(resolve_thread_budget(Some(" 0 ")), 1);
    }

    #[test]
    fn budget_garbage_falls_back_to_auto() {
        for garbage in ["", "  ", "abc", "-3", "1.5", "3.5", "0x10", "NaN", "١٦"] {
            let n = resolve_thread_budget(Some(garbage));
            assert!(n >= 1, "garbage {garbage:?} must yield a usable budget");
            assert!(n <= MAX_THREADS);
        }
    }

    #[test]
    fn budget_plain_numbers_pass_through() {
        assert_eq!(resolve_thread_budget(Some("1")), 1);
        assert_eq!(resolve_thread_budget(Some("64")), 64);
        assert_eq!(resolve_thread_budget(Some(" 8\n")), 8);
        assert_eq!(resolve_thread_budget(Some(" 8 ")), 8);
    }

    #[test]
    fn budget_huge_values_are_capped() {
        assert_eq!(resolve_thread_budget(Some("4000000")), MAX_THREADS);
        assert_eq!(
            resolve_thread_budget(Some("18446744073709551615")),
            MAX_THREADS
        );
    }

    #[test]
    fn set_thread_count_overrides_and_restores() {
        with_budget(3, || assert_eq!(thread_count(), 3));
        assert!(thread_count() >= 1);
    }

    #[test]
    fn chunks_cover_every_index_once() {
        for budget in BUDGETS {
            let mut data = vec![0u32; 1000];
            with_budget(budget, || {
                for_each_chunk_mut(&mut data, PAR_MIN_WORK, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v += (start + k) as u32 + 1;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1, "budget {budget}: index {i} visited once");
            }
        }
    }

    #[test]
    fn below_gate_fan_out_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = with_budget(4, || {
            // 4 items × (PAR_MIN_WORK / 4 - 1) ops: just under one worker's
            // worth, so the gate keeps everything on the caller.
            let mut ids: Vec<Option<ThreadId>> = vec![None; 4];
            for_each_chunk_mut(&mut ids, PAR_MIN_WORK / 4 - 1, |_, chunk| {
                for id in chunk {
                    *id = Some(thread::current().id());
                }
            });
            let mapped = map_indices(4, PAR_MIN_WORK / 4 - 1, |_| thread::current().id());
            (ids, mapped)
        });
        assert!(ids.0.iter().all(|&id| id == Some(caller)));
        assert!(ids.1.iter().all(|&id| id == caller));
    }

    #[test]
    fn enabled_fan_out_splits_work_and_the_caller_runs_the_first_chunk() {
        let caller = thread::current().id();
        let ids = with_budget(4, || {
            map_indices(8, PAR_MIN_WORK, |_| thread::current().id())
        });
        // 4 workers over 8 items: chunks of 2, the first on the caller.
        assert_eq!(ids[0], caller);
        assert_eq!(ids[1], caller);
        for w in 1..4 {
            assert_eq!(ids[2 * w], ids[2 * w + 1], "a chunk stays on one thread");
            assert_ne!(ids[2 * w], caller, "chunk {w} ran on a spawned worker");
        }
    }

    #[test]
    fn helpers_called_inside_a_worker_run_inline() {
        let nested = with_budget(4, || {
            map_indices(4, PAR_MIN_WORK, |_| {
                let me = thread::current().id();
                let inner = map_indices(64, PAR_MIN_WORK, |_| thread::current().id());
                let mut rows = vec![me; 64 * 4];
                for_each_row_block_mut(&mut rows, 4, PAR_MIN_WORK, |_, block| {
                    block.fill(thread::current().id());
                });
                (me, inner, rows)
            })
        });
        for (me, inner, rows) in nested {
            assert!(inner.iter().all(|&id| id == me), "nested map ran inline");
            assert!(
                rows.iter().all(|&id| id == me),
                "nested row blocks ran inline"
            );
        }
    }

    #[test]
    fn row_blocks_never_split_rows() {
        let row_len = 7;
        let rows = 131;
        for budget in BUDGETS {
            let mut data = vec![0usize; rows * row_len];
            with_budget(budget, || {
                for_each_row_block_mut(&mut data, row_len, PAR_MIN_WORK, |first_row, block| {
                    assert_eq!(block.len() % row_len, 0, "block must hold whole rows");
                    for (k, v) in block.iter_mut().enumerate() {
                        *v += (first_row * row_len + k) + 1;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i + 1, "budget {budget}: index {i} visited once");
            }
        }
    }

    #[test]
    fn map_indices_preserves_order() {
        for budget in BUDGETS {
            let squares = with_budget(budget, || map_indices(500, PAR_MIN_WORK, |i| i * i));
            assert_eq!(squares.len(), 500);
            for (i, s) in squares.iter().enumerate() {
                assert_eq!(*s, i * i, "budget {budget}");
            }
        }
        assert!(map_indices(0, PAR_MIN_WORK, |i| i).is_empty());
    }
}
