//! Deterministic adversarial-configuration harness.
//!
//! The paper's entire pitch is surviving hardware that misbehaves; this
//! crate makes sure the *software* survives configurations that misbehave.
//! [`run_all`] drives the closed-loop flow (threshold training →
//! quiescent-voltage detection → prune + re-map) through degenerate and
//! hostile setups — test sizes that do not divide the array, all-faulty
//! arrays, mod-16 ADC aliasing, NaN/zero gradient iterations, 1×N / N×1
//! geometries, 0 %/100 % pruning, and every thread budget from garbage to
//! 0 to beyond the cap — and asserts three invariants throughout:
//!
//! 1. **No panics.** Every case runs under `catch_unwind`; a panic is a
//!    harness failure, not a crash.
//! 2. **Bit-identical results across thread counts.** The parallel merges
//!    in `par` are index-ordered by construction; the harness re-runs the
//!    same seeded flow under several worker budgets and compares curves
//!    and statistics exactly.
//! 3. **Plane/scalar coherence.** The SoA conductance planes the batched
//!    kernels read must match the per-cell scalar state after every kind
//!    of mutation (writes, pulses, nudges, fault injection, detection).
//!
//! Everything is seeded: the same `seed` argument produces the same
//! [`ChaosReport`] on every run, so a failure reproduces from its name
//! alone. The harness is wired as `just chaos` and kept under the 60 s
//! budget by sizing the training flows small.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod families;

/// Outcome of one adversarial case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Unique case name (`family/case`), sufficient to reproduce the run.
    pub name: String,
    /// Whether the case held all its invariants.
    pub passed: bool,
    /// Failure detail (assertion message or panic payload); empty on pass.
    pub detail: String,
}

/// Outcome of one scenario family.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// Family name.
    pub family: &'static str,
    /// Per-case outcomes, in deterministic execution order.
    pub cases: Vec<CaseResult>,
}

impl FamilyReport {
    /// Creates an empty report for `family`.
    pub fn new(family: &'static str) -> Self {
        Self {
            family,
            cases: Vec::new(),
        }
    }

    /// Runs one case under `catch_unwind`, recording a panic as a failure
    /// instead of crashing the harness.
    pub fn case<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce() -> Result<(), String>,
    {
        let full = format!("{}/{}", self.family, name);
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let (passed, detail) = match outcome {
            Ok(Ok(())) => (true, String::new()),
            Ok(Err(msg)) => (false, msg),
            Err(payload) => (false, format!("panicked: {}", panic_message(&payload))),
        };
        self.cases.push(CaseResult {
            name: full,
            passed,
            detail,
        });
    }

    /// Whether every case passed.
    pub fn all_passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed)
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of a full harness run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run was driven from.
    pub seed: u64,
    /// Per-family reports, in deterministic order.
    pub families: Vec<FamilyReport>,
}

impl ChaosReport {
    /// Whether every case in every family passed.
    pub fn all_passed(&self) -> bool {
        self.families.iter().all(|f| f.all_passed())
    }

    /// Total number of cases run.
    pub fn case_count(&self) -> usize {
        self.families.iter().map(|f| f.cases.len()).sum()
    }

    /// The failing cases, if any.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.families
            .iter()
            .flat_map(|f| f.cases.iter())
            .filter(|c| !c.passed)
            .collect()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos harness · seed {:#x} · {} families · {} cases",
            self.seed,
            self.families.len(),
            self.case_count()
        )?;
        for fam in &self.families {
            let failed = fam.cases.iter().filter(|c| !c.passed).count();
            let status = if failed == 0 { "ok" } else { "FAILED" };
            writeln!(
                f,
                "  {:<28} {:>3} cases .. {}",
                fam.family,
                fam.cases.len(),
                status
            )?;
            for c in fam.cases.iter().filter(|c| !c.passed) {
                writeln!(f, "    ✗ {}: {}", c.name, c.detail)?;
            }
        }
        Ok(())
    }
}

/// Runs every scenario family from a fixed seed.
///
/// Families run sequentially (the thread-budget family mutates the
/// process-global worker override, so the harness never interleaves
/// families), and each family derives its own sub-seed from `seed` so that
/// adding a family never perturbs the others.
pub fn run_all(seed: u64) -> ChaosReport {
    // Serialize whole-harness runs: the thread-budget family mutates the
    // process-global worker override and the harness swaps the panic hook,
    // so two concurrent `run_all`s (e.g. parallel `#[test]`s) would race.
    static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Panics are expected *data* here (a failing case), not crashes: keep
    // the default hook from spraying backtraces over the report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let families = vec![
        families::detector_group_remainders(seed ^ 0x01),
        families::mod16_aliasing(seed ^ 0x02),
        families::all_faulty_extremes(seed ^ 0x03),
        families::degenerate_gradients(seed ^ 0x04),
        families::extreme_geometry(seed ^ 0x05),
        families::prune_rate_extremes(seed ^ 0x06),
        families::config_rejection(seed ^ 0x07),
        families::plane_coherence(seed ^ 0x08),
        families::thread_budget(seed ^ 0x09),
        families::obs_stream(seed ^ 0x0a),
        families::tiling(seed ^ 0x0b),
        families::kernels(seed ^ 0x0c),
        families::restore(seed ^ 0x0d),
        families::serve(seed ^ 0x0e),
        families::arena(seed ^ 0x10),
    ];
    std::panic::set_hook(prev_hook);
    ChaosReport { seed, families }
}

/// Convenience: fail with a formatted message unless `cond` holds.
pub(crate) fn ensure(cond: bool, msg: impl Into<String>) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_runner_captures_panics_and_errors() {
        let mut fam = FamilyReport::new("meta");
        fam.case("passes", || Ok(()));
        fam.case("fails", || Err("boom".into()));
        fam.case("panics", || panic!("kaput"));
        assert!(!fam.all_passed());
        assert!(fam.cases[0].passed);
        assert_eq!(fam.cases[1].detail, "boom");
        assert!(fam.cases[2].detail.contains("kaput"));
    }

    #[test]
    fn report_formats_and_counts() {
        let mut fam = FamilyReport::new("meta");
        fam.case("fails", || Err("boom".into()));
        let report = ChaosReport {
            seed: 7,
            families: vec![fam],
        };
        assert_eq!(report.case_count(), 1);
        assert_eq!(report.failures().len(), 1);
        let s = report.to_string();
        assert!(s.contains("FAILED") && s.contains("boom"));
    }
}
