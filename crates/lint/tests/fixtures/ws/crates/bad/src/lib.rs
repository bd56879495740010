//! The violation crate: one *positive* (failing) case per check.

/// F1: equality against a non-zero float literal, and a NaN compare.
pub fn f1_eq(x: f64) -> bool {
    x == 1.0 || x != f64::NAN
}

/// O1: registry name violating the snake_case grammar.
pub fn o1_name(r: &dyn Registrar) {
    r.counter("Bad-Name__total");
}

/// Minimal registrar shape so the fixture stays self-contained.
pub trait Registrar {
    /// Register a counter.
    fn counter(&self, name: &str);
    /// Register a labeled counter.
    fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]);
}

/// C1: the closure crossing the `par` boundary builds an RNG with no
/// per-index salt.
pub fn c1_racy(n: usize, seed: u64) -> Vec<usize> {
    par::map_indices(n, 1, |i| {
        let _rng = sim_rng(seed);
        i
    })
}

/// E2: the outcome's cost never reaches a FlowStats sink.
pub struct DetectionOutcome;

/// E2 producer.
pub fn e2_detect() -> DetectionOutcome {
    DetectionOutcome
}

/// E2: a caller exists (so the producer is not a library leaf) but it
/// never feeds the accounting.
pub fn e2_driver() {
    let _ = e2_detect();
}

/// O1: labeled-constructor label key violating the grammar.
pub fn o1_label(r: &dyn Registrar) {
    r.counter_labeled("o1_labeled_total", &[("Bad Key", "any value")]);
}
