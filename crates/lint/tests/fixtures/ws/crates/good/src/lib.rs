//! The clean crate: one *negative* (passing) case per check.
//!
//! F1: exact-zero compares, epsilon helpers. O1: snake_case registry
//! names. W1: inherits workspace version/license and is mentioned in
//! README.md.

/// F1 negative: exact-zero compares are exempt; other comparisons go
/// through an epsilon.
pub fn sparsity(xs: &[f64]) -> f64 {
    let zeros = xs.iter().filter(|&&x| x == 0.0).count();
    let ratio = zeros as f64 / xs.len().max(1) as f64;
    let saturated = (ratio - 1.0).abs() < 1e-12;
    let _ = saturated;
    ratio
}

/// O1 negative: registry names in the snake_case grammar.
pub fn register(r: &dyn Registrar) {
    r.counter("good_events_total");
    r.span("good_phase");
}

/// Minimal registrar shape so the fixture stays self-contained.
pub trait Registrar {
    /// Register a counter.
    fn counter(&self, name: &str);
    /// Register a labeled counter.
    fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]);
    /// Open a span.
    fn span(&self, name: &str);
}

/// C1 negative: the closure touches only its parameter and locals, and
/// the RNG seed mixes in the per-index salt.
pub fn deterministic_map(n: usize, seed: u64) -> Vec<u64> {
    par::map_indices(n, 1, |i| {
        let mut acc = 0u64;
        acc += i as u64;
        let _rng = sim_rng(seed.wrapping_add(i as u64));
        acc
    })
}

/// O2 negative: emits the `Used` event kind defined in `obs`.
pub fn emit_used(sink: &mut Vec<Event>) {
    sink.push(Event::Used(1));
}

/// E2 negative: the producer's caller feeds the FlowStats ledger.
pub fn detect_ok() -> DetectionOutcome {
    DetectionOutcome
}

/// E2 sink-side caller.
pub fn absorb(stats: &mut FlowStats) {
    stats.record(detect_ok());
}

/// O1 negative: labeled constructor with grammatical label keys.
pub fn register_labeled(r: &dyn Registrar) {
    r.counter_labeled("good_requests_total", &[("tenant_id", "t0")]);
}
