//! The clean crate: one *negative* (passing) case per check.
//!
//! P1: justified panic sites. D1: ordered collections, scoped threads.
//! F1: exact-zero compares, epsilon helpers, annotated casts.
//! S1: justified unsafe. O1: snake_case registry names.
//! W1: inherits workspace version/license and is mentioned in README.md.

use std::collections::BTreeMap;

/// P1 negative: a panic site with a justification, plus the
/// attr-then-comment convention.
pub fn head(xs: &[u8]) -> u8 {
    assert!(!xs.is_empty(), "contract: xs non-empty");
    #[allow(clippy::unwrap_used)]
    // PANIC-OK: emptiness is rejected by the assert above.
    *xs.first().unwrap()
}

/// D1 negative: deterministic collections and scoped threads only.
pub fn ordered(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
    let map: BTreeMap<usize, usize> = pairs.iter().copied().collect();
    std::thread::scope(|s| {
        s.spawn(|| map.len());
    });
    map
}

/// F1 negative: exact-zero compares are exempt; other comparisons go
/// through an epsilon; the narrowing cast carries its note.
pub fn sparsity(xs: &[f64]) -> f32 {
    let zeros = xs.iter().filter(|&&x| x == 0.0).count();
    let ratio = zeros as f64 / xs.len().max(1) as f64;
    let saturated = (ratio - 1.0).abs() < 1e-12;
    let _ = saturated;
    // CAST-OK: reporting precision only; the f64 master value is kept.
    ratio as f32
}

/// S1 negative: unsafe with its proof obligation written down.
pub fn first_byte(p: *const u8) -> u8 {
    // SAFETY: callers guarantee `p` is valid for reads of one byte.
    unsafe { *p }
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

#[cfg(test)]
mod tests {
    // P1 exemption: test code may unwrap freely.
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
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

/// O2 negative: emits the `Used` event kind defined in `bad`.
pub fn emit_used(sink: &mut Vec<Event>) {
    sink.push(Event::Used(1));
}

/// R1 negative root: the one panic site on the path carries its
/// justification (shared with P1's grammar).
pub fn resume() {
    restore_step();
}

fn restore_step() {
    let v: Option<u8> = Some(0);
    // PANIC-OK: seeded Some() two lines above.
    let _ = v.unwrap();
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
