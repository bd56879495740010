//! F1-allowed file: the float compare here is suppressed by the `allow`
//! entry in lint.toml, which keeps that entry *live* (not stale).

/// Compares against a literal on purpose; allowed by config.
pub fn is_unit(x: f64) -> bool {
    x == 1.0
}
