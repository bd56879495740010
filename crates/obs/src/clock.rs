//! Pluggable time sources for span timing.
//!
//! Spans (and only spans) need a notion of *duration*; the event stream is
//! stamped with the [`crate::event::LogicalTime`] logical clock instead, so
//! it stays bit-identical across runs and thread counts. A [`Recorder`]
//! therefore carries a `Box<dyn Clock>`:
//!
//! * [`WallClock`] — monotonic wall time ([`std::time::Instant`]) for
//!   release binaries and benchmarks;
//! * [`LogicalClock`] — a deterministic tick counter for tests, so span
//!   histograms are reproducible byte-for-byte.
//!
//! [`Recorder`]: crate::recorder::Recorder

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "`WallClock` is the workspace's one sanctioned wall clock: it times spans, which \
              stay out of the event stream and every byte-identity proof"
)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// Implementations must be cheap (called twice per span) and monotonic per
/// clock instance; they need not be monotonic *across* instances.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds elapsed on this clock's own timeline.
    fn now_ns(&self) -> u64;
}

/// Monotonic wall time, anchored at clock construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock starting at zero now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // Saturating: an Instant elapsed of > 584 years is unrepresentable
        // anyway; `as u64` of the u128 is effectively exact.
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// A deterministic clock: every reading advances the timeline by a fixed
/// step, so two identical instrumented runs produce identical span
/// durations regardless of host speed.
#[derive(Debug)]
pub struct LogicalClock {
    ticks: AtomicU64,
    step: u64,
}

impl LogicalClock {
    /// A logical clock advancing `step` "nanoseconds" per reading.
    pub fn new(step: u64) -> Self {
        Self {
            ticks: AtomicU64::new(0),
            step,
        }
    }

    /// Manually advances the timeline (e.g. to model a long phase).
    pub fn advance(&self, ns: u64) {
        self.ticks.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Default for LogicalClock {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Clock for LogicalClock {
    fn now_ns(&self) -> u64 {
        self.ticks.fetch_add(self.step, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn logical_clock_is_deterministic() {
        let clock = LogicalClock::new(3);
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 3);
        clock.advance(100);
        assert_eq!(clock.now_ns(), 106);
    }
}
