//! # obs — structured telemetry for the rram-ftt closed loop
//!
//! Zero-dependency observability: typed events on a logical clock, a
//! metrics registry (counters / gauges / fixed-bucket histograms),
//! lightweight hierarchical spans, and pluggable sinks. Every runtime
//! crate in the workspace links against `obs`, so it sits at the bottom
//! of the dependency graph and builds from `std` alone.
//!
//! ## The three planes
//!
//! | plane   | carrier                  | determinism                        |
//! |---------|--------------------------|------------------------------------|
//! | events  | [`Event`] → sinks        | byte-identical at any thread count |
//! | metrics | [`Registry`] atomics     | value-identical (commutative ops)  |
//! | spans   | [`SpanGuard`] histograms | wall time; logical clock in tests  |
//!
//! **Events** are emitted only from the sequential spine of the flow and
//! are stamped with a [`LogicalTime`] (iteration, cumulative write
//! pulses, sequence number) — never wall time — so a seeded run writes a
//! byte-identical JSONL trace at any `RRAM_FTT_THREADS`. **Metrics** may
//! be updated from worker threads because counter adds commute.
//! **Spans** measure real durations and therefore live only in
//! histograms, never in the event stream.
//!
//! ## Getting a trace
//!
//! ```
//! use obs::{Event, JsonlSink, Recorder};
//!
//! let recorder = Recorder::deterministic();
//! let sink = JsonlSink::new();
//! let view = sink.view();
//! recorder.add_sink(Box::new(sink));
//!
//! recorder.set_iteration(1);
//! recorder.emit(Event::DetectionCampaignStart { campaign: 1 });
//!
//! assert!(view.contents().contains("\"kind\":\"detection_campaign_start\""));
//! ```
//!
//! ## The global recorder
//!
//! Code that has no natural place to thread a [`Recorder`] through (the
//! `par` helpers) uses the process-wide [`global()`] recorder, gated by
//! [`enabled()`] — a single relaxed atomic load that defaults to `false`
//! so un-instrumented hot loops pay (nearly) nothing. Flows that *do*
//! have a recorder parameter should take one explicitly; the global is
//! the fallback, not the front door.

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;

pub use clock::{Clock, LogicalClock, WallClock};
pub use event::{Confusion, Event, EventKind, LogicalTime, TimedEvent, WritePhase};
pub use json::JsonObject;
pub use metrics::{Counter, Gauge, Histogram, Registry, DURATION_BOUNDS_NS};
pub use recorder::{ClockState, Recorder};
pub use sink::{EventSink, JsonlSink, JsonlView, RingSink, RingView};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether *global* (implicitly-wired) instrumentation is on.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global instrumentation on or off. Off by default so hot loops
/// that consult [`enabled()`] pay only a relaxed load.
pub fn set_enabled(on: bool) {
    GLOBAL_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global instrumentation is on (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// The process-wide recorder, created on first use (wall-clock spans).
///
/// Used by code with no recorder parameter of its own (e.g. the `par`
/// worker-span instrumentation). Explicitly-wired recorders are
/// preferred wherever a parameter can be threaded.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_toggle_defaults_off() {
        // Note: other tests must not rely on the flag staying off; this
        // test restores the default it observes.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn global_recorder_is_a_singleton() {
        let a = global();
        a.counter("obs_selftest_total").inc();
        let b = global();
        assert_eq!(b.registry().counter_value("obs_selftest_total"), Some(1));
    }
}
