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
//! ## No global recorder
//!
//! There is no process-wide recorder and no global on/off switch. Every
//! [`Recorder`] is created by its owner and passed explicitly to the code
//! it instruments; code with no recorder parameter records nothing.

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
