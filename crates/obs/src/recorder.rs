//! The [`Recorder`]: the one handle instrumented code talks to.
//!
//! A recorder owns
//!
//! * the logical clock state ([`LogicalTime`] components: current
//!   iteration and cumulative write-pulse count, plus a monotonic
//!   sequence number),
//! * a [`Registry`] of counters / gauges / histograms,
//!   a [`Clock`] for span timing, and
//! * the attached [`EventSink`]s.
//!
//! It is `Clone` (an `Arc` around shared state), `Send + Sync`, and cheap
//! when idle: [`Recorder::emit`] with no sinks attached is a sequence
//! increment, one per-kind counter add, and one relaxed boolean load.
//!
//! # Determinism contract
//!
//! Events must only be emitted from the *sequential* spine of the flow
//! (the training loop, the detection phase driver). Worker threads may
//! update counters and histograms — those are commutative — but never
//! call `emit`; that is what keeps a seeded trace byte-identical at any
//! `RRAM_FTT_THREADS`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::{Clock, LogicalClock, WallClock};
use crate::event::{Event, EventKind, LogicalTime, TimedEvent};
use crate::metrics::{Counter, Gauge, Registry};
use crate::sink::EventSink;
use crate::span::SpanGuard;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    clock: Box<dyn Clock>,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    /// Fast-path mirror of `!sinks.is_empty()`.
    has_sinks: AtomicBool,
    iteration: AtomicU64,
    write_pulses: AtomicU64,
    seq: AtomicU64,
    /// Per-kind emission counts, indexed by `EventKind as usize`.
    kind_counts: [AtomicU64; EventKind::ALL.len()],
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("seq", &self.inner.seq.load(Ordering::Relaxed))
            .field("has_sinks", &self.inner.has_sinks.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::fmt::Debug for Box<dyn EventSink> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Box<dyn EventSink>")
    }
}

/// Shared telemetry handle: event emission, metrics, spans.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

/// A captured logical clock tail: everything a resumed run needs for its
/// next emitted event to carry the same stamp the uninterrupted run's
/// would have. `kind_counts` is indexed by `EventKind as usize` in
/// [`EventKind::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockState {
    /// Current training iteration.
    pub iteration: u64,
    /// Cumulative write-pulse count.
    pub write_pulses: u64,
    /// Next event's sequence number.
    pub seq: u64,
    /// Per-kind emission counts, one per [`EventKind::ALL`] entry.
    pub kind_counts: Vec<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder timing spans on monotonic wall time (release default).
    pub fn new() -> Self {
        Self::with_clock(Box::new(WallClock::new()))
    }

    /// A recorder timing spans on a deterministic logical clock (tests).
    pub fn deterministic() -> Self {
        Self::with_clock(Box::new(LogicalClock::default()))
    }

    /// A recorder with an explicit span clock.
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                clock,
                sinks: Mutex::new(Vec::new()),
                has_sinks: AtomicBool::new(false),
                iteration: AtomicU64::new(0),
                write_pulses: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                kind_counts: Default::default(),
            }),
        }
    }

    fn sinks(&self) -> MutexGuard<'_, Vec<Box<dyn EventSink>>> {
        // Poisoning only propagates an unrelated panic; the sink list is
        // always structurally valid.
        self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches a sink; it receives every event emitted from now on.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        let mut sinks = self.sinks();
        sinks.push(sink);
        self.inner.has_sinks.store(true, Ordering::Release);
    }

    /// Whether any sink is attached (events are being stored anywhere).
    pub fn has_sinks(&self) -> bool {
        self.inner.has_sinks.load(Ordering::Acquire)
    }

    /// Flushes all attached sinks.
    pub fn flush(&self) {
        for sink in self.sinks().iter_mut() {
            sink.flush();
        }
    }

    // ---- logical clock -------------------------------------------------

    /// Advances the logical clock to training iteration `iteration`.
    pub fn set_iteration(&self, iteration: u64) {
        self.inner.iteration.store(iteration, Ordering::Relaxed);
    }

    /// Advances the logical clock's cumulative write-pulse count.
    pub fn set_write_pulses(&self, pulses: u64) {
        self.inner.write_pulses.store(pulses, Ordering::Relaxed);
    }

    /// The current logical time (next event's stamp minus the sequence
    /// bump).
    pub fn now(&self) -> LogicalTime {
        LogicalTime {
            iteration: self.inner.iteration.load(Ordering::Relaxed),
            write_pulses: self.inner.write_pulses.load(Ordering::Relaxed),
            seq: self.inner.seq.load(Ordering::Relaxed),
        }
    }

    // ---- events --------------------------------------------------------

    /// Emits one event: stamps it with the current logical time, bumps
    /// the per-kind counter, and fans it out to the attached sinks.
    ///
    /// Must only be called from sequential code (see the module docs).
    pub fn emit(&self, event: Event) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let kind = event.kind();
        self.inner.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        if !self.has_sinks() {
            return;
        }
        let timed = TimedEvent {
            at: LogicalTime {
                iteration: self.inner.iteration.load(Ordering::Relaxed),
                write_pulses: self.inner.write_pulses.load(Ordering::Relaxed),
                seq,
            },
            event,
        };
        for sink in self.sinks().iter_mut() {
            sink.record(&timed);
        }
    }

    /// How many events of `kind` have been emitted.
    pub fn events_of_kind(&self, kind: EventKind) -> u64 {
        self.inner.kind_counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Total events emitted.
    pub fn events_total(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    // ---- checkpoint support --------------------------------------------

    /// Captures the logical clock tail (iteration, cumulative write
    /// pulses, sequence number, per-kind emission counts) so a resumed
    /// run can stamp its next event exactly where this one would have.
    pub fn export_clock_state(&self) -> ClockState {
        let mut kind_counts = Vec::with_capacity(EventKind::ALL.len());
        for slot in &self.inner.kind_counts {
            kind_counts.push(slot.load(Ordering::Relaxed));
        }
        ClockState {
            iteration: self.inner.iteration.load(Ordering::Relaxed),
            write_pulses: self.inner.write_pulses.load(Ordering::Relaxed),
            seq: self.inner.seq.load(Ordering::Relaxed),
            kind_counts,
        }
    }

    /// Restores a clock tail captured by [`Recorder::export_clock_state`].
    ///
    /// Rejects states whose per-kind count vector does not cover exactly
    /// the event kinds this build knows about, and states whose per-kind
    /// counts sum to more than `seq` (every emission bumps both).
    pub fn restore_clock_state(&self, state: &ClockState) -> Result<(), String> {
        if state.kind_counts.len() != EventKind::ALL.len() {
            return Err(format!(
                "clock state has {} kind counts, this build expects {}",
                state.kind_counts.len(),
                EventKind::ALL.len()
            ));
        }
        let total: u64 = state.kind_counts.iter().sum();
        if total > state.seq {
            return Err(format!(
                "clock state kind counts sum to {total} but seq is {}",
                state.seq
            ));
        }
        self.inner
            .iteration
            .store(state.iteration, Ordering::Relaxed);
        self.inner
            .write_pulses
            .store(state.write_pulses, Ordering::Relaxed);
        self.inner.seq.store(state.seq, Ordering::Relaxed);
        for (slot, &count) in self.inner.kind_counts.iter().zip(&state.kind_counts) {
            slot.store(count, Ordering::Relaxed);
        }
        Ok(())
    }

    // ---- metrics & spans ----------------------------------------------

    /// The recorder's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Shorthand: get-or-create a counter on the registry.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// Shorthand: get-or-create a labeled counter series on the registry.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter_labeled(name, labels)
    }

    /// Shorthand: get-or-create a gauge on the registry.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Shorthand: get-or-create a labeled gauge series on the registry.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge_labeled(name, labels)
    }

    /// Starts a timed span; its duration lands in the histogram
    /// `span_<name>_ns` when the guard drops. Nested spans concatenate
    /// names with `.` (see [`crate::span`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::enter(self.clone(), name)
    }

    pub(crate) fn clock_now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    // ---- rendering -----------------------------------------------------

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.inner.registry.render_prometheus()
    }

    /// A short human-readable run summary: per-kind event counts plus
    /// every counter and gauge (sorted), for end-of-run console output.
    pub fn render_summary(&self) -> String {
        let mut out = String::from("== telemetry summary ==\n");
        let _ = writeln!(out, "events: {} total", self.events_total());
        for kind in EventKind::ALL {
            let n = self.events_of_kind(kind);
            if n > 0 {
                let _ = writeln!(out, "  {:<26} {n}", kind.as_str());
            }
        }
        let reg = self.registry();
        for name in reg.names() {
            if let Some(v) = reg.counter_value(&name) {
                let _ = writeln!(out, "{name} = {v}");
            } else if let Some(v) = reg.gauge_value(&name) {
                let _ = writeln!(out, "{name} = {v}");
            } else if let Some(h) = reg.histogram_handle(&name) {
                let _ = writeln!(out, "{name}: count={} mean={:.1}ns", h.count(), h.mean());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, RingSink};

    #[test]
    fn emit_stamps_logical_time_and_counts_kinds() {
        let rec = Recorder::deterministic();
        let ring = RingSink::new(16);
        let view = ring.view();
        rec.add_sink(Box::new(ring));

        rec.set_iteration(3);
        rec.set_write_pulses(42);
        rec.emit(Event::DetectionCampaignStart { campaign: 1 });
        rec.set_iteration(4);
        rec.emit(Event::RemapApplied {
            initial_cost: 9,
            final_cost: 2,
        });

        let events = view.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].at,
            LogicalTime {
                iteration: 3,
                write_pulses: 42,
                seq: 0
            }
        );
        assert_eq!(events[1].at.iteration, 4);
        assert_eq!(events[1].at.seq, 1);
        assert_eq!(rec.events_of_kind(EventKind::DetectionCampaignStart), 1);
        assert_eq!(rec.events_of_kind(EventKind::RemapApplied), 1);
        assert_eq!(rec.events_of_kind(EventKind::WearFault), 0);
        assert_eq!(rec.events_total(), 2);
    }

    #[test]
    fn no_sink_emission_still_counts() {
        let rec = Recorder::deterministic();
        assert!(!rec.has_sinks());
        rec.emit(Event::WearFault {
            new_faults: 1,
            total_faults: 1,
        });
        assert_eq!(rec.events_total(), 1);
        assert_eq!(rec.events_of_kind(EventKind::WearFault), 1);
    }

    #[test]
    fn sinks_receive_events_in_emission_order() {
        let rec = Recorder::deterministic();
        let jsonl = JsonlSink::new();
        let view = jsonl.view();
        rec.add_sink(Box::new(jsonl));
        for campaign in 1..=3 {
            rec.emit(Event::DetectionCampaignStart { campaign });
        }
        let text = view.contents();
        let seqs: Vec<&str> = text.lines().collect();
        assert_eq!(seqs.len(), 3);
        assert!(seqs[0].contains("\"seq\":0"));
        assert!(seqs[2].contains("\"seq\":2"));
    }

    #[test]
    fn clock_state_roundtrip_resumes_stamps_exactly() {
        let rec = Recorder::deterministic();
        rec.set_iteration(7);
        rec.set_write_pulses(190);
        rec.emit(Event::DetectionCampaignStart { campaign: 1 });
        rec.emit(Event::WearFault {
            new_faults: 2,
            total_faults: 2,
        });
        let state = rec.export_clock_state();

        let fresh = Recorder::deterministic();
        fresh.restore_clock_state(&state).unwrap();
        assert_eq!(fresh.export_clock_state(), state);

        // The next event on both recorders carries the same stamp.
        let (a, b) = (RingSink::new(4), RingSink::new(4));
        let (va, vb) = (a.view(), b.view());
        rec.add_sink(Box::new(a));
        fresh.add_sink(Box::new(b));
        rec.emit(Event::DetectionCampaignStart { campaign: 2 });
        fresh.emit(Event::DetectionCampaignStart { campaign: 2 });
        assert_eq!(va.snapshot()[0].at, vb.snapshot()[0].at);
        assert_eq!(
            fresh.events_of_kind(EventKind::DetectionCampaignStart),
            rec.events_of_kind(EventKind::DetectionCampaignStart)
        );
    }

    #[test]
    fn clock_state_restore_rejects_incoherent_states() {
        let rec = Recorder::deterministic();
        rec.emit(Event::DetectionCampaignStart { campaign: 1 });
        let good = rec.export_clock_state();

        let mut short = good.clone();
        short.kind_counts.pop();
        assert!(Recorder::deterministic()
            .restore_clock_state(&short)
            .is_err());

        let mut inflated = good.clone();
        inflated.kind_counts[0] += 10;
        assert!(Recorder::deterministic()
            .restore_clock_state(&inflated)
            .is_err());
    }

    #[test]
    fn summary_mentions_emitted_kinds_and_metrics() {
        let rec = Recorder::deterministic();
        rec.counter("flow_writes_issued_total").add(17);
        rec.emit(Event::DetectionCampaignStart { campaign: 1 });
        let summary = rec.render_summary();
        assert!(summary.contains("detection_campaign_start"));
        assert!(summary.contains("flow_writes_issued_total = 17"));
    }
}
