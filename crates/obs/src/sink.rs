//! Event sinks: where the typed event stream goes.
//!
//! A [`Recorder`](crate::recorder::Recorder) fans every emitted
//! [`TimedEvent`] out to its attached sinks. Sinks are deliberately dumb:
//! they receive fully-stamped events in emission order and store or
//! serialize them. Two built-ins cover the workspace's needs:
//!
//! * [`RingSink`] — bounded in-memory buffer (most recent N events) for
//!   tests and post-mortem inspection;
//! * [`JsonlSink`] — append-only JSON-Lines text, one event per line, for
//!   export and the byte-identity trace checks.
//!
//! Both hand out `Arc`-shared views so callers can keep reading after the
//! sink has been moved into the recorder.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::TimedEvent;

/// A consumer of the event stream. Called from the emitting thread, in
/// emission order (the recorder serializes calls).
pub trait EventSink: Send {
    /// Receives one stamped event.
    fn record(&mut self, event: &TimedEvent);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&mut self) {}
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned sink buffer is still structurally valid; telemetry must
    // never take the process down.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bounded in-memory event buffer keeping the most recent `capacity`
/// events.
#[derive(Debug)]
pub struct RingSink {
    buf: Arc<Mutex<VecDeque<TimedEvent>>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` events (capacity 0 stores none).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(VecDeque::new())),
            capacity,
        }
    }

    /// A shared view that stays readable after the sink is attached.
    pub fn view(&self) -> RingView {
        RingView {
            buf: Arc::clone(&self.buf),
        }
    }
}

impl EventSink for RingSink {
    fn record(&mut self, event: &TimedEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut buf = lock_ignoring_poison(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Read handle to a [`RingSink`]'s buffer.
#[derive(Debug, Clone)]
pub struct RingView {
    buf: Arc<Mutex<VecDeque<TimedEvent>>>,
}

impl RingView {
    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        lock_ignoring_poison(&self.buf).iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.buf).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Append-only JSON-Lines sink: one [`TimedEvent::to_json`] object per
/// line, `\n`-terminated.
#[derive(Debug, Default)]
pub struct JsonlSink {
    text: Arc<Mutex<String>>,
}

impl JsonlSink {
    /// An empty JSONL sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared view that stays readable after the sink is attached.
    pub fn view(&self) -> JsonlView {
        JsonlView {
            text: Arc::clone(&self.text),
        }
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, event: &TimedEvent) {
        let mut text = lock_ignoring_poison(&self.text);
        text.push_str(&event.to_json());
        text.push('\n');
    }
}

/// Read handle to a [`JsonlSink`]'s accumulated text.
#[derive(Debug, Clone)]
pub struct JsonlView {
    text: Arc<Mutex<String>>,
}

impl JsonlView {
    /// The accumulated JSONL text (possibly empty).
    pub fn contents(&self) -> String {
        lock_ignoring_poison(&self.text).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LogicalTime};

    fn ev(seq: u64) -> TimedEvent {
        TimedEvent {
            at: LogicalTime {
                iteration: 1,
                write_pulses: 2,
                seq,
            },
            event: Event::WearFault {
                new_faults: 1,
                total_faults: 9,
            },
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut sink = RingSink::new(2);
        let view = sink.view();
        for s in 0..5 {
            sink.record(&ev(s));
        }
        let snap = view.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].at.seq, 3);
        assert_eq!(snap[1].at.seq, 4);
    }

    #[test]
    fn zero_capacity_ring_stores_nothing() {
        let mut sink = RingSink::new(0);
        let view = sink.view();
        sink.record(&ev(0));
        assert!(view.is_empty());
    }

    #[test]
    fn jsonl_appends_one_line_per_event() {
        let mut sink = JsonlSink::new();
        let view = sink.view();
        sink.record(&ev(0));
        sink.record(&ev(1));
        let text = view.contents();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"kind\":\"wear_fault\""));
        }
    }
}
