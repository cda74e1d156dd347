//! A bounded, lossy-by-design ring buffer of structured spans.
//!
//! Hot threads call [`Tracer::record`] (or hold a [`SpanGuard`]); the
//! write path `try_lock`s the ring and, when another thread holds it,
//! **drops the event and counts the drop** instead of ever blocking —
//! a tracer must never turn into a lock the reactor or an apply worker
//! can stall on. The ring keeps the most recent `capacity` events;
//! older ones fall off the front. `GET /trace` serializes a snapshot
//! as JSON.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the tracer was created (process start for
    /// the global tracer).
    pub ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Static span name (layer/operation, e.g. `"apply:/deposits"`).
    pub name: &'static str,
    /// Free-form numeric payload (sequence number, count, bytes — the
    /// span name decides).
    pub detail: u64,
}

/// The default global ring capacity.
pub const DEFAULT_CAPACITY: usize = 1024;

/// A bounded span ring.
pub struct Tracer {
    start: Instant,
    ring: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

/// The process-global tracer (capacity [`DEFAULT_CAPACITY`]).
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::with_capacity(DEFAULT_CAPACITY))
}

impl Tracer {
    /// A tracer keeping the most recent `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            start: Instant::now(),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Microseconds since the tracer started.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Record a completed span. Never blocks: a contended ring drops
    /// the event and bumps the drop counter.
    pub fn record(&self, name: &'static str, dur_us: u64, detail: u64) {
        let event = TraceEvent {
            ts_us: self.now_us(),
            dur_us,
            name,
            detail,
        };
        match self.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                }
                ring.push_back(event);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Open a span that records itself (with the elapsed time) when the
    /// guard drops.
    pub fn span(&self, name: &'static str, detail: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            name,
            detail,
            started: Instant::now(),
        }
    }

    /// Events dropped because the ring was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the current ring, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            // dmp-lint: allow(lock-reactor-inline) -- bounded hold: writers only try_lock (lossy), so this copy-out never waits behind a long writer
            .lock()
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The ring plus drop counter as a JSON document (the `/trace`
    /// response body). Span names are static identifiers without
    /// quotes or control characters, so no escaping is needed.
    pub fn to_json(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(events.len() * 64 + 64);
        out.push_str(&format!("{{\"dropped\":{},\"spans\":[", self.dropped()));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ts_us\":{},\"dur_us\":{},\"detail\":{}}}",
                e.name, e.ts_us, e.dur_us, e.detail
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Records a span on drop (see [`Tracer::span`]).
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    detail: u64,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.tracer.record(self.name, dur_us, self.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.record("e", i, i);
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 4);
        let details: Vec<u64> = events.iter().map(|e| e.detail).collect();
        assert_eq!(details, [6, 7, 8, 9], "oldest events fall off the front");
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = Tracer::with_capacity(8);
        {
            let _span = t.span("work", 42);
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].detail, 42);
    }

    #[test]
    fn json_form_is_parseable_shape() {
        let t = Tracer::with_capacity(2);
        t.record("a", 5, 1);
        let json = t.to_json();
        assert!(json.starts_with("{\"dropped\":0,\"spans\":["), "{json}");
        assert!(json.contains("\"name\":\"a\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn contended_ring_drops_not_blocks() {
        let t = Tracer::with_capacity(8);
        // dmp-lint: allow(lock-reactor-inline) -- the test holds the ring on purpose, to contend the writer
        let guard = t.ring.lock().unwrap();
        t.record("dropped", 1, 1);
        drop(guard);
        assert_eq!(t.dropped(), 1);
        assert!(t.snapshot().is_empty());
    }
}
