//! Fixed-memory per-process flight recorder.
//!
//! A bounded ring of recent [`Span`]s: recording is a cheap atomic check when
//! tracing is off, one short mutex hold when on, and memory never grows past
//! the configured capacity — the recorder evicts the oldest span and counts
//! the drop instead. `QueryTrace` serves straight from here.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::ring::CursorRing;
use crate::trace::Span;

/// Default ring capacity: ~64k spans ≈ a few minutes of heavy load, a few
/// MiB of memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Environment variable that arms the process-global recorder (any value but
/// empty or `0`).
pub const TRACE_ENV: &str = "NINF_TRACE";

/// Bounded, drop-counting span sink shared by every thread of a process.
pub struct FlightRecorder {
    enabled: AtomicBool,
    /// Evictions only — [`FlightRecorder::clear`] is not a drop — and
    /// readable without the ring lock.
    dropped: AtomicU64,
    ring: Mutex<CursorRing<Span>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// New recorder holding at most `capacity` spans; starts disabled.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(CursorRing::new(capacity)),
        }
    }

    /// New enabled recorder (tests, sim runs).
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        let r = Self::new(capacity);
        r.set_enabled(true);
        r
    }

    /// Whether spans are currently being kept.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arm or disarm the recorder.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Store a span; silently evicts (and counts) the oldest when full.
    /// A no-op when disabled.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        if self.ring.lock().push(span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans for one trace, or all retained spans when `trace_id == 0`.
    pub fn snapshot(&self, trace_id: u64) -> Vec<Span> {
        let ring = self.ring.lock();
        ring.since(0)
            .filter(|s| trace_id == 0 || s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// How many spans were evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained spans (keeps the drop counter).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

/// The process-global recorder, armed at first use iff [`TRACE_ENV`] is set
/// to a non-empty value other than `0`. Components that lack an explicitly
/// injected recorder record here.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let r = FlightRecorder::new(DEFAULT_CAPACITY);
        let armed = std::env::var(TRACE_ENV).map(|v| !v.is_empty() && v != "0");
        r.set_enabled(armed.unwrap_or(false));
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, TraceContext};

    fn span(trace_id: u64, span_id: u64) -> Span {
        Span {
            trace_id,
            span_id,
            parent_span_id: 0,
            name: "x".into(),
            process: "test".into(),
            start_us: 1,
            dur_us: 1,
            detail: String::new(),
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = FlightRecorder::new(8);
        r.record(span(1, 1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = FlightRecorder::enabled_with_capacity(4);
        for i in 0..10 {
            r.record(span(1, i + 1));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        // Oldest evicted: the survivors are the last four.
        let ids: Vec<u64> = r.snapshot(0).iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn snapshot_filters_by_trace() {
        let r = FlightRecorder::enabled_with_capacity(16);
        r.record(span(1, 10));
        r.record(span(2, 20));
        r.record(span(1, 11));
        assert_eq!(r.snapshot(1).len(), 2);
        assert_eq!(r.snapshot(2).len(), 1);
        assert_eq!(r.snapshot(0).len(), 3);
        assert_eq!(r.snapshot(99).len(), 0);
    }

    #[test]
    fn clear_empties_the_ring() {
        let r = FlightRecorder::enabled_with_capacity(4);
        r.record(Span::at(TraceContext::root(), "a", "p", 0));
        assert_eq!(r.len(), 1);
        r.clear();
        assert!(r.is_empty());
    }
}
