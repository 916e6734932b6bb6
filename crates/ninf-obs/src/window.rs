//! Time-series telemetry: fixed-interval window snapshots of a metrics
//! registry, kept in a bounded drop-counting ring.
//!
//! Cumulative counters answer "how many ever" — useless for locating the
//! knee where a server stops keeping up, because the collapse is visible
//! only in the *rate* around the transition. A window frame captures every
//! registered metric's delta (counters, histograms) or instantaneous value
//! (gauges) over one interval, so queue depth, in-flight calls, and cache
//! hits become per-second series a sweep controller can align across
//! processes.
//!
//! Capture is sampling-based: a caller (the `MetricsRegistry` sampler
//! thread, or a test) closes windows explicitly; the hot-path metric
//! handles are untouched, so a disarmed registry pays nothing — not even a
//! branch. Frames live in the stack's one [`CursorRing`]: a monotone global
//! window index survives eviction, stale cursors clamp to the oldest
//! retained frame, and the pair `(total, dropped)` lets a poller prove
//! exactly-once delivery of every window it was fast enough to see.

use std::time::Instant;

use crate::ring::CursorRing;

/// Default ring capacity: ~8.5 minutes of 1 s windows.
pub const DEFAULT_WINDOW_CAPACITY: usize = 512;

/// What kind of metric a [`MetricSample`] came from (fixes the
/// interpretation of its `value`/`count` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `value` = `count` = increase within the window.
    Counter,
    /// `value` = instantaneous reading at window close; `count` = 0.
    Gauge,
    /// `value` = sum of seconds recorded within the window; `count` =
    /// samples recorded within the window (mean = value / count).
    Histogram,
}

/// One metric's contribution to one window.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Registered metric name (`ninf_server_calls_total`, ...).
    pub name: String,
    /// How to read `value`/`count`.
    pub kind: MetricKind,
    /// See [`MetricKind`].
    pub value: f64,
    /// See [`MetricKind`].
    pub count: u64,
}

/// One closed window: every registered metric's sample over one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFrame {
    /// Global monotone window index — never reused, survives eviction.
    pub window: u64,
    /// Seconds since the registry armed windows, at window close.
    pub t: f64,
    /// One sample per registered metric, in registration order.
    pub samples: Vec<MetricSample>,
}

/// An incremental drain of the window ring — the in-process shape of the
/// `MetricsReply` wire message.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowsSnapshot {
    /// Window clock (seconds since arm) when the snapshot was built; with
    /// the poller's own send/receive timestamps this yields the clock-skew
    /// offset that maps frame times onto the poller's epoch.
    pub now: f64,
    /// Configured window interval in seconds; 0 means the registry is
    /// disarmed and the snapshot is necessarily empty.
    pub interval: f64,
    /// Windows ever closed (frames occupy indices `total - len .. total`).
    pub total: u64,
    /// Windows evicted from the ring to stay within capacity.
    pub dropped: u64,
    /// Retained frames from the cursor onward, oldest first.
    pub frames: Vec<MetricFrame>,
}

impl WindowsSnapshot {
    /// The empty snapshot a disarmed registry answers with.
    pub fn disarmed() -> Self {
        Self {
            now: 0.0,
            interval: 0.0,
            total: 0,
            dropped: 0,
            frames: Vec::new(),
        }
    }
}

/// Per-metric cumulative values at the previous window close, so the next
/// capture can emit deltas.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrevCumulative {
    pub(crate) count: u64,
    pub(crate) sum: f64,
}

/// Armed window state of one registry: the ring plus the delta baseline.
#[derive(Debug)]
pub(crate) struct WindowState {
    /// Clock zero for `t`/`now`.
    pub(crate) epoch: Instant,
    /// Configured interval, seconds (informational — capture cadence is the
    /// caller's).
    pub(crate) interval: f64,
    frames: CursorRing<MetricFrame>,
    /// Previous cumulative value per metric name.
    pub(crate) prev: std::collections::HashMap<String, PrevCumulative>,
}

impl WindowState {
    pub(crate) fn new(interval: f64, cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            interval,
            frames: CursorRing::new(cap),
            prev: std::collections::HashMap::new(),
        }
    }

    /// Append a closed window, stamped with its global index.
    pub(crate) fn push(&mut self, t: f64, samples: Vec<MetricSample>) {
        let window = self.frames.total();
        self.frames.push(MetricFrame { window, t, samples });
    }

    /// Retained frames from global window index `since` onward.
    pub(crate) fn snapshot_since(&self, since: u64) -> WindowsSnapshot {
        WindowsSnapshot {
            now: self.epoch.elapsed().as_secs_f64(),
            interval: self.interval,
            total: self.frames.total(),
            dropped: self.frames.evicted(),
            frames: self.frames.since(since).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_indices(s: &WindowsSnapshot) -> Vec<u64> {
        s.frames.iter().map(|f| f.window).collect()
    }

    /// The ring's exactly-once property is `CursorRing`'s test; what is
    /// the window's own is that each frame carries its global index and
    /// the snapshot reports `(total, dropped)` beside the frames.
    #[test]
    fn ring_evicts_but_indices_stay_global() {
        let mut w = WindowState::new(1.0, 4);
        for i in 0..10 {
            w.push(i as f64, Vec::new());
        }
        let s = w.snapshot_since(0);
        assert_eq!(s.total, 10);
        assert_eq!(s.dropped, 6);
        assert_eq!(frame_indices(&s), vec![6, 7, 8, 9]);
        // A stale cursor gets the same frames and the same accounting.
        assert_eq!(w.snapshot_since(2).frames, s.frames);
        assert!(w.snapshot_since(99).frames.is_empty());
    }
}
