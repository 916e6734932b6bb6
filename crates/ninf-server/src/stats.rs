//! Per-call measurement records: the timestamps and derived metrics of §4.1.
//!
//! "for each client Ninf_call task, we measured the throughput and various
//! timings: time of task submission T_submit, time when the Ninf_call task
//! was accepted at the server T_enqueue, time when the corresponding Ninf
//! executable was invoked T_dequeue, and the time at which Ninf_call was
//! completed T_complete." — with `T_response = T_enqueue − T_submit` and
//! `T_wait = T_dequeue − T_enqueue`.
//!
//! A record is a [`CallStat`], the type a `QueryStats` reply carries, so the
//! server keeps exactly what it ships. Its derived times
//! (`response`/`wait`/`service`/`total`) are `CallStat`'s own methods.

use std::time::Instant;

use parking_lot::Mutex;

use ninf_obs::CursorRing;
use ninf_protocol::CallStat;

/// Default cap on retained records. A long-lived server keeps a bounded
/// window of recent history instead of growing without limit; the ring's
/// monotone record index keeps incremental stats queries correct across
/// eviction.
pub const DEFAULT_RECORD_CAPACITY: usize = 65_536;

/// Shared, thread-safe statistics sink of a live server, and the server's
/// one clock: every record timestamp is seconds since the sink was made.
#[derive(Debug)]
pub struct ServerStats {
    start: Instant,
    /// `start` on the span timeline ([`ninf_obs::now_us`], epoch µs).
    start_us: u64,
    records: Mutex<CursorRing<CallStat>>,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// New sink; the clock starts now.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RECORD_CAPACITY)
    }

    /// New sink retaining at most `capacity` recent records.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            start: Instant::now(),
            start_us: ninf_obs::now_us(),
            records: Mutex::new(CursorRing::new(capacity)),
        }
    }

    /// Seconds since server start.
    pub fn now(&self) -> f64 {
        self.secs(Instant::now())
    }

    /// `t` as seconds since server start, the unit of every record field.
    pub fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    /// `t` on the span timeline. Spans and records read the same instant,
    /// so a span's length is its record interval to the microsecond; the
    /// monotonic clock is anchored to the epoch once, at server start.
    pub fn span_us(&self, t: Instant) -> u64 {
        self.start_us + t.saturating_duration_since(self.start).as_micros() as u64
    }

    /// Store a completed call's record (evicting the oldest retained record
    /// once the ring is full).
    pub fn record(&self, stat: CallStat) {
        self.records.lock().push(stat);
    }

    /// Copy of all *retained* records (the most recent window).
    pub fn snapshot(&self) -> Vec<CallStat> {
        self.records.lock().since(0).cloned().collect()
    }

    /// Incremental snapshot for a stats query: records from global index
    /// `since` onward, the total count ever completed, and the server clock
    /// now — so a polling harness ships only new history on each probe.
    /// `since` below the retention window is clamped up to the oldest
    /// retained record (the evicted prefix is gone, never re-sent), so a
    /// cursor-driven poller sees every retained record exactly once.
    pub fn snapshot_since(&self, since: u64) -> (f64, u64, Vec<CallStat>) {
        let records = self.records.lock();
        let batch = records.since(since).cloned().collect();
        (self.now(), records.total(), batch)
    }

    /// Number of completed calls over the server's lifetime (including
    /// records already evicted from the bounded ring).
    pub fn completed(&self) -> usize {
        self.records.lock().total() as usize
    }

    /// Number of records currently retained (bounded by the ring capacity).
    pub fn retained(&self) -> usize {
        self.records.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(submit: f64, enqueue: f64, dequeue: f64, complete: f64) -> CallStat {
        CallStat {
            routine: "linpack".into(),
            n: Some(600),
            request_bytes: 100,
            reply_bytes: 50,
            t_submit: submit,
            t_enqueue: enqueue,
            t_dequeue: dequeue,
            t_complete: complete,
        }
    }

    #[test]
    fn derived_times_match_paper_definitions() {
        let r = record(1.0, 1.5, 3.0, 10.0);
        assert!((r.response() - 0.5).abs() < 1e-12);
        assert!((r.wait() - 1.5).abs() < 1e-12);
        assert!((r.service() - 7.0).abs() < 1e-12);
        assert!((r.total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn clock_is_monotone() {
        let s = ServerStats::new();
        let a = s.now();
        let b = s.now();
        assert!(b >= a);
    }

    /// One instant, two units: the record's seconds and the span
    /// timeline's microseconds advance together.
    #[test]
    fn span_timeline_and_record_seconds_read_one_instant() {
        let s = ServerStats::new();
        let t = Instant::now() + Duration::from_micros(1_234_567);
        let us = s.span_us(t) - s.span_us(s.start);
        assert_eq!(us, (s.secs(t) * 1e6) as u64);
        assert!(s.span_us(s.start).abs_diff(ninf_obs::now_us()) < 1_000_000);
    }

    /// A long run stays memory-flat: the ring never retains more than its
    /// capacity, while the lifetime total keeps counting.
    #[test]
    fn record_history_is_bounded() {
        let cap = 8;
        let s = ServerStats::with_capacity(cap);
        for i in 0..10 * cap {
            s.record(record(i as f64, i as f64, i as f64, i as f64 + 1.0));
            assert!(s.retained() <= cap);
        }
        assert_eq!(s.completed(), 10 * cap);
        assert_eq!(s.retained(), cap);
        // The retained window is the most recent `cap` records.
        let snap = s.snapshot();
        assert_eq!(snap.len(), cap);
        assert_eq!(snap[0].t_submit, (10 * cap - cap) as f64);
        assert_eq!(snap[cap - 1].t_submit, (10 * cap - 1) as f64);
    }

    /// The exactly-once cursor property is `ninf_obs::CursorRing`'s own
    /// test; the stats sink's part is the wire form: the server clock, the
    /// lifetime total (evicted records included) and the retained records
    /// from the cursor on, as the `CallStat`s the ring holds.
    #[test]
    fn incremental_queries_answer_in_wire_form_with_the_lifetime_total() {
        let s = ServerStats::with_capacity(4);
        for i in 0..6 {
            s.record(record(i as f64, i as f64, i as f64, i as f64 + 0.5));
        }
        let (now, total, batch) = s.snapshot_since(3);
        assert!(now >= 0.0);
        assert_eq!(total, 6);
        let retained = s.snapshot();
        assert_eq!(batch, retained[1..]);
        assert_eq!(
            (batch[0].t_submit, batch[0].routine.as_str()),
            (3.0, "linpack")
        );
        // Drained cursor: empty; stale cursor: everything retained.
        assert!(s.snapshot_since(total).2.is_empty());
        assert_eq!(s.snapshot_since(0).2, retained);
    }
}
