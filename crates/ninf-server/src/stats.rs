//! Per-call measurement records: the timestamps and derived metrics of §4.1.
//!
//! "for each client Ninf_call task, we measured the throughput and various
//! timings: time of task submission T_submit, time when the Ninf_call task
//! was accepted at the server T_enqueue, time when the corresponding Ninf
//! executable was invoked T_dequeue, and the time at which Ninf_call was
//! completed T_complete." — with `T_response = T_enqueue − T_submit` and
//! `T_wait = T_dequeue − T_enqueue`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use ninf_obs::CursorRing;
use ninf_protocol::{CallStat, LoadReport};

/// Default cap on retained [`CallRecord`]s. A long-lived server keeps a
/// bounded window of recent history instead of growing without limit; the
/// ring's monotone record index keeps incremental stats queries correct
/// across eviction.
pub const DEFAULT_RECORD_CAPACITY: usize = 65_536;

/// One completed `Ninf_call` as observed by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Routine name.
    pub routine: String,
    /// First scalar input (the matrix order `n` / EP exponent `m`), for
    /// grouping results into table rows.
    pub n: Option<i64>,
    /// Request payload bytes (arrays only, per the paper's convention).
    pub request_bytes: usize,
    /// Reply payload bytes.
    pub reply_bytes: usize,
    /// Seconds since server start at each lifecycle point.
    pub t_submit: f64,
    /// See above.
    pub t_enqueue: f64,
    /// See above.
    pub t_dequeue: f64,
    /// See above.
    pub t_complete: f64,
}

impl CallRecord {
    /// `T_response = T_enqueue − T_submit`.
    pub fn response(&self) -> f64 {
        self.t_enqueue - self.t_submit
    }

    /// `T_wait = T_dequeue − T_enqueue`.
    pub fn wait(&self) -> f64 {
        self.t_dequeue - self.t_enqueue
    }

    /// Pure service time (execution).
    pub fn service(&self) -> f64 {
        self.t_complete - self.t_dequeue
    }

    /// End-to-end server-side time.
    pub fn total(&self) -> f64 {
        self.t_complete - self.t_submit
    }

    /// The wire form of this record (for [`ninf_protocol::Message::StatsReply`]).
    pub fn to_wire(&self) -> CallStat {
        CallStat {
            routine: self.routine.clone(),
            n: self.n,
            request_bytes: self.request_bytes as u64,
            reply_bytes: self.reply_bytes as u64,
            t_submit: self.t_submit,
            t_enqueue: self.t_enqueue,
            t_dequeue: self.t_dequeue,
            t_complete: self.t_complete,
        }
    }
}

/// Shared, thread-safe statistics sink of a live server.
#[derive(Debug)]
pub struct ServerStats {
    start: Instant,
    records: Mutex<CursorRing<CallRecord>>,
    running: AtomicUsize,
    queued: AtomicUsize,
    pes: usize,
}

impl ServerStats {
    /// New sink for a machine with `pes` PEs; the clock starts now.
    pub fn new(pes: usize) -> Self {
        Self::with_capacity(pes, DEFAULT_RECORD_CAPACITY)
    }

    /// New sink retaining at most `capacity` recent records.
    pub fn with_capacity(pes: usize, capacity: usize) -> Self {
        Self {
            start: Instant::now(),
            records: Mutex::new(CursorRing::new(capacity)),
            running: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            pes,
        }
    }

    /// Seconds since server start.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Mark a job queued (between enqueue and dequeue).
    pub fn job_queued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a job moved from queue to execution.
    pub fn job_started(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.running.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a job finished and store its record (evicting the oldest retained
    /// record once the ring is full).
    pub fn job_finished(&self, record: CallRecord) {
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.records.lock().push(record);
    }

    /// Copy of all *retained* records (the most recent window).
    pub fn snapshot(&self) -> Vec<CallRecord> {
        self.records.lock().since(0).cloned().collect()
    }

    /// Incremental wire snapshot for a stats query: records from global index
    /// `since` onward, the total count ever completed, and the server clock
    /// now — so a polling harness ships only new history on each probe.
    /// `since` below the retention window is clamped up to the oldest
    /// retained record (the evicted prefix is gone, never re-sent), so a
    /// cursor-driven poller sees every retained record exactly once.
    pub fn snapshot_since(&self, since: u64) -> (f64, u64, Vec<CallStat>) {
        let records = self.records.lock();
        let wire = records.since(since).map(CallRecord::to_wire).collect();
        (self.now(), records.total(), wire)
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

    /// Current load report for the metaserver.
    pub fn load_report(&self) -> LoadReport {
        let running = self.running.load(Ordering::Relaxed) as u32;
        let queued = self.queued.load(Ordering::Relaxed) as u32;
        LoadReport {
            pes: self.pes as u32,
            running,
            queued,
            // The live server reports instantaneous runnable count as its
            // load proxy; the simulator computes the true damped average.
            load_average: (running + queued) as f64,
            cpu_utilization: 100.0 * running.min(self.pes as u32) as f64 / self.pes as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(submit: f64, enqueue: f64, dequeue: f64, complete: f64) -> CallRecord {
        CallRecord {
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
    fn lifecycle_counters() {
        let s = ServerStats::new(4);
        s.job_queued();
        s.job_queued();
        assert_eq!(s.load_report().queued, 2);
        s.job_started();
        let rep = s.load_report();
        assert_eq!(rep.queued, 1);
        assert_eq!(rep.running, 1);
        assert_eq!(rep.pes, 4);
        s.job_finished(record(0.0, 0.0, 0.0, 1.0));
        assert_eq!(s.load_report().running, 0);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn utilization_caps_at_100() {
        let s = ServerStats::new(1);
        s.job_queued();
        s.job_started();
        s.job_queued();
        s.job_started();
        assert_eq!(s.load_report().cpu_utilization, 100.0);
    }

    #[test]
    fn clock_is_monotone() {
        let s = ServerStats::new(1);
        let a = s.now();
        let b = s.now();
        assert!(b >= a);
    }

    /// A long run stays memory-flat: the ring never retains more than its
    /// capacity, while the lifetime total keeps counting.
    #[test]
    fn record_history_is_bounded() {
        let cap = 8;
        let s = ServerStats::with_capacity(2, cap);
        for i in 0..10 * cap {
            s.job_queued();
            s.job_started();
            s.job_finished(record(i as f64, i as f64, i as f64, i as f64 + 1.0));
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
    /// from the cursor on, as `CallStat`s.
    #[test]
    fn incremental_queries_answer_in_wire_form_with_the_lifetime_total() {
        let s = ServerStats::with_capacity(1, 4);
        for i in 0..6 {
            s.job_queued();
            s.job_started();
            s.job_finished(record(i as f64, i as f64, i as f64, i as f64 + 0.5));
        }
        let (now, total, batch) = s.snapshot_since(3);
        assert!(now >= 0.0);
        assert_eq!(total, 6);
        let retained: Vec<CallStat> = s.snapshot().iter().map(CallRecord::to_wire).collect();
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
