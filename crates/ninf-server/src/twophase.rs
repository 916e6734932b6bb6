//! Two-phase call support (paper §5.1).
//!
//! "an alternative is to modify Ninf_call to become a two-phase transaction,
//! where remote argument transfer takes place in the first phase, whereupon
//! the communication is terminated, and after the server computation is
//! over, the client is notified so that it may receive the results in the
//! second phase. We have already implemented such a two-phase protocol for
//! database queries in Ninf." — here it is for computations: the client
//! submits and disconnects; the server computes under the same gate as
//! ordinary calls; any later connection can poll and fetch by ticket.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use ninf_protocol::{JobPhase, Value};

/// Outcome storage of one submitted job.
#[derive(Debug, Clone)]
enum JobState {
    Pending,
    Done(Vec<Value>),
    Failed(String),
}

/// Cap on jobs still computing, each on a thread of its own; a submission
/// past it is refused before it gets a ticket.
pub const MAX_PENDING_JOBS: usize = 64;

/// Ticket → job-state map, with the count of its pending entries.
#[derive(Debug, Default)]
struct Jobs {
    states: HashMap<u64, JobState>,
    pending: usize,
}

/// Thread-safe ticket → job-state table.
#[derive(Debug, Default)]
pub struct JobTable {
    next: AtomicU64,
    jobs: Mutex<Jobs>,
    cv: Condvar,
}

impl JobTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a ticket in the pending state, unless
    /// [`MAX_PENDING_JOBS`] jobs are still computing.
    pub fn submit(&self) -> Result<u64, String> {
        let mut jobs = self.jobs.lock();
        if jobs.pending >= MAX_PENDING_JOBS {
            return Err(format!("too many pending jobs ({MAX_PENDING_JOBS})"));
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        jobs.states.insert(id, JobState::Pending);
        jobs.pending += 1;
        Ok(id)
    }

    /// Record a finished job.
    pub fn complete(&self, job: u64, outcome: Result<Vec<Value>, String>) {
        let state = match outcome {
            Ok(v) => JobState::Done(v),
            Err(e) => JobState::Failed(e),
        };
        let mut jobs = self.jobs.lock();
        if let Some(JobState::Pending) = jobs.states.insert(job, state) {
            jobs.pending -= 1;
        }
        self.cv.notify_all();
    }

    /// Current phase of a ticket.
    pub fn poll(&self, job: u64) -> JobPhase {
        match self.jobs.lock().states.get(&job) {
            None => JobPhase::Unknown,
            Some(JobState::Pending) => JobPhase::Pending,
            Some(JobState::Done(_)) => JobPhase::Done,
            Some(JobState::Failed(_)) => JobPhase::Failed,
        }
    }

    /// Remove and return a finished job's outcome; `None` while pending or
    /// for unknown tickets.
    pub fn fetch(&self, job: u64) -> Option<Result<Vec<Value>, String>> {
        let mut jobs = self.jobs.lock();
        match jobs.states.get(&job) {
            Some(JobState::Pending) | None => None,
            Some(_) => match jobs.states.remove(&job) {
                Some(JobState::Done(v)) => Some(Ok(v)),
                Some(JobState::Failed(e)) => Some(Err(e)),
                _ => unreachable!("checked above"),
            },
        }
    }

    /// Number of tickets currently tracked.
    pub fn len(&self) -> usize {
        self.jobs.lock().states.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.lock().states.is_empty()
    }

    /// Block until `job` leaves the pending state (test helper; real clients
    /// poll over the network).
    pub fn wait_done(&self, job: u64) {
        let mut jobs = self.jobs.lock();
        while matches!(jobs.states.get(&job), Some(JobState::Pending)) {
            self.cv.wait(&mut jobs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifecycle_pending_done_fetch() {
        let t = JobTable::new();
        let id = t.submit().unwrap();
        assert_eq!(t.poll(id), JobPhase::Pending);
        assert!(t.fetch(id).is_none(), "cannot fetch a pending job");
        t.complete(id, Ok(vec![Value::Int(7)]));
        assert_eq!(t.poll(id), JobPhase::Done);
        assert_eq!(t.fetch(id), Some(Ok(vec![Value::Int(7)])));
        // Fetch consumes the ticket.
        assert_eq!(t.poll(id), JobPhase::Unknown);
        assert!(t.fetch(id).is_none());
    }

    #[test]
    fn failures_carry_the_reason() {
        let t = JobTable::new();
        let id = t.submit().unwrap();
        t.complete(id, Err("singular matrix".into()));
        assert_eq!(t.poll(id), JobPhase::Failed);
        assert_eq!(t.fetch(id), Some(Err("singular matrix".into())));
    }

    #[test]
    fn unknown_tickets() {
        let t = JobTable::new();
        assert_eq!(t.poll(999), JobPhase::Unknown);
        assert!(t.fetch(999).is_none());
    }

    #[test]
    fn tickets_are_unique() {
        let t = JobTable::new();
        let a = t.submit().unwrap();
        let b = t.submit().unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn wait_done_blocks_until_completion() {
        let t = Arc::new(JobTable::new());
        let id = t.submit().unwrap();
        let t2 = t.clone();
        let worker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            t2.complete(id, Ok(vec![]));
        });
        t.wait_done(id);
        assert_eq!(t.poll(id), JobPhase::Done);
        worker.join().unwrap();
    }
}
