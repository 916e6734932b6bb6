//! Execution-mode gate: how many PEs one `Ninf_call` occupies, and which
//! queued call starts next.
//!
//! The paper's central server-side design question (§1, §4.1): "distribute
//! the computing resources amongst different client requests in a *task
//! parallel manner*, or allocate all the processors to each client task in a
//! *data parallel manner* in sequence". Each registered executable declares
//! its width as an [`ExecMode`]; [`JobGate`] enforces it with a
//! [`SchedPolicy`]-driven admission queue, and is the server's one count of
//! running and queued calls ([`JobGate::load_report`]).

use parking_lot::{Condvar, Mutex};

use ninf_protocol::LoadReport;

use crate::policy::{JobInfo, SchedPolicy};

/// How one executable's calls map onto the server's PEs: the width its
/// handler was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One PE per call; up to `pes` calls run concurrently (the 1-PE rows of
    /// Tables 3/6; how "typical non-numerical server tasks (such as WWW HTTPD
    /// service)" behave, §4.1).
    TaskParallel,
    /// All PEs per call, calls serialized (the 4-PE libSci rows of Tables
    /// 4/7).
    DataParallel,
}

impl ExecMode {
    /// PEs one call occupies on a machine with `pes` processors.
    pub fn pes_per_call(&self, pes: usize) -> usize {
        match self {
            ExecMode::TaskParallel => 1,
            ExecMode::DataParallel => pes,
        }
    }

    /// Display name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::TaskParallel => "task-parallel (1-PE)",
            ExecMode::DataParallel => "data-parallel (all-PE)",
        }
    }
}

#[derive(Debug)]
struct GateState {
    free_pes: usize,
    /// Admitted jobs whose guard is still alive.
    running: usize,
    /// Queue in arrival order; `u64` is the ticket identifying the waiter.
    queue: Vec<(u64, JobInfo)>,
    next_ticket: u64,
}

/// Blocking admission gate shared by all connection threads of a live
/// server.
#[derive(Debug)]
pub struct JobGate {
    state: Mutex<GateState>,
    cv: Condvar,
    policy: SchedPolicy,
    pes: usize,
}

impl JobGate {
    /// Gate for a machine with `pes` processors under `policy`.
    pub fn new(pes: usize, policy: SchedPolicy) -> Self {
        assert!(pes > 0);
        Self {
            state: Mutex::new(GateState {
                free_pes: pes,
                running: 0,
                queue: Vec::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            policy,
            pes,
        }
    }

    /// Total PEs.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Currently queued (not yet running) jobs.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// PEs currently in use.
    pub fn busy_pes(&self) -> usize {
        self.pes - self.state.lock().free_pes
    }

    /// Running and queued jobs, read together under the gate's lock, as the
    /// load report a `QueryLoad` answers.
    pub fn load_report(&self) -> LoadReport {
        let (running, queued) = {
            let st = self.state.lock();
            (st.running as u32, st.queue.len() as u32)
        };
        let pes = self.pes as u32;
        LoadReport {
            pes,
            running,
            queued,
            // The live server reports instantaneous runnable count as its
            // load proxy; the simulator computes the true damped average.
            load_average: (running + queued) as f64,
            cpu_utilization: 100.0 * running.min(pes) as f64 / pes as f64,
        }
    }

    /// Block until the policy admits this job; returns a guard that releases
    /// the PEs on drop.
    ///
    /// # Panics
    /// Panics if the job requests more PEs than the machine has (it could
    /// never start).
    pub fn acquire(&self, mut job: JobInfo) -> JobGuard<'_> {
        assert!(
            job.pes_required <= self.pes,
            "job wants {} PEs, machine has {}",
            job.pes_required,
            self.pes
        );
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        job.arrival_seq = ticket;
        st.queue.push((ticket, job));
        loop {
            let infos: Vec<JobInfo> = st.queue.iter().map(|&(_, j)| j).collect();
            if let Some(idx) = self.policy.pick(&infos, st.free_pes) {
                if st.queue[idx].0 == ticket {
                    st.queue.remove(idx);
                    st.free_pes -= job.pes_required;
                    st.running += 1;
                    drop(st);
                    // The admitted job changed the state; others re-evaluate.
                    self.cv.notify_all();
                    return JobGuard {
                        gate: self,
                        pes: job.pes_required,
                    };
                }
                // Someone else was picked — make sure they wake up.
                self.cv.notify_all();
            }
            self.cv.wait(&mut st);
        }
    }
}

/// RAII release of acquired PEs.
#[derive(Debug)]
pub struct JobGuard<'a> {
    gate: &'a JobGate,
    pes: usize,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.free_pes += self.pes;
        st.running -= 1;
        drop(st);
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn job(pes: usize) -> JobInfo {
        JobInfo {
            arrival_seq: 0,
            estimated_cost: 1.0,
            pes_required: pes,
        }
    }

    #[test]
    fn exec_mode_widths() {
        assert_eq!(ExecMode::TaskParallel.pes_per_call(4), 1);
        assert_eq!(ExecMode::DataParallel.pes_per_call(4), 4);
    }

    #[test]
    fn task_parallel_allows_concurrency_up_to_pes() {
        let gate = Arc::new(JobGate::new(4, SchedPolicy::Fcfs));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let gate = gate.clone();
            let peak = peak.clone();
            let current = current.clone();
            handles.push(std::thread::spawn(move || {
                let _guard = gate.acquire(job(1));
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                current.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4);
        assert!(peak.load(Ordering::SeqCst) >= 2, "should have overlapped");
    }

    #[test]
    fn data_parallel_serializes() {
        let gate = Arc::new(JobGate::new(4, SchedPolicy::Fcfs));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gate = gate.clone();
            let peak = peak.clone();
            let current = current.clone();
            handles.push(std::thread::spawn(move || {
                let _guard = gate.acquire(job(4));
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                current.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn guard_drop_frees_pes() {
        let gate = JobGate::new(2, SchedPolicy::Fcfs);
        {
            let _g1 = gate.acquire(job(2));
            assert_eq!(gate.busy_pes(), 2);
        }
        assert_eq!(gate.busy_pes(), 0);
    }

    /// Jobs blocked in the gate count as queued and admitted ones as
    /// running, from the same lock that admits them.
    #[test]
    fn lifecycle_counters() {
        let gate = Arc::new(JobGate::new(4, SchedPolicy::Fcfs));
        let g1 = gate.acquire(job(1));
        let g2 = gate.acquire(job(1));
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || drop(gate.acquire(job(4))))
        };
        while gate.queued() == 0 {
            std::thread::yield_now();
        }
        let rep = gate.load_report();
        assert_eq!((rep.pes, rep.running, rep.queued), (4, 2, 1));
        assert_eq!(rep.load_average, 3.0);
        drop(g1);
        drop(g2);
        waiter.join().unwrap();
        let rep = gate.load_report();
        assert_eq!((rep.running, rep.queued), (0, 0));
    }

    #[test]
    fn utilization_caps_at_100() {
        let gate = JobGate::new(1, SchedPolicy::Fcfs);
        let _g = gate.acquire(job(1));
        assert_eq!(gate.load_report().cpu_utilization, 100.0);
        let wide = JobGate::new(4, SchedPolicy::Fcfs);
        let _w = wide.acquire(job(1));
        assert_eq!(wide.load_report().cpu_utilization, 25.0);
    }

    #[test]
    #[should_panic(expected = "PEs")]
    fn oversized_job_panics() {
        let gate = JobGate::new(2, SchedPolicy::Fcfs);
        let _ = gate.acquire(job(3));
    }

    #[test]
    fn mixed_widths_under_fpfs_do_not_deadlock() {
        let gate = Arc::new(JobGate::new(4, SchedPolicy::Fpfs));
        let mut handles = Vec::new();
        for i in 0..12 {
            let gate = gate.clone();
            let width = if i % 3 == 0 { 4 } else { 1 };
            handles.push(std::thread::spawn(move || {
                let _guard = gate.acquire(job(width));
                std::thread::sleep(Duration::from_millis(3));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gate.busy_pes(), 0);
        assert_eq!(gate.queued(), 0);
    }
}
