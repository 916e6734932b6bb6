//! The one cursor poller: while a run is live, drain every server's
//! `QueryStats` records and `QueryMetrics` windows over a measurement
//! connection of its own, each poll bracketed by two local timestamps, and
//! drain both cursors after stop.
//!
//! Each cursor advances by what a poll delivered, so every record and every
//! window is fetched exactly once: the chaos harness checks exactly that,
//! the sweep turns the window polls into a skew-corrected series, and every
//! run joins the records into its §4.1 server view.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ninf_client::{CallOptions, NinfClient};
use ninf_protocol::{CallStat, ProtocolError, WindowsSnapshot};

/// Polls after stop before the drain stops chasing the record total
/// (records are appended around reply time, so the drain is bounded).
const DRAIN_POLLS: usize = 200;

/// One `QueryStats` poll; `t0`/`t1` bracket it on the poller's epoch.
#[derive(Debug, Clone)]
pub struct StatsPoll {
    /// Poller-epoch seconds when the query went out.
    pub t0: f64,
    /// Poller-epoch seconds when the reply came back.
    pub t1: f64,
    /// Server clock (seconds since server start).
    pub now: f64,
    /// The server's lifetime record total.
    pub total: u64,
    /// The records at the cursor.
    pub records: Vec<CallStat>,
}

/// One `QueryMetrics` poll; `t0`/`t1` bracket it on the poller's epoch.
#[derive(Debug, Clone)]
pub struct WindowPoll {
    /// Poller-epoch seconds when the query went out.
    pub t0: f64,
    /// Poller-epoch seconds when the reply came back.
    pub t1: f64,
    /// The window ring from the cursor onward.
    pub snap: WindowsSnapshot,
}

/// Everything one server's cursors delivered, in poll order.
#[derive(Debug)]
pub struct ServerPolls {
    /// Server address.
    pub addr: String,
    /// Record polls.
    pub stats: Vec<StatsPoll>,
    /// Window polls.
    pub windows: Vec<WindowPoll>,
    /// What ended the polling early, if anything did.
    pub error: Option<ProtocolError>,
}

impl ServerPolls {
    /// Every record fetched, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &CallStat> {
        self.stats.iter().flat_map(|p| &p.records)
    }
}

/// One poller thread per server, polling until [`Poller::finish`].
pub struct Poller {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<ServerPolls>>,
}

impl Poller {
    /// Poll every address in `addrs` each `period`, stamping on `epoch`.
    pub fn start(addrs: &[String], epoch: Instant, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = addrs
            .iter()
            .map(|addr| {
                let (addr, stop) = (addr.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut out = ServerPolls {
                        addr,
                        stats: Vec::new(),
                        windows: Vec::new(),
                        error: None,
                    };
                    out.error = poll_into(&mut out, epoch, period, &stop).err();
                    out
                })
            })
            .collect();
        Poller { stop, threads }
    }

    /// Stop, drain, and return each server's polls in `addrs` order.
    pub fn finish(mut self) -> Vec<ServerPolls> {
        self.stop.store(true, Ordering::Release);
        std::mem::take(&mut self.threads)
            .into_iter()
            .map(|h| h.join().expect("poller thread panicked"))
            .collect()
    }
}

impl Drop for Poller {
    /// A poller dropped unfinished, when its run panicked, still stops.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

fn poll_into(
    out: &mut ServerPolls,
    epoch: Instant,
    period: Duration,
    stop: &AtomicBool,
) -> Result<(), ProtocolError> {
    // The tester stays fixed while the service changes: a measurement
    // connection takes a deadline and none of the workload's options (its
    // emulated link, its loss draws, its retries).
    let options = CallOptions::with_deadline(Duration::from_secs(2));
    let mut c = NinfClient::connect_with(&out.addr, options)?;
    let stamp = || epoch.elapsed().as_secs_f64();
    let (mut cursor, mut window_cursor, mut drained) = (0u64, 0u64, 0);
    loop {
        let stopped = stop.load(Ordering::Acquire);
        let t0 = stamp();
        let (now, total, records) = c.query_stats(cursor)?;
        let t1 = stamp();
        cursor += records.len() as u64;
        out.stats.push(StatsPoll {
            t0,
            t1,
            now,
            total,
            records,
        });
        let t0 = stamp();
        let (_process, snap) = c.query_metrics(window_cursor)?;
        window_cursor = snap.total;
        out.windows.push(WindowPoll {
            t0,
            t1: stamp(),
            snap,
        });
        if !stopped {
            std::thread::sleep(period);
        } else if cursor >= total || drained == DRAIN_POLLS {
            return Ok(());
        } else {
            drained += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
