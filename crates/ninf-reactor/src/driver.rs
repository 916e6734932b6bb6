//! Open-loop load driver for c≥1k connection counts.
//!
//! `ninf-loadgen`'s thread-per-client runner cannot reach 10 000 concurrent
//! connections (10 000 OS threads on a small host is its own experiment),
//! so the `lan-c10k` scenario drives all connections from one poller
//! thread: blocking sequential connects up front, then a single event loop
//! that issues calls on a fixed open-loop schedule, round-robins them over
//! the connections, and demuxes replies by call id.
//!
//! The schedule is open-loop in the DiPerF sense: call k is *due* at
//! `start + k / aggregate_rate` regardless of completions, and latency is
//! measured from the due time — a saturated server shows up as growing
//! latency, not reduced offered load.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ninf_protocol::{encode_frame, Message};

use crate::conn::{Filled, FrameConn, READ_CHUNK};
use crate::sys::{Interest, PollEvent, Poller};

/// Open-loop drive plan.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Server address (host:port).
    pub addr: String,
    /// Concurrent connections to hold open.
    pub conns: usize,
    /// Measurement window (after all connections are up).
    pub duration: Duration,
    /// Aggregate call rate across all connections (calls/second).
    pub rate_hz: f64,
    /// Calls in flight per connection before further due calls queue
    /// behind it (client-side admission).
    pub max_inflight_per_conn: usize,
    /// The request to repeat (typically a small-payload EP invoke).
    pub request: Message,
    /// Grace period after the window to collect still-in-flight replies;
    /// replies that miss it count as errors.
    pub drain: Duration,
}

/// One completed (or failed) call.
#[derive(Debug, Clone, Copy)]
pub struct CallSample {
    /// Connection index the call ran on.
    pub conn: usize,
    /// Seconds from window start the call was due.
    pub scheduled: f64,
    /// Due-to-reply seconds (open-loop latency; includes queueing).
    pub latency: f64,
    /// Reply arrived and decoded as a non-Error message.
    pub ok: bool,
}

/// Aggregate outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Connections successfully opened.
    pub conns: usize,
    /// Calls the schedule issued.
    pub offered: u64,
    /// Calls that completed with a decodable non-Error reply.
    pub completed: u64,
    /// Everything else: connect failures, stream errors, Error replies,
    /// replies missing after the drain grace.
    pub errors: u64,
    /// Wall seconds from window start to last processed event.
    pub elapsed: f64,
    /// Completed calls per wall second.
    pub throughput: f64,
    /// Per-call records, in completion order.
    pub samples: Vec<CallSample>,
}

impl DriverReport {
    /// Latency percentile over completed calls (`q` in `[0, 1]`).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency)
            .collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        let idx = ((lat.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lat[idx]
    }

    /// Mean latency over completed calls.
    pub fn latency_mean(&self) -> f64 {
        let (sum, n) = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .fold((0.0, 0u64), |(s, n), c| (s + c.latency, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

struct DriverConn {
    io: FrameConn,
    /// Calls sent, awaiting replies: call id → (scheduled offset seconds).
    pending: HashMap<u64, f64>,
    /// Due calls waiting for an in-flight slot: scheduled offsets.
    backlog: VecDeque<f64>,
    alive: bool,
}

/// Run one open-loop window against a live server.
pub fn run_open_loop(config: &DriverConfig) -> io::Result<DriverReport> {
    let sockaddr: SocketAddr = config
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::from(io::ErrorKind::AddrNotAvailable))?;

    let mut poller = Poller::new()?;
    let mut conns: Vec<DriverConn> = Vec::with_capacity(config.conns);
    let mut errors = 0u64;

    // Connect phase: sequential blocking dials (fast on loopback; the
    // reactor's accept loop keeps the backlog drained), then nonblocking
    // for the event loop.
    for i in 0..config.conns {
        let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(10))?;
        conns.push(DriverConn {
            io: FrameConn::register(stream, &mut poller, i as u64)?,
            pending: HashMap::new(),
            backlog: VecDeque::new(),
            alive: true,
        });
    }

    let total_calls = (config.duration.as_secs_f64() * config.rate_hz).floor() as u64;
    let interval = 1.0 / config.rate_hz.max(1e-9);
    let start = Instant::now();
    let hard_stop = config.duration + config.drain;

    let mut next_call_id = 1u64;
    let mut issued = 0u64;
    let mut samples: Vec<CallSample> = Vec::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut last_event = start;

    loop {
        let now = start.elapsed();

        // Issue every call that has come due, round-robin over connections.
        while issued < total_calls && now.as_secs_f64() >= issued as f64 * interval {
            let scheduled = issued as f64 * interval;
            let ci = (issued % config.conns as u64) as usize;
            issued += 1;
            let conn = &mut conns[ci];
            if !conn.alive {
                errors += 1;
                continue;
            }
            if conn.pending.len() >= config.max_inflight_per_conn {
                conn.backlog.push_back(scheduled);
                continue;
            }
            stage_call(conn, &config.request, scheduled, &mut next_call_id)?;
        }

        // Push staged bytes out and collect replies.
        for (ci, conn) in conns.iter_mut().enumerate() {
            if conn.alive && conn.io.has_writes() {
                pump_conn_write(conn, &mut poller, ci as u64, &mut errors);
            }
        }

        let in_flight: usize = conns
            .iter()
            .map(|c| c.pending.len() + c.backlog.len())
            .sum();
        if issued >= total_calls && in_flight == 0 {
            break;
        }
        if now >= hard_stop {
            // Whatever is still owed counts as errors.
            errors += in_flight as u64;
            break;
        }

        // Sleep until the next due call (or an event), capped so the drain
        // deadline is honored.
        let next_due = (issued as f64 * interval - now.as_secs_f64()).max(0.0);
        let timeout_ms = if issued < total_calls {
            (next_due * 1000.0).min(50.0) as i32
        } else {
            50
        };
        events.clear();
        poller.wait(&mut events, timeout_ms)?;
        for ev in &events {
            let ci = ev.token as usize;
            if ci >= conns.len() || !conns[ci].alive {
                continue;
            }
            if ev.writable {
                pump_conn_write(&mut conns[ci], &mut poller, ev.token, &mut errors);
            }
            if ev.readable || ev.error {
                pump_conn_read(
                    &mut conns[ci],
                    &mut poller,
                    ev.token,
                    &mut scratch,
                    start,
                    &mut samples,
                    &mut errors,
                );
                // Freed slots admit backlogged calls.
                while conns[ci].alive
                    && conns[ci].pending.len() < config.max_inflight_per_conn
                    && !conns[ci].backlog.is_empty()
                {
                    let scheduled = conns[ci].backlog.pop_front().expect("nonempty");
                    stage_call(
                        &mut conns[ci],
                        &config.request,
                        scheduled,
                        &mut next_call_id,
                    )?;
                }
                if conns[ci].alive && conns[ci].io.has_writes() {
                    pump_conn_write(&mut conns[ci], &mut poller, ev.token, &mut errors);
                }
            }
            last_event = Instant::now();
        }
    }

    // Wall clock of the run: at least the scheduled window, extended by
    // completions that straggled into the drain grace.
    let elapsed = (last_event - start)
        .as_secs_f64()
        .max(config.duration.as_secs_f64())
        .max(f64::MIN_POSITIVE);
    let completed = samples.iter().filter(|s| s.ok).count() as u64;
    errors += samples.iter().filter(|s| !s.ok).count() as u64;
    Ok(DriverReport {
        conns: conns.len(),
        offered: issued,
        completed,
        errors,
        elapsed,
        throughput: completed as f64 / elapsed.max(f64::MIN_POSITIVE),
        samples,
    })
}

fn stage_call(
    conn: &mut DriverConn,
    request: &Message,
    scheduled: f64,
    next_call_id: &mut u64,
) -> io::Result<()> {
    let call_id = *next_call_id;
    *next_call_id += 1;
    let frame = encode_frame(call_id, request)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    conn.pending.insert(call_id, scheduled);
    conn.io.queue(frame);
    Ok(())
}

fn kill_conn(conn: &mut DriverConn, poller: &mut Poller, errors: &mut u64) {
    if conn.alive {
        conn.alive = false;
        conn.io.deregister(poller);
        *errors += (conn.pending.len() + conn.backlog.len()) as u64;
        conn.pending.clear();
        conn.backlog.clear();
    }
}

fn pump_conn_write(conn: &mut DriverConn, poller: &mut Poller, token: u64, errors: &mut u64) {
    if conn.io.flush().is_err() {
        kill_conn(conn, poller, errors);
        return;
    }
    let want = Interest {
        readable: true,
        writable: conn.io.has_writes(),
    };
    conn.io.set_interest(poller, token, want);
}

/// Read until the socket would block, matching each reply to its pending
/// call as it is sliced.
fn pump_conn_read(
    conn: &mut DriverConn,
    poller: &mut Poller,
    token: u64,
    scratch: &mut [u8],
    start: Instant,
    samples: &mut Vec<CallSample>,
    errors: &mut u64,
) {
    loop {
        match conn.io.read(scratch) {
            Filled::Bytes => {}
            Filled::WouldBlock => return,
            Filled::Closed => {
                kill_conn(conn, poller, errors);
                return;
            }
        }
        loop {
            let (call_id, checked) = match conn.io.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    kill_conn(conn, poller, errors);
                    return;
                }
            };
            if let Some(scheduled) = conn.pending.remove(&call_id) {
                let now = start.elapsed().as_secs_f64();
                samples.push(CallSample {
                    conn: token as usize,
                    scheduled,
                    latency: (now - scheduled).max(0.0),
                    ok: !matches!(checked.message, Message::Error { .. }),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{Arg, Value};
    use std::net::TcpListener;
    use std::sync::Arc;

    use crate::reactor::{Handler, Reactor, ReactorConfig, ReactorHooks, Request};

    #[test]
    fn open_loop_window_completes_every_call() {
        let handler: Handler = Arc::new(|req: Request| match req.message {
            Message::Invoke { args, .. } => Some(Message::ResultData {
                results: Arg::into_values(args).expect("inline"),
            }),
            _ => Some(Message::Error {
                reason: "unexpected".into(),
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )
        .unwrap();

        let report = run_open_loop(&DriverConfig {
            addr: server.local_addr().to_string(),
            conns: 32,
            duration: Duration::from_millis(500),
            rate_hz: 400.0,
            max_inflight_per_conn: 16,
            request: Message::Invoke {
                routine: "echo".into(),
                args: Arg::inline(vec![Value::Int(7)]),
                trace: None,
            },
            drain: Duration::from_secs(5),
        })
        .unwrap();

        assert_eq!(report.conns, 32);
        assert_eq!(report.offered, 200);
        assert_eq!(report.completed, 200, "errors: {}", report.errors);
        assert_eq!(report.errors, 0);
        assert!(report.throughput > 0.0);
        assert!(report.latency_quantile(0.99) >= report.latency_quantile(0.5));
        server.shutdown();
    }
}
