//! The server-side reactor: one thread owns every socket, a bounded worker
//! pool runs the handlers.
//!
//! ```text
//!            ┌────────────────────────── reactor thread ──────────────────┐
//!  accept ──▶│ nonblocking sockets, per-conn read buffers + write queues, │
//!            │ frame extraction (header parse → CRC+digests → decode)     │
//!            └──────┬──────────────────────────────────▲──────────────────┘
//!                   │ (conn, call_id, Message, digests)│ Command::Reply (encoded frame) + wake
//!            ┌──────▼──────────────────────────────────┴──────────────────┐
//!            │ worker pool (bounded): handler(msg) → Option<Message>      │
//!            └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Backpressure is per connection: once `max_inflight_per_conn` calls from
//! one connection are being handled, the reactor stops extracting frames
//! from it (and stops reading its socket when the staging buffer fills), so
//! one fast-spraying client cannot flood the worker queue. Replies re-enable
//! the connection. A connection also stops dispatching and reading while
//! it holds reply bytes its socket would not take, so a peer that pipelines
//! requests and never reads its replies costs at most the calls already in
//! flight plus what the kernel buffers hold. A malformed frame — bad
//! magic, wrong version, CRC mismatch, undecodable payload — closes exactly
//! that connection; calls in flight on other connections are untouched.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use ninf_obs::metrics::{Counter, Gauge};
use ninf_protocol::{encode_frame, CheckedFrame, Digest, Message};

use crate::conn::{Filled, FrameConn, ReadCounters, READ_CHUNK, STAGING_CAP};
use crate::sys::{Interest, PollEvent, Poller};

/// Tuning knobs for [`Reactor::start`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads running handlers. Handlers may block (the PE gate);
    /// size this at least as large as the PE count so queries keep flowing
    /// while compute is saturated.
    pub workers: usize,
    /// Calls in flight per connection before the reactor stops extracting
    /// frames from it.
    pub max_inflight_per_conn: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 8,
            max_inflight_per_conn: 128,
        }
    }
}

/// Observability hooks, all optional. Cloned atomic handles — the reactor
/// updates them inline.
#[derive(Debug, Clone, Default)]
pub struct ReactorHooks {
    /// Set to the number of currently open connections.
    pub open_connections: Option<Gauge>,
    /// Set to the number of calls dispatched but not yet replied.
    pub inflight_calls: Option<Gauge>,
    /// Incremented once per connection torn down for a malformed frame.
    pub rejected_frames: Option<Counter>,
    /// Incremented once per socket `read` call.
    pub reads: Option<Counter>,
    /// Advanced by every byte copied from the read scratch buffer into a
    /// connection's staging (a large frame is read in place and adds only
    /// what arrived before its header was parsed).
    pub staged_copy_bytes: Option<Counter>,
}

/// One decoded request, as handed to the handler.
pub struct Request {
    /// Reactor-assigned connection id (stable for the connection's life).
    pub conn_id: u64,
    /// The caller's mux id; echoed verbatim on the reply frame.
    pub call_id: u64,
    /// The decoded message.
    pub message: Message,
    /// Per argument position of an `Invoke`/`SubmitJob`, the digest of a
    /// cacheable inline argument, computed in the frame check's CRC pass
    /// ([`ninf_protocol::CheckedFrame::digests`]); empty otherwise.
    pub digests: Vec<Option<Digest>>,
    /// Peer address, for logs.
    pub peer: SocketAddr,
    /// When the reactor took the frame off its connection — before it waits
    /// in the work queue for a worker.
    pub arrived: Instant,
}

/// Handler run on worker threads: returns the reply (None = no reply).
pub type Handler = Arc<dyn Fn(Request) -> Option<Message> + Send + Sync>;

enum Command {
    /// Encoded reply frame for a connection; also decrements its in-flight
    /// count. `bytes: None` means the handler had no reply (count only).
    Reply { conn: u64, bytes: Option<Vec<u8>> },
    /// Stop accepting new connections but keep serving existing ones.
    StopAccepting,
    /// Stop accepting and stop reading; serve out every call already
    /// dispatched, flush its reply, then drop the connections and exit.
    Stop,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Sends one byte down a socketpair to interrupt `Poller::wait`.
#[derive(Clone)]
struct Waker(Arc<UnixStream>);

impl Waker {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; all errors are
        // ignorable.
        let _ = (&*self.0).write(&[1u8]);
    }
}

struct Conn {
    io: FrameConn,
    peer: SocketAddr,
    /// Calls dispatched to workers, not yet replied.
    inflight: usize,
}

/// A running reactor. Dropping the handle stops it.
pub struct ReactorHandle {
    local_addr: SocketAddr,
    cmd_tx: Sender<Command>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The listener's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting new connections; existing connections keep being
    /// served (the drain phase of a graceful shutdown).
    pub fn stop_accepting(&self) {
        let _ = self.cmd_tx.send(Command::StopAccepting);
        self.waker.wake();
    }

    /// Tear everything down and join the reactor and worker threads. Calls
    /// already dispatched to workers are served out and their replies
    /// flushed before the sockets close — nothing is cut off mid-reply —
    /// so this blocks for as long as the slowest in-flight handler runs.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let _ = self.cmd_tx.send(Command::Stop);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_inner();
        }
    }
}

/// The event loop plus its worker pool.
pub struct Reactor;

impl Reactor {
    /// Take ownership of `listener` and serve it until shutdown.
    pub fn start(
        listener: TcpListener,
        config: ReactorConfig,
        handler: Handler,
        hooks: ReactorHooks,
    ) -> io::Result<ReactorHandle> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let waker = Waker(Arc::new(wake_tx));

        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let (work_tx, work_rx) = unbounded::<Request>();
        // The shim's receiver is not cloneable; workers share it behind an
        // Arc (recv takes &self).
        let work_rx = Arc::new(work_rx);

        let inflight_total = Arc::new(AtomicI64::new(0));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let work_rx: Arc<Receiver<Request>> = work_rx.clone();
                let cmd_tx = cmd_tx.clone();
                let waker = waker.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("ninf-worker-{i}"))
                    .spawn(move || {
                        while let Ok(req) = work_rx.recv() {
                            let conn = req.conn_id;
                            let call_id = req.call_id;
                            let reply = handler(req);
                            let bytes = reply
                                .as_ref()
                                .and_then(|msg| encode_frame(call_id, msg).ok());
                            if cmd_tx.send(Command::Reply { conn, bytes }).is_err() {
                                break;
                            }
                            waker.wake();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        drop(work_rx);

        let mut state = Loop {
            poller: Poller::new()?,
            listener,
            wake_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            cmd_rx,
            work_tx,
            config,
            hooks,
            inflight_total,
            accepting: true,
            draining: false,
            scratch: vec![0; READ_CHUNK],
        };
        state
            .poller
            .register(state.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        state
            .poller
            .register(state.wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

        let thread = std::thread::Builder::new()
            .name("ninf-reactor".into())
            .spawn(move || state.run())?;

        Ok(ReactorHandle {
            local_addr,
            cmd_tx,
            waker,
            thread: Some(thread),
            workers,
        })
    }
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    cmd_rx: Receiver<Command>,
    work_tx: Sender<Request>,
    config: ReactorConfig,
    hooks: ReactorHooks,
    inflight_total: Arc<AtomicI64>,
    accepting: bool,
    /// Stop requested: no new reads, exit once in-flight work is served out
    /// and every reply flushed.
    draining: bool,
    /// Every connection's reads pass through this one buffer.
    scratch: Vec<u8>,
}

impl Loop {
    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            events.clear();
            let tick = Duration::from_millis(500);
            if self.poller.wait(&mut events, tick).is_err() {
                break;
            }
            // Wake bytes, then commands, then socket events. A worker queues
            // its command before it writes its wake byte, so a command this
            // turn's drain misses still has a byte left to end the next
            // wait. (Read the other way round, a reply queued between the
            // two reads loses its byte and waits out the 500 ms poll.)
            // Commands go before events: replies free in-flight slots,
            // which can re-enable paused connections before their events
            // process.
            if events.iter().any(|ev| ev.token == TOKEN_WAKER) {
                self.drain_waker();
            }
            self.drain_commands();
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {}
                    token => self.conn_ready(token, ev),
                }
            }
            if self.draining
                && self.inflight_total.load(Ordering::Relaxed) == 0
                && self.conns.values().all(|c| !c.io.has_writes())
            {
                break;
            }
        }
        // Teardown: deregister and drop every connection.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close_conn(t);
        }
    }

    fn drain_commands(&mut self) {
        while let Ok(Some(cmd)) = self.cmd_rx.try_recv() {
            match cmd {
                Command::Reply { conn, bytes } => self.handle_reply(conn, bytes),
                Command::StopAccepting => self.stop_accepting(),
                Command::Stop => {
                    self.stop_accepting();
                    self.draining = true;
                    // Drop read interest everywhere: dispatched calls finish,
                    // but no new frames enter.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for t in tokens {
                        self.update_interest(t);
                    }
                }
            }
        }
    }

    fn stop_accepting(&mut self) {
        if self.accepting {
            self.accepting = false;
            let _ = self.poller.deregister(self.listener.as_raw_fd());
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let Ok(io) = FrameConn::register(stream, &mut self.poller, token) else {
                        continue;
                    };
                    let io = io.counting(ReadCounters {
                        reads: self.hooks.reads.clone(),
                        staged_copy_bytes: self.hooks.staged_copy_bytes.clone(),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            io,
                            peer,
                            inflight: 0,
                        },
                    );
                    self.set_open_gauge();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        if ev.error && !ev.readable {
            self.close_conn(token);
            return;
        }
        // Draining the queued replies lets staged frames dispatch again.
        if ev.writable && !(self.flush_writes(token) && self.extract_frames(token)) {
            return;
        }
        if ev.readable {
            self.read_ready(token);
        }
    }

    /// Pull bytes off the socket, extracting frames after every read.
    fn read_ready(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.io.interest().readable {
                // Paused by backpressure; leave the bytes in the kernel.
                return;
            }
            if conn.io.staged() >= STAGING_CAP {
                self.update_interest(token);
                return;
            }
            match conn.io.read(&mut self.scratch) {
                Filled::Bytes => {
                    if !self.extract_frames(token) {
                        return;
                    }
                }
                Filled::WouldBlock => return,
                Filled::Closed => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Slice complete frames off the staging buffer and dispatch them, up
    /// to the connection's in-flight cap. Returns false if the connection
    /// was closed (malformed frame).
    fn extract_frames(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut dispatched: Vec<Request> = Vec::new();
        let mut bad = false;
        let arrived = Instant::now();
        // Nothing more dispatches while replies wait for the socket (see the
        // module docs: the slow-reader bound).
        while conn.inflight + dispatched.len() < self.config.max_inflight_per_conn
            && !conn.io.has_writes()
        {
            match conn.io.next_frame() {
                Ok(Some((call_id, CheckedFrame { message, digests }))) => {
                    dispatched.push(Request {
                        conn_id: token,
                        call_id,
                        message,
                        digests,
                        peer: conn.peer,
                        arrived,
                    })
                }
                Ok(None) => break,
                Err(_) => {
                    bad = true;
                    break;
                }
            }
        }
        conn.inflight += dispatched.len();
        let n = dispatched.len() as i64;
        if n > 0 {
            self.inflight_total.fetch_add(n, Ordering::Relaxed);
            self.set_inflight_gauge();
            for req in dispatched {
                let _ = self.work_tx.send(req);
            }
        }
        if bad {
            if let Some(c) = &self.hooks.rejected_frames {
                c.inc();
            }
            self.close_conn(token);
            return false;
        }
        self.update_interest(token);
        true
    }

    fn handle_reply(&mut self, token: u64, bytes: Option<Vec<u8>>) {
        self.inflight_total.fetch_sub(1, Ordering::Relaxed);
        self.set_inflight_gauge();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        if let Some(b) = bytes {
            conn.io.queue(b);
        }
        // Freed an in-flight slot: frames may already be staged.
        if self.flush_writes(token) {
            self.extract_frames(token);
        }
    }

    /// Write queued reply bytes until drained or WouldBlock. Returns false
    /// if the connection was closed.
    fn flush_writes(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.io.flush().is_err() {
            self.close_conn(token);
            return false;
        }
        self.update_interest(token);
        true
    }

    /// Recompute a connection's poller interest from its state: read while
    /// under the in-flight and staging caps and no reply waits for the
    /// socket, write while replies are queued.
    fn update_interest(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            let want = Interest {
                readable: !self.draining
                    && conn.inflight < self.config.max_inflight_per_conn
                    && conn.io.staged() < STAGING_CAP
                    && !conn.io.has_writes(),
                writable: conn.io.has_writes(),
            };
            conn.io.set_interest(&mut self.poller, token, want);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.io.deregister(&mut self.poller);
            // Calls still in flight on this connection will decrement the
            // global gauge when their Reply commands arrive (the per-conn
            // count dies with the conn).
            self.set_open_gauge();
        }
    }

    fn set_open_gauge(&self) {
        if let Some(g) = &self.hooks.open_connections {
            g.set(self.conns.len() as f64);
        }
    }

    fn set_inflight_gauge(&self) {
        if let Some(g) = &self.hooks.inflight_calls {
            g.set(self.inflight_total.load(Ordering::Relaxed).max(0) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpTransport;
    use ninf_protocol::{read_frame_mux, write_frame_mux, ProtocolResult, Transport};
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::time::Duration;

    fn echo_handler() -> Handler {
        Arc::new(|req: Request| match req.message {
            Message::QueryInterface { routine } => Some(Message::Error {
                reason: format!("echo:{routine}"),
            }),
            Message::QueryLoad => Some(Message::Error {
                reason: "load".into(),
            }),
            other => Some(Message::Error {
                reason: format!("unhandled {other:?}"),
            }),
        })
    }

    fn start_echo() -> ReactorHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            ReactorConfig::default(),
            echo_handler(),
            ReactorHooks::default(),
        )
        .unwrap()
    }

    #[test]
    fn sequential_transport_client_is_served() {
        let handle = start_echo();
        let mut t = TcpTransport::connect(&handle.local_addr().to_string()).unwrap();
        t.send(&Message::QueryInterface {
            routine: "ep".into(),
        })
        .unwrap();
        let reply = t.recv().unwrap();
        assert_eq!(
            reply,
            Message::Error {
                reason: "echo:ep".into()
            }
        );
        handle.shutdown();
    }

    #[test]
    fn replies_echo_the_request_call_id() {
        let handle = start_echo();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Many in-flight calls on one stream, ids far apart.
        let ids = [3u64, 9, 1_000_000_007, u64::MAX - 1];
        for &id in &ids {
            write_frame_mux(
                &mut writer,
                id,
                &Message::QueryInterface {
                    routine: format!("r{id}"),
                },
            )
            .unwrap();
        }
        let mut got: Vec<u64> = Vec::new();
        for _ in &ids {
            let (id, msg) = read_frame_mux(&mut reader).unwrap();
            assert_eq!(
                msg,
                Message::Error {
                    reason: format!("echo:r{id}")
                },
                "reply payload must match its id"
            );
            got.push(id);
        }
        got.sort_unstable();
        let mut want = ids.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        handle.shutdown();
    }

    #[test]
    fn malformed_frame_closes_only_that_connection() {
        let hooks = ReactorHooks {
            rejected_frames: Some(Counter::default()),
            ..Default::default()
        };
        let rejected = hooks.rejected_frames.clone().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle =
            Reactor::start(listener, ReactorConfig::default(), echo_handler(), hooks).unwrap();
        let addr = handle.local_addr().to_string();

        // Healthy connection A.
        let mut a = TcpTransport::connect(&addr).unwrap();
        a.send(&Message::QueryLoad).unwrap();
        a.recv().unwrap();

        // Connection B sends garbage and dies.
        let mut b = TcpTransport::connect(&addr).unwrap();
        b.send_raw(b"NOT A FRAME AT ALL........").unwrap();
        b.set_deadline(Some(Duration::from_secs(5))).unwrap();
        assert!(b.recv().is_err(), "poisoned connection must be closed");

        // A still works.
        a.send(&Message::QueryLoad).unwrap();
        a.recv().unwrap();
        assert_eq!(rejected.get(), 1);
        handle.shutdown();
    }

    /// Exactly-once behind a bad frame: a frame that fails its CRC and a
    /// valid `Invoke` arriving in the same read dispatch nothing — the
    /// frame check runs, and closes the connection, before anything
    /// behind it is extracted.
    #[test]
    fn nothing_dispatches_behind_a_bad_frame() {
        let invokes = Arc::new(AtomicI64::new(0));
        let seen = Arc::clone(&invokes);
        let handler: Handler = Arc::new(move |req: Request| {
            if matches!(req.message, Message::Invoke { .. }) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            Some(Message::QueryLoad)
        });
        let hooks = ReactorHooks {
            rejected_frames: Some(Counter::default()),
            ..Default::default()
        };
        let rejected = hooks.rejected_frames.clone().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = Reactor::start(listener, ReactorConfig::default(), handler, hooks).unwrap();
        let addr = handle.local_addr().to_string();

        let mut a = TcpTransport::connect(&addr).unwrap();
        a.send(&Message::QueryLoad).unwrap();
        a.recv().unwrap();

        let invoke = Message::Invoke {
            routine: "dgesl".into(),
            args: ninf_protocol::Arg::inline(vec![ninf_protocol::Value::DoubleArray(vec![
                0.5;
                256
            ])]),
            trace: None,
        };
        let mut bad = encode_frame(1, &invoke).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let both = [bad, encode_frame(2, &invoke).unwrap()].concat();
        let mut b = TcpStream::connect(handle.local_addr()).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        b.write_all(&both).unwrap();
        let mut reply = Vec::new();
        match b.read_to_end(&mut reply) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("the connection must close without a reply, got {other:?}"),
        }

        a.send(&Message::QueryLoad).unwrap();
        a.recv().unwrap();
        assert_eq!(invokes.load(Ordering::SeqCst), 0);
        assert_eq!(rejected.get(), 1);
        handle.shutdown();
    }

    #[test]
    fn gauges_track_connections_and_inflight() {
        let hooks = ReactorHooks {
            open_connections: Some(Gauge::default()),
            inflight_calls: Some(Gauge::default()),
            ..Default::default()
        };
        let open = hooks.open_connections.clone().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle =
            Reactor::start(listener, ReactorConfig::default(), echo_handler(), hooks).unwrap();
        let addr = handle.local_addr().to_string();
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(&Message::QueryLoad).unwrap();
        t.recv().unwrap();
        assert_eq!(open.get(), 1.0);
        drop(t);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while open.get() > 0.0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(open.get(), 0.0, "close must be observed");
        handle.shutdown();
    }

    #[test]
    fn stop_accepting_refuses_new_but_serves_existing() {
        let handle = start_echo();
        let addr = handle.local_addr().to_string();
        let mut existing = TcpTransport::connect(&addr).unwrap();
        existing.send(&Message::QueryLoad).unwrap();
        existing.recv().unwrap();

        handle.stop_accepting();
        std::thread::sleep(Duration::from_millis(50));

        // Existing connection still works.
        existing.send(&Message::QueryLoad).unwrap();
        existing.recv().unwrap();

        // A new connection may complete the TCP handshake (backlog) but
        // must never be served.
        let probe: ProtocolResult<Message> = (|| {
            let mut t =
                TcpTransport::connect_with_deadline(&addr, Some(Duration::from_millis(300)))?;
            t.set_deadline(Some(Duration::from_millis(300)))?;
            t.send(&Message::QueryLoad)?;
            t.recv()
        })();
        assert!(probe.is_err(), "new connections must not be served");
        handle.shutdown();
    }

    #[test]
    fn per_conn_inflight_cap_still_completes_all_calls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = Reactor::start(
            listener,
            ReactorConfig {
                workers: 2,
                max_inflight_per_conn: 4,
            },
            echo_handler(),
            ReactorHooks::default(),
        )
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Burst far above the cap: backpressure must pace, not deadlock.
        let total = 64u64;
        let w = std::thread::spawn(move || {
            for id in 1..=total {
                write_frame_mux(&mut writer, id, &Message::QueryLoad).unwrap();
            }
        });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..total {
            let (id, _) = read_frame_mux(&mut reader).unwrap();
            assert!(seen.insert(id), "duplicate reply id {id}");
        }
        w.join().unwrap();
        assert_eq!(seen.len(), total as usize);
        handle.shutdown();
    }

    /// A slow reader. A peer pipelines far more requests than the
    /// in-flight cap, each answered by a large reply, and never reads.
    /// Once the kernel buffers fill, the connection stops dispatching, so
    /// the handler runs a bounded number of times instead of once per
    /// request with every reply queued in the server's memory.
    #[test]
    fn a_peer_that_never_reads_runs_a_bounded_number_of_calls() {
        const REQUESTS: usize = 400;
        const REPLY_BYTES: usize = 256 * 1024;
        let runs = Arc::new(AtomicI64::new(0));
        let counted = Arc::clone(&runs);
        let handler: Handler = Arc::new(move |_req: Request| {
            counted.fetch_add(1, Ordering::SeqCst);
            Some(Message::Error {
                reason: "x".repeat(REPLY_BYTES),
            })
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = Reactor::start(
            listener,
            ReactorConfig {
                workers: 2,
                max_inflight_per_conn: 4,
            },
            handler,
            ReactorHooks::default(),
        )
        .unwrap();
        let mut peer = TcpStream::connect(handle.local_addr()).unwrap();
        let burst: Vec<u8> = (1..=REQUESTS as u64)
            .flat_map(|id| encode_frame(id, &Message::QueryLoad).unwrap())
            .collect();
        peer.write_all(&burst).unwrap();
        // Wait until the count has held still for half a second.
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        let mut last = -1;
        while std::time::Instant::now() < give_up {
            let now = runs.load(Ordering::SeqCst);
            if now == last {
                break;
            }
            last = now;
            std::thread::sleep(Duration::from_millis(500));
        }
        let ran = runs.load(Ordering::SeqCst) as usize;
        assert!(
            ran < REQUESTS / 4,
            "{ran} of {REQUESTS} calls ran for a peer that reads nothing"
        );
        drop(peer);
        handle.shutdown();
    }

    /// A lost wake-up. The second call of each pair replies from its
    /// worker just after the loop has taken the first call's reply off the
    /// command queue (the in-flight gauge dropping to one is the signal),
    /// at a delay swept across rounds. If the loop read the waker after
    /// its command queue, a reply landing between the two reads would have
    /// its wake byte eaten and sit queued until the next event or the
    /// poll's 500 ms timeout: the pair's round trip would stall.
    #[test]
    fn a_reply_racing_the_waker_drain_is_not_lost() {
        let hooks = ReactorHooks {
            inflight_calls: Some(Gauge::default()),
            ..Default::default()
        };
        let inflight = hooks.inflight_calls.clone().unwrap();
        let handler: Handler = Arc::new(move |req: Request| {
            if req.call_id.is_multiple_of(2) {
                let give_up = std::time::Instant::now() + Duration::from_secs(1);
                while inflight.get() > 1.0 && std::time::Instant::now() < give_up {
                    std::hint::spin_loop();
                }
                let delay = Duration::from_nanos(100 * (req.call_id / 2 % 200));
                let until = std::time::Instant::now() + delay;
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            Some(Message::QueryLoad)
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = Reactor::start(listener, ReactorConfig::default(), handler, hooks).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let rounds = 2048u64;
        for round in 0..rounds {
            // Both frames in one write, so the loop dispatches them together.
            let mut pair = encode_frame(2 * round + 1, &Message::QueryLoad).unwrap();
            pair.extend(encode_frame(2 * round + 2, &Message::QueryLoad).unwrap());
            let start = std::time::Instant::now();
            writer.write_all(&pair).unwrap();
            for _ in 0..2 {
                read_frame_mux(&mut reader).unwrap();
            }
            let took = start.elapsed();
            assert!(
                took < Duration::from_millis(400),
                "round {round} of {rounds} stalled {took:?}"
            );
        }
        handle.shutdown();
    }
}
