//! Client-side stream multiplexing: one TCP connection, many in-flight
//! calls.
//!
//! A [`MuxStream`] owns the socket, a monotone call-id allocator, and a
//! demux reader thread; [`MuxHandle`]s are checked out per logical client
//! and implement [`Transport`], so `NinfClient` works over a shared stream
//! unchanged. Through `Transport` a handle does strict send→recv pairs (the
//! Ninf RPC shape); through [`Pipelined`] one handle keeps several calls
//! open (a bulk lane's sliding window of chunks). Either way many handles
//! interleave freely on the wire — the server replies in completion order
//! and the reader routes each reply to its caller by call id.
//!
//! Teardown is the contract the pool relies on: any stream-level error
//! (socket death, a reply that fails CRC or decode) poisons the stream,
//! fails exactly the calls in flight on it with a retryable
//! [`ProtocolError::Disconnected`], and marks it dead so the pool evicts it
//! on next checkout. Calls on other streams never notice.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ninf_protocol::{
    read_frame_mux, FrameFn, Message, Pipelined, ProtocolError, ProtocolResult, Transport,
};

/// Default bound on concurrently in-flight calls per stream.
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// One demuxed reply (or the stream's death), tagged with its call id.
type Reply = (u64, ProtocolResult<Message>);
type ReplySlot = Sender<Reply>;

struct State {
    /// Call id → reply slot for every call awaiting its reply.
    pending: HashMap<u64, ReplySlot>,
    /// Calls admitted (slot held) — bounded by `max_inflight`.
    inflight: usize,
    /// Set once on the first stream-level error; the stream never recovers.
    dead: Option<String>,
}

struct Shared {
    stream: TcpStream,
    /// Whole frames go down under this lock, one `write_all` each.
    writer: Mutex<TcpStream>,
    state: Mutex<State>,
    /// Signals slot releases and stream death.
    cv: Condvar,
    next_id: AtomicU64,
    max_inflight: usize,
}

impl Shared {
    /// Fail every pending call and mark the stream dead. Idempotent; the
    /// first reason wins.
    fn poison(&self, reason: &str) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.dead.is_none() {
            st.dead = Some(reason.to_string());
        }
        for (call_id, slot) in st.pending.drain() {
            let _ = slot.send((call_id, Err(ProtocolError::Disconnected)));
        }
        self.cv.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A multiplexed client connection. Dropping it shuts the socket down,
/// which terminates the reader thread.
pub struct MuxStream {
    shared: Arc<Shared>,
}

impl MuxStream {
    /// Dial `addr` (with an optional connect/IO deadline) and start the
    /// demux reader.
    pub fn connect(
        addr: &str,
        deadline: Option<Duration>,
        max_inflight: usize,
    ) -> ProtocolResult<MuxStream> {
        let stream = crate::conn::dial(addr, deadline)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let reader = BufReader::new(stream.try_clone()?);
        let shared = Arc::new(Shared {
            stream,
            writer: Mutex::new(writer),
            state: Mutex::new(State {
                pending: HashMap::new(),
                inflight: 0,
                dead: None,
            }),
            cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_inflight: max_inflight.max(1),
        });
        let demux = shared.clone();
        std::thread::Builder::new()
            .name("ninf-mux-reader".into())
            .spawn(move || run_reader(demux, reader))
            .map_err(ProtocolError::Io)?;
        Ok(MuxStream { shared })
    }

    /// Check out a handle: one logical client on this stream.
    pub fn handle(&self) -> MuxHandle {
        let (reply_slot, replies) = unbounded();
        MuxHandle {
            shared: self.shared.clone(),
            deadline: None,
            replies,
            reply_slot,
            open: Vec::new(),
        }
    }

    /// Whether a stream-level error has poisoned this stream.
    pub fn is_dead(&self) -> bool {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .dead
            .is_some()
    }

    /// Calls currently in flight.
    pub fn inflight(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .inflight
    }
}

impl Drop for MuxStream {
    fn drop(&mut self) {
        self.shared.poison("stream dropped");
    }
}

fn run_reader(shared: Arc<Shared>, mut reader: BufReader<TcpStream>) {
    loop {
        match read_frame_mux(&mut reader) {
            Ok((call_id, msg)) => {
                let slot = {
                    let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    st.pending.remove(&call_id)
                };
                // A missing slot means the caller abandoned the call
                // (deadline fired); the late reply is dropped.
                if let Some(slot) = slot {
                    let _ = slot.send((call_id, Ok(msg)));
                }
            }
            Err(e) => {
                shared.poison(&e.to_string());
                return;
            }
        }
    }
}

/// One logical client's view of a [`MuxStream`]. Natively it holds any
/// number of calls open at once ([`Pipelined`]: `post` a request, take
/// replies in arrival order from `recv_any`, `forget` a ticket to give up
/// on it), under per-call deadlines and the stream's bounded admission.
/// [`Transport`]'s strict send→recv pairing is written on top: `send`
/// abandons whatever was still open, `recv` waits for the latest ticket.
pub struct MuxHandle {
    shared: Arc<Shared>,
    deadline: Option<Duration>,
    /// This handle's end of the demux: every reply (or stream death) for
    /// one of its tickets lands here, tagged with the ticket.
    replies: Receiver<Reply>,
    reply_slot: ReplySlot,
    /// Tickets admitted and neither answered nor forgotten, oldest first.
    open: Vec<u64>,
}

impl MuxHandle {
    /// Admit one call: wait for an in-flight slot (bounded backpressure)
    /// until the deadline. Fails fast on a dead stream.
    fn acquire_slot(&self) -> ProtocolResult<()> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let limit = self.deadline.map(|d| Instant::now() + d);
        loop {
            if st.dead.is_some() {
                return Err(ProtocolError::Disconnected);
            }
            if st.inflight < self.shared.max_inflight {
                st.inflight += 1;
                return Ok(());
            }
            st = match limit {
                Some(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        return Err(ProtocolError::Timeout {
                            operation: "write",
                            after: self.deadline.unwrap_or_default(),
                        });
                    }
                    let (guard, timeout) = self
                        .shared
                        .cv
                        .wait_timeout(st, limit - now)
                        .unwrap_or_else(|e| e.into_inner());
                    if timeout.timed_out() && guard.inflight >= self.shared.max_inflight {
                        return Err(ProtocolError::Timeout {
                            operation: "write",
                            after: self.deadline.unwrap_or_default(),
                        });
                    }
                    guard
                }
                None => self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    /// Release an admission slot (reply received, timed out, or abandoned).
    fn release_slot(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.inflight = st.inflight.saturating_sub(1);
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Open one call: take an admission slot, a fresh call id, and a place
    /// in the demux table. The id is the call's ticket.
    fn admit(&mut self) -> ProtocolResult<u64> {
        self.acquire_slot()?;
        let call_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.dead.is_some() {
                drop(st);
                self.release_slot();
                return Err(ProtocolError::Disconnected);
            }
            st.pending.insert(call_id, self.reply_slot.clone());
        }
        self.open.push(call_id);
        Ok(call_id)
    }

    /// Forget every open ticket.
    fn abandon_open(&mut self) {
        for ticket in std::mem::take(&mut self.open) {
            self.close(ticket);
        }
    }

    /// Unregister a ticket already taken off `open` and free its slot.
    fn close(&self, ticket: u64) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.pending.remove(&ticket);
        drop(st);
        self.release_slot();
    }

    /// The next reply to an open ticket, waiting at most `wait` (forever on
    /// `None`). Replies to forgotten tickets are skipped.
    fn next_reply(&mut self, wait: Option<Duration>) -> ProtocolResult<(u64, Message)> {
        let limit = wait.map(|d| Instant::now() + d);
        loop {
            let got = match limit {
                Some(limit) => self
                    .replies
                    .recv_timeout(limit.saturating_duration_since(Instant::now())),
                None => self
                    .replies
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match got {
                Ok((ticket, result)) => {
                    let Some(at) = self.open.iter().position(|&t| t == ticket) else {
                        continue;
                    };
                    // The demux reader (or `poison`) already took the
                    // ticket out of the table; only the slot remains.
                    self.open.remove(at);
                    self.release_slot();
                    return result.map(|msg| (ticket, msg));
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ProtocolError::Timeout {
                        operation: "read",
                        after: wait.unwrap_or_default(),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ProtocolError::Disconnected),
            }
        }
    }

    /// Block until the stream dies or the deadline passes — the receive
    /// path when the request never made it onto the wire (a send the fault
    /// layer swallowed). Mirrors a TCP read timeout on a silent peer.
    fn wait_for_nothing(&self) -> ProtocolError {
        let limit = self.deadline.map(|d| Instant::now() + d);
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.dead.is_some() {
                return ProtocolError::Disconnected;
            }
            match limit {
                Some(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        return ProtocolError::Timeout {
                            operation: "read",
                            after: self.deadline.unwrap_or_default(),
                        };
                    }
                    let (guard, _) = self
                        .shared
                        .cv
                        .wait_timeout(st, limit - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
                None => {
                    st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}

impl Transport for MuxHandle {
    /// A fresh send abandons any reply still owed to this handle — the
    /// same semantics as writing a new request down a plain socket. The
    /// frame is encoded before the stream's writer lock is taken.
    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        self.abandon_open();
        let (_, frame) = self.stage(encode)?;
        self.send_raw(&frame)
    }

    /// The reply to the latest ticket; older ones still open are abandoned
    /// here, which is where a strict caller that sent through
    /// [`Transport::stage`] (the link model) meets `send`'s rule.
    fn recv(&mut self) -> ProtocolResult<Message> {
        // Nothing open (e.g. the fault layer dropped the send): behave
        // like a blocking read on a silent peer.
        let Some(latest) = self.open.pop() else {
            return Err(self.wait_for_nothing());
        };
        self.abandon_open();
        self.open.push(latest);
        self.next_reply(self.deadline)
            .map(|(_, msg)| msg)
            .inspect_err(|_| self.abandon_open())
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        self.deadline = deadline;
        Ok(true)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        use std::io::Write;
        let mut w = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = self.shared.stream.set_write_timeout(self.deadline);
        let res = w.write_all(bytes);
        drop(w);
        // A partially-written frame poisons the whole stream: the server's
        // framing is now out of sync for every caller.
        if let Err(e) = res {
            self.shared.poison(&e.to_string());
            return Err(ProtocolError::Io(e));
        }
        Ok(())
    }

    fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
        let call_id = self.admit()?;
        match encode(call_id) {
            Ok(frame) => Ok((call_id, frame)),
            Err(e) => {
                self.forget(call_id);
                Err(e)
            }
        }
    }
}

impl Pipelined for MuxHandle {
    fn recv_any(&mut self, wait: Duration) -> ProtocolResult<(u64, Message)> {
        self.next_reply(Some(wait))
    }

    fn forget(&mut self, ticket: u64) {
        if let Some(at) = self.open.iter().position(|&t| t == ticket) {
            self.open.remove(at);
            self.close(ticket);
        }
    }
}

impl Drop for MuxHandle {
    fn drop(&mut self) {
        self.abandon_open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{Arg, Value};
    use std::net::TcpListener;
    use std::sync::Arc as StdArc;

    use crate::reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks};

    /// Echo server: replies `ResultData` carrying the Int arg back.
    fn echo_server() -> ReactorHandle {
        let handler: Handler = StdArc::new(|req: crate::reactor::Request| match req.message {
            Message::Invoke { args, .. } => Some(Message::ResultData {
                results: Arg::into_values(args).expect("inline"),
            }),
            Message::QueryLoad => None, // exercise the no-reply path
            _ => Some(Message::Error {
                reason: "unexpected".into(),
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )
        .unwrap()
    }

    fn invoke(tag: i32) -> Message {
        Message::Invoke {
            routine: "echo".into(),
            args: Arg::inline(vec![Value::Int(tag)]),
            trace: None,
        }
    }

    #[test]
    fn concurrent_handles_demux_to_the_right_caller() {
        let server = echo_server();
        let stream = MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            DEFAULT_MAX_INFLIGHT,
        )
        .unwrap();
        let threads: Vec<_> = (0..16)
            .map(|i| {
                let mut h = stream.handle();
                std::thread::spawn(move || {
                    h.set_deadline(Some(Duration::from_secs(5))).unwrap();
                    for round in 0..8 {
                        let tag = i * 1000 + round;
                        h.send(&invoke(tag)).unwrap();
                        match h.recv().unwrap() {
                            Message::ResultData { results } => {
                                assert_eq!(results, vec![Value::Int(tag)], "cross-talk!")
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn dead_stream_fails_inflight_calls_retryably() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let stream = MuxStream::connect(&addr, Some(Duration::from_secs(5)), 8).unwrap();
        let mut waiting = stream.handle();
        waiting.set_deadline(Some(Duration::from_secs(10))).unwrap();
        // QueryLoad gets no reply from this handler, so the call hangs in
        // flight until the stream dies underneath it.
        waiting.send(&Message::QueryLoad).unwrap();
        let waiter = std::thread::spawn(move || waiting.recv());

        std::thread::sleep(Duration::from_millis(50));
        // Poison the stream: send garbage; the server kills the connection
        // and the reader thread observes EOF.
        let mut poisoner = stream.handle();
        poisoner.send_raw(b"garbage that is not a frame").unwrap();

        let err = waiter.join().unwrap().unwrap_err();
        assert!(
            err.is_retryable(),
            "stream failure must be retryable: {err}"
        );
        assert!(stream.is_dead());

        // Future sends fail fast.
        let mut h = stream.handle();
        assert!(h.send(&invoke(1)).is_err());
        server.shutdown();
    }

    #[test]
    fn inflight_bound_blocks_then_times_out() {
        let server = echo_server();
        let stream = MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            1,
        )
        .unwrap();
        let mut first = stream.handle();
        first.set_deadline(Some(Duration::from_secs(5))).unwrap();
        first.send(&Message::QueryLoad).unwrap(); // never replied: slot held

        let mut second = stream.handle();
        second
            .set_deadline(Some(Duration::from_millis(100)))
            .unwrap();
        let err = second.send(&invoke(2)).unwrap_err();
        assert!(err.is_timeout(), "admission must time out, got {err}");
        server.shutdown();
    }

    #[test]
    fn dropped_send_times_out_like_a_silent_peer() {
        let server = echo_server();
        let stream = MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            8,
        )
        .unwrap();
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_millis(80))).unwrap();
        // recv with nothing outstanding — the shape of a send the link model lost.
        let err = h.recv().unwrap_err();
        assert!(err.is_timeout(), "expected timeout, got {err}");
        server.shutdown();
    }

    #[test]
    fn one_handle_holds_several_calls_open_and_takes_replies_in_any_order() {
        let server = echo_server();
        let stream = MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            4,
        )
        .unwrap();
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        let mut owed: HashMap<u64, i32> = (0..3)
            .map(|tag| (h.post(&invoke(tag)).unwrap(), tag))
            .collect();
        assert_eq!(owed.len(), 3, "one ticket per post");
        assert_eq!(stream.inflight(), 3);
        while !owed.is_empty() {
            let (ticket, reply) = h.recv_any(Duration::from_secs(5)).unwrap();
            let tag = owed.remove(&ticket).expect("a ticket this handle posted");
            assert_eq!(
                reply,
                Message::ResultData {
                    results: vec![Value::Int(tag)]
                }
            );
        }
        assert_eq!(stream.inflight(), 0);

        // A wait that runs out abandons nothing; `forget` does.
        let silent = h.post(&Message::QueryLoad).unwrap();
        let answered = h.post(&invoke(7)).unwrap();
        assert_eq!(h.recv_any(Duration::from_secs(5)).unwrap().0, answered);
        let err = h.recv_any(Duration::from_millis(50)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert_eq!(stream.inflight(), 1);
        h.forget(silent);
        assert_eq!(stream.inflight(), 0);

        // The strict pairing on the same handle: a `send` abandons what
        // was open, and `recv` is the reply to that send.
        h.post(&Message::QueryLoad).unwrap();
        h.send(&invoke(9)).unwrap();
        assert_eq!(stream.inflight(), 1);
        assert_eq!(
            h.recv().unwrap(),
            Message::ResultData {
                results: vec![Value::Int(9)]
            }
        );
        server.shutdown();
    }

    #[test]
    fn call_ids_are_monotone_per_stream() {
        let server = echo_server();
        let stream = MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            DEFAULT_MAX_INFLIGHT,
        )
        .unwrap();
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        let before = stream.shared.next_id.load(Ordering::Relaxed);
        for i in 0..5 {
            h.send(&invoke(i)).unwrap();
            h.recv().unwrap();
        }
        let after = stream.shared.next_id.load(Ordering::Relaxed);
        assert_eq!(after, before + 5, "one fresh id per call, strictly rising");
        server.shutdown();
    }
}
