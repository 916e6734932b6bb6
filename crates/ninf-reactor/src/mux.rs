//! `MuxStream`: a dialed socket whose [`MuxStream::handle`] is a client
//! connection ([`TcpTransport`]) over it.
//!
//! Nothing in the workspace dials through it: every client connection is a
//! [`TcpTransport`]. It stays, dial-only, because the frozen benchmark
//! harness (`bench/src/replay.rs`) drives its reactor echo through it, and
//! goes when a `[benchmark]` change moves that harness to
//! [`TcpTransport::connect`].

use std::net::TcpStream;
use std::time::Duration;

use ninf_protocol::ProtocolResult;

use crate::conn::{dial, TcpTransport};

/// A dialed socket. Dropping it closes the socket.
pub struct MuxStream {
    stream: TcpStream,
}

impl MuxStream {
    /// Dial `addr`, within `deadline` when there is one. The third
    /// argument, once a bound on calls in flight, is ignored: a connection
    /// holds as many tickets open as its caller stages.
    pub fn connect(
        addr: &str,
        deadline: Option<Duration>,
        _max_inflight: usize,
    ) -> ProtocolResult<MuxStream> {
        Ok(MuxStream {
            stream: dial(addr, deadline)?,
        })
    }

    /// A client connection over this socket. One handle at a time: two
    /// would read each other's replies.
    ///
    /// # Panics
    ///
    /// If the process is out of file descriptors.
    pub fn handle(&self) -> TcpTransport {
        self.stream
            .try_clone()
            .map_err(Into::into)
            .and_then(TcpTransport::new)
            .expect("a handle needs two file descriptors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{
        Arg, LinkShape, LinkTransport, Message, Pipelined, ProtocolError, Transport, Value,
    };
    use std::collections::HashMap;
    use std::net::TcpListener;
    use std::sync::Arc;

    use crate::reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks};

    /// Echo server: replies `ResultData` carrying the Int arg back.
    fn echo_server() -> ReactorHandle {
        let handler: Handler = Arc::new(|req: crate::reactor::Request| match req.message {
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

    fn echoed(tag: i32) -> Message {
        Message::ResultData {
            results: vec![Value::Int(tag)],
        }
    }

    fn dial_echo(server: &ReactorHandle) -> MuxStream {
        MuxStream::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(5)),
            1,
        )
        .unwrap()
    }

    #[test]
    fn dead_stream_fails_inflight_calls_retryably() {
        let server = echo_server();
        let stream = dial_echo(&server);
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_secs(10))).unwrap();
        // QueryLoad gets no reply from this handler, so both tickets stay
        // open until the connection dies underneath them.
        let first = h.post(&Message::QueryLoad).unwrap();
        let second = h.post(&Message::QueryLoad).unwrap();
        assert_ne!(first, second);
        // Garbage makes the server close the connection.
        h.send_raw(b"garbage that is not a frame").unwrap();
        let err = h.recv_any(Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Disconnected) && err.is_retryable(),
            "connection failure must be a retryable Disconnected: {err}"
        );
        // Every open ticket went with it, and later operations fail fast
        // (a wait would have ended in a timeout, not a disconnect).
        assert!(matches!(h.recv(), Err(ProtocolError::Disconnected)));
        assert!(matches!(
            h.send(&invoke(1)),
            Err(ProtocolError::Disconnected)
        ));
        server.shutdown();
    }

    #[test]
    fn dropped_send_times_out_like_a_silent_peer() {
        let server = echo_server();
        let stream = dial_echo(&server);
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_millis(80))).unwrap();
        // recv with nothing outstanding — the shape of a send the link model lost.
        let err = h.recv().unwrap_err();
        assert!(err.is_timeout(), "expected timeout, got {err}");

        // The link model losing the send itself: the frame never reaches
        // the server, and the reply's wait runs out.
        let lossy = LinkShape::parse("loss=1,seed=1").unwrap();
        let mut h = LinkTransport::private(stream.handle(), lossy);
        h.set_deadline(Some(Duration::from_millis(80))).unwrap();
        h.send(&invoke(3)).unwrap();
        match h.recv().unwrap_err() {
            ProtocolError::Timeout { operation, .. } => assert_eq!(operation, "read"),
            other => panic!("expected a read timeout, got {other}"),
        }
        assert_eq!(h.stats().lost, 1);
        server.shutdown();
    }

    #[test]
    fn one_handle_holds_several_calls_open_and_takes_replies_in_any_order() {
        let server = echo_server();
        let stream = dial_echo(&server);
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        let mut owed: HashMap<u64, i32> = (0..3)
            .map(|tag| (h.post(&invoke(tag)).unwrap(), tag))
            .collect();
        assert_eq!(owed.len(), 3, "one ticket per post");
        while !owed.is_empty() {
            let (ticket, reply) = h.recv_any(Duration::from_secs(5)).unwrap();
            let tag = owed.remove(&ticket).expect("a ticket this handle posted");
            assert_eq!(reply, echoed(tag));
        }

        // A wait that runs out abandons nothing; `forget` does, and the
        // forgotten ticket's late reply is dropped.
        let silent = h.post(&Message::QueryLoad).unwrap();
        let answered = h.post(&invoke(7)).unwrap();
        assert_eq!(h.recv_any(Duration::from_secs(5)).unwrap().0, answered);
        let err = h.recv_any(Duration::from_millis(50)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        h.forget(silent);
        let forgotten = h.post(&invoke(8)).unwrap();
        h.forget(forgotten);
        let kept = h.post(&invoke(9)).unwrap();
        assert_eq!(
            h.recv_any(Duration::from_secs(5)).unwrap(),
            (kept, echoed(9))
        );
        let err = h.recv_any(Duration::from_millis(50)).unwrap_err();
        assert!(
            err.is_timeout(),
            "a forgotten ticket's reply never comes out: {err}"
        );

        // The strict pairing on the same handle: a `send` abandons what
        // was open, and `recv` is the reply to that send.
        h.post(&invoke(10)).unwrap();
        h.send(&invoke(11)).unwrap();
        assert_eq!(h.recv().unwrap(), echoed(11));
        server.shutdown();
    }

    #[test]
    fn call_ids_are_monotone_per_stream() {
        let server = echo_server();
        let stream = dial_echo(&server);
        let mut h = stream.handle();
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        let mut last = 0;
        for i in 0..5 {
            let ticket = h.post(&invoke(i)).unwrap();
            assert!(ticket > last, "one fresh id per call, strictly rising");
            assert_eq!(h.recv_any(Duration::from_secs(5)).unwrap().0, ticket);
            last = ticket;
        }
        // A later handle on the same socket (one at a time) is served too.
        drop(h);
        let mut again = stream.handle();
        again.set_deadline(Some(Duration::from_secs(5))).unwrap();
        again.send(&invoke(5)).unwrap();
        assert_eq!(again.recv().unwrap(), echoed(5));
        server.shutdown();
    }
}
