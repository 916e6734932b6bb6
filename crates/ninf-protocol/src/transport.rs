//! Message transports: real TCP and an in-process channel pair, both with
//! optional per-operation deadlines.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use crate::error::{ProtocolError, ProtocolResult};
use crate::frame::{encode_frame, read_frame};
use crate::message::Message;

/// Encodes the frame for a given call id — what a transport runs once it
/// has taken the ticket the frame must carry (the call id is inside the
/// frame CRC, so a frame cannot be encoded before its ticket is known).
pub type FrameFn<'a> = &'a mut dyn FnMut(u64) -> ProtocolResult<Vec<u8>>;

/// A bidirectional, ordered, reliable message channel — what Ninf RPC
/// assumes of TCP.
///
/// Every send is one frame out of the one frame writer
/// ([`crate::frame`]): [`Transport::send`] encodes an owned message,
/// and a caller with borrowed data ([`crate::frame::encode_call`]) hands
/// its own encoder to [`Transport::send_frame`].
pub trait Transport: Send {
    /// Send one message (blocking until handed to the OS / peer).
    fn send(&mut self, msg: &Message) -> ProtocolResult<()> {
        self.send_frame(&mut |ticket| encode_frame(ticket, msg))
    }

    /// Receive the next message (blocking).
    fn recv(&mut self) -> ProtocolResult<Message>;

    /// Install (or clear) a per-operation I/O deadline. Subsequent `send`
    /// and `recv` calls that exceed it fail with
    /// [`ProtocolError::Timeout`]. Returns `false` if the transport cannot
    /// enforce deadlines (the default).
    fn set_deadline(&mut self, _deadline: Option<Duration>) -> ProtocolResult<bool> {
        Ok(false)
    }

    /// Send a pre-encoded byte sequence verbatim, bypassing framing. This is
    /// the fault-injection hook: [`crate::link::LinkTransport`] uses it to
    /// put truncated or garbled frames on the wire. Transports without a
    /// byte-level path reject it.
    fn send_raw(&mut self, _bytes: &[u8]) -> ProtocolResult<()> {
        Err(ProtocolError::Frame(
            "transport does not support raw frames".into(),
        ))
    }

    /// Take the ticket the next frame carries (its call id; 0 on
    /// transports that do not multiplex), arm the transport for its reply,
    /// and run `encode` for it — without writing anything. The ticket is
    /// what the reply carries out of [`Pipelined::recv_any`].
    /// [`crate::link::LinkTransport`] sends through this, so a frame is
    /// encoded once: its size paces the link and its bytes wait out the
    /// propagation delay. A transport meant to sit under one must
    /// therefore implement `send_raw` — with the default above, every
    /// shaped send fails, not only the garbled ones — and one that numbers
    /// its frames overrides this too.
    fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
        Ok((0, encode(0)?))
    }

    /// Send the frame `encode` writes for the next ticket: the strict
    /// one-request-one-reply send [`Transport::send`] is made of. The
    /// default stages the frame and writes it with
    /// [`Transport::send_raw`].
    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        let (_, frame) = self.stage(encode)?;
        self.send_raw(&frame)
    }
}

/// A transport that can hold several requests outstanding at once — what a
/// sliding window needs under it. [`Transport::send`]/[`Transport::recv`]
/// stay the strict one-request-one-reply pairing; these three do not pair.
pub trait Pipelined: Transport {
    /// Send `msg` and return the ticket its reply will carry. Earlier
    /// tickets stay open.
    fn post(&mut self, msg: &Message) -> ProtocolResult<u64> {
        let (ticket, frame) = self.stage(&mut |ticket| encode_frame(ticket, msg))?;
        self.send_raw(&frame)?;
        Ok(ticket)
    }

    /// The next reply to any open ticket, in arrival order, waiting at most
    /// `wait`. A [`ProtocolError::Timeout`] here abandons nothing.
    fn recv_any(&mut self, wait: Duration) -> ProtocolResult<(u64, Message)>;

    /// Give up on `ticket`: a late reply is dropped and whatever the
    /// transport held for it is released.
    fn forget(&mut self, ticket: u64);
}

/// Boxed transports forward everything, so wrappers generic over
/// `T: Transport` (fault injection, WAN shaping) also compose over a
/// type-erased `Box<dyn Transport>`.
impl Transport for Box<dyn Transport> {
    fn send(&mut self, msg: &Message) -> ProtocolResult<()> {
        (**self).send(msg)
    }
    fn recv(&mut self) -> ProtocolResult<Message> {
        (**self).recv()
    }
    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        (**self).set_deadline(deadline)
    }
    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        (**self).send_raw(bytes)
    }
    fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
        (**self).stage(encode)
    }
    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        (**self).send_frame(encode)
    }
}

/// Rewrite OS timeout errors into the typed deadline error, leaving
/// everything else untouched. Both `WouldBlock` and `TimedOut` appear in the
/// wild for an expired socket timeout (Unix reports `EAGAIN`).
fn promote_timeout(
    err: ProtocolError,
    operation: &'static str,
    deadline: Option<Duration>,
) -> ProtocolError {
    match (&err, deadline) {
        (ProtocolError::Io(e), Some(after))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            ProtocolError::Timeout { operation, after }
        }
        _ => err,
    }
}

/// TCP transport: a buffered reader half, and a writer half that puts
/// each whole frame down with one `write_all` (a frame arrives fully
/// encoded, so a write buffer would only copy it).
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    deadline: Option<Duration>,
}

impl TcpTransport {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> ProtocolResult<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            deadline: None,
        })
    }

    /// Connect to `addr` ("host:port").
    pub fn connect(addr: &str) -> ProtocolResult<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Connect to `addr` with a bound on connection establishment; the same
    /// deadline is installed as the transport's I/O deadline. With `None`
    /// this is [`TcpTransport::connect`].
    pub fn connect_with_deadline(addr: &str, deadline: Option<Duration>) -> ProtocolResult<Self> {
        let Some(limit) = deadline else {
            return Self::connect(addr);
        };
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ProtocolError::Frame(format!("address `{addr}` resolves to nothing")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, limit)
            .map_err(|e| promote_timeout(e.into(), "connect", deadline))?;
        let mut transport = Self::new(stream)?;
        transport.set_deadline(deadline)?;
        Ok(transport)
    }
}

impl Transport for TcpTransport {
    fn recv(&mut self) -> ProtocolResult<Message> {
        read_frame(&mut self.reader).map_err(|e| promote_timeout(e, "read", self.deadline))
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        self.deadline = deadline;
        Ok(true)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        self.writer
            .write_all(bytes)
            .map_err(|e| promote_timeout(e.into(), "write", self.deadline))
    }
}

/// In-process transport over crossbeam channels. [`ChannelTransport::pair`]
/// yields two connected endpoints; messages still pass through the full
/// XDR encode/decode path so tests exercise the real codecs.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    deadline: Option<Duration>,
}

impl ChannelTransport {
    /// Create a connected pair of endpoints.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, arx) = bounded(64);
        let (btx, brx) = bounded(64);
        (
            ChannelTransport {
                tx: atx,
                rx: brx,
                deadline: None,
            },
            ChannelTransport {
                tx: btx,
                rx: arx,
                deadline: None,
            },
        )
    }

    fn recv_bytes(&mut self) -> ProtocolResult<Vec<u8>> {
        match self.deadline {
            None => self.rx.recv().map_err(|_| ProtocolError::Disconnected),
            Some(after) => self.rx.recv_timeout(after).map_err(|e| match e {
                RecvTimeoutError::Timeout => ProtocolError::Timeout {
                    operation: "read",
                    after,
                },
                RecvTimeoutError::Disconnected => ProtocolError::Disconnected,
            }),
        }
    }
}

impl Transport for ChannelTransport {
    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        let (_, frame) = self.stage(encode)?;
        self.tx.send(frame).map_err(|_| ProtocolError::Disconnected)
    }

    fn recv(&mut self) -> ProtocolResult<Message> {
        let buf = self.recv_bytes()?;
        read_frame(&mut buf.as_slice())
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        self.deadline = deadline;
        Ok(true)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| ProtocolError::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Arg;
    use crate::value::Value;
    use std::net::TcpListener;

    #[test]
    fn channel_pair_roundtrip() {
        let (mut a, mut b) = ChannelTransport::pair();
        let msg = Message::Invoke {
            routine: "ep".into(),
            args: Arg::inline(vec![Value::Int(20)]),
            trace: None,
        };
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
        let reply = Message::ResultData {
            results: vec![Value::DoubleArray(vec![1.0, 2.0])],
        };
        b.send(&reply).unwrap();
        assert_eq!(a.recv().unwrap(), reply);
    }

    #[test]
    fn channel_disconnect_detected() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert!(matches!(
            a.send(&Message::QueryLoad),
            Err(ProtocolError::Disconnected)
        ));
        assert!(matches!(a.recv(), Err(ProtocolError::Disconnected)));
    }

    #[test]
    fn channel_deadline_times_out_on_silence() {
        let (mut a, _b) = ChannelTransport::pair();
        a.set_deadline(Some(Duration::from_millis(30))).unwrap();
        let start = std::time::Instant::now();
        let err = a.recv().unwrap_err();
        assert!(err.is_timeout(), "expected timeout, got {err}");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn tcp_loopback_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let msg = t.recv().unwrap();
            assert_eq!(msg.kind(), "QueryInterface");
            t.send(&Message::Error {
                reason: "unknown routine".into(),
            })
            .unwrap();
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client
            .send(&Message::QueryInterface {
                routine: "nope".into(),
            })
            .unwrap();
        match client.recv().unwrap() {
            Message::Error { reason } => assert!(reason.contains("unknown")),
            other => panic!("unexpected {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_large_payload() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n = 200usize; // 200x200 doubles = 320 KB
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            match t.recv().unwrap() {
                Message::Invoke { args, .. } => {
                    t.send(&Message::ResultData {
                        results: Arg::into_values(args).expect("inline"),
                    })
                    .unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let matrix = Value::DoubleArray((0..n * n).map(|i| i as f64).collect());
        client
            .send(&Message::Invoke {
                routine: "echo".into(),
                args: Arg::inline(vec![matrix.clone()]),
                trace: None,
            })
            .unwrap();
        match client.recv().unwrap() {
            Message::ResultData { results } => assert_eq!(results, vec![matrix]),
            other => panic!("unexpected {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_read_deadline_yields_typed_timeout() {
        // A listener that accepts but never replies: the read must abort
        // with Timeout at roughly the deadline, not hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });
        let deadline = Duration::from_millis(80);
        let mut client =
            TcpTransport::connect_with_deadline(&addr.to_string(), Some(deadline)).unwrap();
        client.send(&Message::QueryLoad).unwrap();
        let start = std::time::Instant::now();
        match client.recv().unwrap_err() {
            ProtocolError::Timeout { operation, after } => {
                assert_eq!(operation, "read");
                assert_eq!(after, deadline);
            }
            other => panic!("expected timeout, got {other}"),
        }
        assert!(start.elapsed() < Duration::from_millis(350));
        silent.join().unwrap();
    }

    #[test]
    fn tcp_connect_deadline_bounds_the_attempt() {
        // RFC 5737 TEST-NET-1 address: normally black-holes, though some
        // sandboxes intercept it, so only the time bound is asserted — the
        // attempt must resolve (either way) within the deadline, not hang.
        let start = std::time::Instant::now();
        let _ =
            TcpTransport::connect_with_deadline("192.0.2.1:9", Some(Duration::from_millis(100)));
        assert!(start.elapsed() < Duration::from_secs(3));
    }

    #[test]
    fn tcp_send_raw_bytes_arrive_verbatim() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            use std::io::Read;
            BufReader::new(stream).read_to_end(&mut buf).unwrap();
            buf
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client.send_raw(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        drop(client);
        assert_eq!(server.join().unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }
}
