//! The transport traits, and an in-process channel pair with an optional
//! per-operation deadline. The TCP client connection lives in
//! `ninf-reactor` (`TcpTransport`), which reads replies through the same
//! frame slicer the server reads requests with.

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
        self.post_frame(&mut |ticket| encode_frame(ticket, msg))
    }

    /// [`Pipelined::post`] for a caller that writes its own frame (a call
    /// encoded from borrowed values by [`crate::frame::encode_call`]).
    fn post_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<u64> {
        let (ticket, frame) = self.stage(encode)?;
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
}
