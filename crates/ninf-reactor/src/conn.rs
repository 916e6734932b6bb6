//! One non-blocking frame connection: the socket, its staging buffer and
//! frame slicer, and its write queue with the partial-write offset.
//!
//! The reactor's server connections and the open-loop driver's client
//! connections are each a [`FrameConn`] plus their own bookkeeping, so
//! there is one non-blocking read, one place a frame header is parsed off
//! a socket, and one write path to test.
//!
//! The slicer parses a header as soon as one is staged, waits for the whole
//! length it claims, checks the payload in place
//! ([`check_frame_payload`]: CRC, digests, decode) and consumes the frame.
//! It stops at the first bad frame: that frame is never consumed, so every
//! later call reports the same error and nothing behind it is sliced.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;

use ninf_protocol::{
    check_frame_payload, parse_frame_header, CheckedFrame, ProtocolResult, FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
};

use crate::sys::{Interest, Poller};

/// Staged (unsliced) bytes per connection before reading pauses: one
/// maximal frame, so any legal frame can always finish staging.
pub const STAGING_CAP: usize = FRAME_HEADER_BYTES + MAX_FRAME_BYTES as usize;

/// Size of the scratch buffer callers lend [`FrameConn::read`]: the most
/// one read pulls off a socket.
pub const READ_CHUNK: usize = 64 * 1024;

/// Outcome of one [`FrameConn::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filled {
    /// Bytes arrived and were staged.
    Bytes,
    /// Nothing to read right now.
    WouldBlock,
    /// The peer closed the connection, or the socket failed.
    Closed,
}

/// A registered non-blocking connection that reads and writes whole frames.
pub struct FrameConn {
    stream: TcpStream,
    slicer: Slicer,
    /// Encoded frames waiting for the socket to accept them.
    writes: VecDeque<Vec<u8>>,
    /// Bytes of `writes[0]` already written.
    write_off: usize,
    /// What the poller currently watches for.
    interest: Interest,
}

impl FrameConn {
    /// Make `stream` non-blocking and register it with `poller` under
    /// `token`, watching for reads only.
    pub fn register(stream: TcpStream, poller: &mut Poller, token: u64) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        Ok(FrameConn {
            stream,
            slicer: Slicer::default(),
            writes: VecDeque::new(),
            write_off: 0,
            interest: Interest::READ,
        })
    }

    /// Stop watching the socket (it closes when the connection drops).
    pub fn deregister(&self, poller: &mut Poller) {
        let _ = poller.deregister(self.stream.as_raw_fd());
    }

    /// One read off the socket through `scratch`, staged for slicing.
    pub fn read(&mut self, scratch: &mut [u8]) -> Filled {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Filled::Closed,
                Ok(n) => {
                    self.slicer.push(&scratch[..n]);
                    return Filled::Bytes;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Filled::WouldBlock,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Filled::Closed,
            }
        }
    }

    /// The next complete, checked frame and its call id; `Ok(None)` until
    /// one is fully staged. An error is final for this connection.
    pub fn next_frame(&mut self) -> ProtocolResult<Option<(u64, CheckedFrame)>> {
        self.slicer.next_frame()
    }

    /// Bytes staged and not yet sliced.
    pub fn staged(&self) -> usize {
        self.slicer.staged()
    }

    /// Queue an encoded frame behind any not yet written.
    pub fn queue(&mut self, frame: Vec<u8>) {
        self.writes.push_back(frame);
    }

    /// Whether queued bytes are waiting for the socket.
    pub fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Write queued frames until the queue drains or the socket would
    /// block. An error means the connection is dead.
    pub fn flush(&mut self) -> io::Result<()> {
        while let Some(front) = self.writes.front() {
            match self.stream.write(&front[self.write_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_off += n;
                    if self.write_off == front.len() {
                        self.writes.pop_front();
                        self.write_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// What the poller currently watches for.
    pub fn interest(&self) -> Interest {
        self.interest
    }

    /// Watch for `want`, telling the poller only when it changes.
    pub fn set_interest(&mut self, poller: &mut Poller, token: u64, want: Interest) {
        if want != self.interest {
            self.interest = want;
            let _ = poller.modify(self.stream.as_raw_fd(), token, want);
        }
    }
}

/// Staged bytes and the offset of the first unsliced one.
#[derive(Default)]
struct Slicer {
    buf: Vec<u8>,
    start: usize,
}

impl Slicer {
    fn push(&mut self, bytes: &[u8]) {
        // Sliced frames leave the buffer once per read, not once per frame.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn staged(&self) -> usize {
        self.buf.len() - self.start
    }

    fn next_frame(&mut self) -> ProtocolResult<Option<(u64, CheckedFrame)>> {
        let buf = &self.buf[self.start..];
        let Some(header) = buf.first_chunk::<FRAME_HEADER_BYTES>() else {
            return Ok(None);
        };
        let header = parse_frame_header(header)?;
        let total = FRAME_HEADER_BYTES + header.len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let checked = check_frame_payload(&header, &buf[FRAME_HEADER_BYTES..total])?;
        self.start += total;
        Ok(Some((header.call_id, checked)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{encode_frame, Arg, Message, Value};
    use proptest::prelude::*;

    /// Feed `bytes` to a fresh slicer in reads of the given sizes (cycled;
    /// each at most [`READ_CHUNK`]), slicing after every read as the
    /// reactor does. Returns the frames sliced and whether an error was
    /// reported, failing the case if a frame follows an error.
    fn slice_in_reads(
        bytes: &[u8],
        reads: &[usize],
    ) -> Result<(Vec<(u64, Message)>, bool), TestCaseError> {
        let mut slicer = Slicer::default();
        let mut frames = Vec::new();
        let mut failed = false;
        let mut off = 0;
        for &n in reads.iter().cycle() {
            if off == bytes.len() {
                break;
            }
            let end = (off + n.clamp(1, READ_CHUNK)).min(bytes.len());
            slicer.push(&bytes[off..end]);
            off = end;
            prop_assert!(slicer.staged() <= off);
            loop {
                match slicer.next_frame() {
                    Ok(Some((call_id, checked))) => {
                        prop_assert!(!failed, "a frame was sliced behind a bad one");
                        frames.push((call_id, checked.message));
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        Ok((frames, failed))
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            Just(Message::QueryLoad),
            "[a-z]{0,40}".prop_map(|reason| Message::Error { reason }),
            proptest::collection::vec(-1e6f64..1e6, 0..600).prop_map(|d| Message::Invoke {
                routine: "dgesl".into(),
                args: Arg::inline(vec![Value::Int(d.len() as i32), Value::DoubleArray(d)]),
                trace: None,
            }),
        ]
    }

    fn arb_reads() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(1usize..3000, 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary bytes never panic the slicer, and once it reports an
        /// error it slices nothing more.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
            reads in arb_reads(),
        ) {
            slice_in_reads(&bytes, &reads)?;
        }

        /// Valid frames, then one of them with a flipped bit, then more
        /// valid frames: exactly the frames before the bad one come out,
        /// whatever the read boundaries. (A flip in the length word may
        /// leave the slicer waiting for bytes that never come rather than
        /// failing; either way nothing behind it is sliced.)
        #[test]
        fn frames_before_the_first_bad_one_and_nothing_after(
            msgs in proptest::collection::vec(arb_message(), 1..8),
            bad_at in any::<usize>(),
            flip in any::<usize>(),
            reads in arb_reads(),
        ) {
            let bad_at = bad_at % msgs.len();
            let mut wire = Vec::new();
            for (i, msg) in msgs.iter().enumerate() {
                let mut frame = encode_frame(i as u64 + 1, msg).expect("encode");
                if i == bad_at {
                    let bit = flip % (frame.len() * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                wire.extend(frame);
            }
            let (frames, _) = slice_in_reads(&wire, &reads)?;
            let want: Vec<(u64, Message)> = msgs[..bad_at]
                .iter()
                .enumerate()
                .map(|(i, m)| (i as u64 + 1, m.clone()))
                .collect();
            prop_assert_eq!(&frames, &want);

            // The same wire with nothing bad in it slices completely.
            let clean: Vec<u8> = msgs
                .iter()
                .enumerate()
                .flat_map(|(i, m)| encode_frame(i as u64 + 1, m).expect("encode"))
                .collect();
            let (all, failed) = slice_in_reads(&clean, &reads)?;
            prop_assert!(!failed);
            prop_assert_eq!(all.len(), msgs.len());
        }

        /// A header claiming `MAX_FRAME_BYTES` followed by a trickle stages
        /// only what arrived: the buffer grows with the bytes received, by
        /// at most one read past them, never toward the claim.
        #[test]
        fn a_huge_claim_stages_only_what_arrives(reads in arb_reads(), rounds in 1usize..64) {
            let mut header = encode_frame(9, &Message::QueryLoad).expect("encode");
            header.truncate(FRAME_HEADER_BYTES);
            header[8..12].copy_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
            let mut slicer = Slicer::default();
            slicer.push(&header);
            let mut received = header.len();
            for &n in reads.iter().cycle().take(rounds * reads.len()) {
                slicer.push(&vec![0xA5; n]);
                received += n;
                prop_assert!(matches!(slicer.next_frame(), Ok(None)));
                prop_assert_eq!(slicer.staged(), received);
                prop_assert!(slicer.buf.capacity() <= 2 * received + READ_CHUNK);
            }
        }
    }

    #[test]
    fn a_frame_split_at_every_byte_slices_once() {
        let frame = encode_frame(42, &Message::QueryLoad).expect("encode");
        let mut slicer = Slicer::default();
        for (i, b) in frame.iter().enumerate() {
            assert!(matches!(slicer.next_frame(), Ok(None)), "early at byte {i}");
            slicer.push(&[*b]);
        }
        let (id, checked) = slicer.next_frame().unwrap().expect("whole frame");
        assert_eq!((id, checked.message), (42, Message::QueryLoad));
        assert_eq!(slicer.staged(), 0);
        assert!(matches!(slicer.next_frame(), Ok(None)));
    }
}
