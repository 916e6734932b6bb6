//! One non-blocking frame connection: the socket, its staging buffer and
//! frame slicer, and its write queue with the partial-write offset.
//!
//! The reactor's server connections and the load generator's open-loop
//! client connections are each a [`FrameConn`] plus their own bookkeeping, so
//! there is one non-blocking read, one place a frame header is parsed off
//! a socket, and one write path to test.
//!
//! The slicer parses a header as soon as one is staged and remembers the
//! length it claims, so until the whole frame is staged each read costs
//! one comparison. Once it is, the slicer checks the payload in place
//! ([`check_frame_payload`]: CRC, digests and the decode of each cacheable
//! argument in one pass, then the rest of the decode) and consumes the
//! frame. It stops at the first bad frame: that frame is never consumed,
//! so every later call reports the same error and nothing behind it is
//! sliced.
//!
//! Reads take one of two routes. Headers and frames of at most
//! [`READ_CHUNK`] bytes go through the caller's scratch buffer and are
//! copied into staging, which lets one read take several small frames.
//! Once a staged header claims a larger frame, the socket is read straight
//! into the staging buffer, a chunk at a time up to that frame's end, so a
//! large frame takes as many reads as before but no copy. The buffer grows with
//! the bytes that have arrived (never toward the claim), and it stays
//! initialised up to its high-water mark, so reading into it needs no
//! `unsafe`. An inline argument's bytes then cross user space once: the
//! kernel writes them into staging, and the check reads them there.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

use ninf_obs::metrics::Counter;
use ninf_protocol::{
    check_frame_payload, parse_frame_header, CheckedFrame, FrameHeader, ProtocolResult,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};

use crate::sys::{Interest, Poller};

/// Staged (unsliced) bytes per connection before reading pauses: one
/// maximal frame, so any legal frame can always finish staging.
pub const STAGING_CAP: usize = FRAME_HEADER_BYTES + MAX_FRAME_BYTES as usize;

/// Size of the scratch buffer callers lend [`FrameConn::read`]: the most
/// one read pulls off a socket, on either route, and the largest frame
/// that is staged through scratch rather than read in place.
pub const READ_CHUNK: usize = 64 * 1024;

/// Dial `addr` ("host:port"), within `deadline` when there is one.
pub fn dial(addr: &str, deadline: Option<Duration>) -> io::Result<TcpStream> {
    let to = addr.to_socket_addrs()?.next();
    let to = to.ok_or(io::ErrorKind::AddrNotAvailable)?;
    match deadline {
        Some(d) => TcpStream::connect_timeout(&to, d),
        None => TcpStream::connect(to),
    }
}

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

/// Exact counts of what reads cost, kept by whoever owns the connections
/// (relaxed atomics; a `None` counts nothing).
#[derive(Debug, Clone, Default)]
pub struct ReadCounters {
    /// Socket `read` calls, whatever they returned.
    pub reads: Option<Counter>,
    /// Bytes copied from the scratch buffer into staging.
    pub staged_copy_bytes: Option<Counter>,
}

/// A registered non-blocking connection that reads and writes whole frames.
pub struct FrameConn {
    stream: TcpStream,
    slicer: Slicer,
    counters: ReadCounters,
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
            counters: ReadCounters::default(),
            writes: VecDeque::new(),
            write_off: 0,
            interest: Interest::READ,
        })
    }

    /// Count this connection's reads into `counters`.
    pub fn counting(mut self, counters: ReadCounters) -> Self {
        self.counters = counters;
        self
    }

    /// Stop watching the socket (it closes when the connection drops).
    pub fn deregister(&self, poller: &mut Poller) {
        let _ = poller.deregister(self.stream.as_raw_fd());
    }

    /// One read off the socket, staged for slicing: in place when a large
    /// frame is arriving, else through `scratch`.
    pub fn read(&mut self, scratch: &mut [u8]) -> Filled {
        self.slicer.fill(&mut self.stream, scratch, &self.counters)
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

/// Staged bytes, `buf[start..end]`. `buf` is initialised up to its length,
/// the high-water mark, which the staged bytes never pass.
#[derive(Default)]
struct Slicer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The parsed header of the frame at `start`, once it is staged.
    awaited: Option<FrameHeader>,
}

impl Slicer {
    /// One read from `src`: straight into staging while a frame larger
    /// than [`READ_CHUNK`] is arriving, else through `scratch`.
    fn fill(&mut self, src: &mut impl Read, scratch: &mut [u8], counters: &ReadCounters) -> Filled {
        loop {
            if let Some(c) = &counters.reads {
                c.inc();
            }
            let in_place = self.room().map(|room| src.read(room));
            let read = match in_place {
                Some(Ok(n)) => {
                    self.end += n;
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => src.read(scratch).inspect(|&n| {
                    self.push(&scratch[..n]);
                    if let Some(c) = &counters.staged_copy_bytes {
                        c.add(n as u64);
                    }
                }),
            };
            match read {
                Ok(0) => return Filled::Closed,
                Ok(_) => return Filled::Bytes,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Filled::WouldBlock,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Filled::Closed,
            }
        }
    }

    /// Where a read lands in place: at most [`READ_CHUNK`] of free staging,
    /// up to the end of the awaited frame, if that frame is larger than
    /// [`READ_CHUNK`] and not all staged yet. When the initialised buffer
    /// is full, the staged bytes move to its front and it grows by as much
    /// as is staged (at least [`READ_CHUNK`]), capped at the frame's end.
    ///
    /// A read takes no more than a chunk even when more has arrived: the
    /// socket buffer then drains a chunk at a time and the sender keeps
    /// writing while the reactor reads. (Reading everything that had
    /// arrived in one call took fewer reads but delivered fewer `bulk-call`
    /// calls per second.)
    fn room(&mut self) -> Option<&mut [u8]> {
        let frame = FRAME_HEADER_BYTES + self.awaited?.len as usize;
        if frame <= READ_CHUNK || self.staged() >= frame {
            return None;
        }
        if self.end == self.buf.len() {
            self.compact();
            let staged = self.end;
            let len = (staged + staged.max(READ_CHUNK)).min(frame);
            if len > self.buf.len() {
                self.buf.reserve_exact(len - self.buf.len());
                self.buf.resize(len, 0);
            }
        }
        let stop = self
            .buf
            .len()
            .min(self.start + frame)
            .min(self.end + READ_CHUNK);
        Some(&mut self.buf[self.end..stop])
    }

    /// Move the staged bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Stage `bytes` behind what is staged.
    fn push(&mut self, bytes: &[u8]) {
        // Sliced frames leave the buffer once per read, not once per frame.
        self.compact();
        let fits = (self.buf.len() - self.end).min(bytes.len());
        self.buf[self.end..self.end + fits].copy_from_slice(&bytes[..fits]);
        self.buf.extend_from_slice(&bytes[fits..]);
        self.end += bytes.len();
    }

    fn staged(&self) -> usize {
        self.end - self.start
    }

    fn next_frame(&mut self) -> ProtocolResult<Option<(u64, CheckedFrame)>> {
        let header = match self.awaited {
            Some(header) => header,
            None => {
                let staged = &self.buf[self.start..self.end];
                let Some(header) = staged.first_chunk::<FRAME_HEADER_BYTES>() else {
                    return Ok(None);
                };
                *self.awaited.insert(parse_frame_header(header)?)
            }
        };
        let total = FRAME_HEADER_BYTES + header.len as usize;
        if self.staged() < total {
            return Ok(None);
        }
        let payload = &self.buf[self.start + FRAME_HEADER_BYTES..self.start + total];
        let checked = check_frame_payload(&header, payload)?;
        self.start += total;
        self.awaited = None;
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

    /// A socket stand-in: hands out `bytes` in reads of the given sizes
    /// (cycled), then would block.
    struct Trickle<'a> {
        bytes: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = (*self.sizes.next().expect("cycled")).clamp(1, buf.len().max(1));
            let n = n.min(self.bytes.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Frames sliced, whether an error was reported, and the bytes copied
    /// through scratch.
    type Sliced = (Vec<(u64, Message)>, bool, u64);

    /// [`slice_in_reads`] through [`Slicer::fill`], as [`FrameConn::read`]
    /// reads a socket: a frame larger than [`READ_CHUNK`] is read in place.
    fn fill_in_reads(bytes: &[u8], reads: &[usize]) -> Result<Sliced, TestCaseError> {
        let mut src = Trickle {
            bytes,
            sizes: reads.iter().cycle(),
        };
        let counters = ReadCounters {
            reads: None,
            staged_copy_bytes: Some(Counter::default()),
        };
        let mut slicer = Slicer::default();
        let mut scratch = vec![0; READ_CHUNK];
        let mut frames = Vec::new();
        let mut failed = false;
        while slicer.fill(&mut src, &mut scratch, &counters) == Filled::Bytes {
            prop_assert!(slicer.staged() <= bytes.len() - src.bytes.len());
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
        let copied = counters.staged_copy_bytes.expect("counting").get();
        Ok((frames, failed, copied))
    }

    /// Small frames and frames past [`READ_CHUNK`] (which are read in
    /// place).
    fn arb_mixed_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            arb_message(),
            (READ_CHUNK / 8..3 * READ_CHUNK / 8).prop_map(|n| Message::Invoke {
                routine: "dgesl".into(),
                args: Arg::inline(vec![
                    Value::Int(n as i32),
                    Value::DoubleArray((0..n).map(|i| i as f64 * 0.5).collect()),
                ]),
                trace: None,
            }),
        ]
    }

    fn arb_socket_reads() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(prop_oneof![1usize..3000, 3000usize..2 * READ_CHUNK], 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `frames_before_the_first_bad_one_and_nothing_after` over a
        /// socket: large frames are read in place, whatever the read
        /// sizes, and slice exactly as through scratch.
        #[test]
        fn frames_before_the_first_bad_one_and_nothing_after_in_place(
            msgs in proptest::collection::vec(arb_mixed_message(), 1..5),
            bad_at in any::<usize>(),
            flip in any::<usize>(),
            reads in arb_socket_reads(),
        ) {
            let bad_at = bad_at % msgs.len();
            let encoded: Vec<Vec<u8>> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| encode_frame(i as u64 + 1, m).expect("encode"))
                .collect();
            let mut wire = Vec::new();
            for (i, frame) in encoded.iter().enumerate() {
                let mut frame = frame.clone();
                if i == bad_at {
                    let bit = flip % (frame.len() * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                wire.extend(frame);
            }
            let (frames, _, _) = fill_in_reads(&wire, &reads)?;
            let want: Vec<(u64, Message)> = msgs[..bad_at]
                .iter()
                .enumerate()
                .map(|(i, m)| (i as u64 + 1, m.clone()))
                .collect();
            prop_assert_eq!(&frames, &want);

            let clean = encoded.concat();
            let (all, failed, copied) = fill_in_reads(&clean, &reads)?;
            prop_assert!(!failed);
            prop_assert_eq!(all.len(), msgs.len());
            // A large frame costs at most the reads that staged its header
            // through scratch; small frames are copied whole.
            let bound: usize = encoded
                .iter()
                .map(|f| if f.len() > READ_CHUNK { 2 * READ_CHUNK } else { f.len() })
                .sum();
            prop_assert!(copied as usize <= bound, "{} copied, bound {}", copied, bound);
        }

        /// `a_huge_claim_stages_only_what_arrives` over a socket: the
        /// header is staged through scratch, the trickle behind it in
        /// place, and the buffer still grows only with what arrived.
        #[test]
        fn a_huge_claim_stages_only_what_arrives_in_place(
            reads in arb_socket_reads(),
            rounds in 1usize..16,
        ) {
            let mut wire = encode_frame(9, &Message::QueryLoad).expect("encode");
            wire.truncate(FRAME_HEADER_BYTES);
            wire[8..12].copy_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
            let arrived: usize = reads.iter().cycle().take(rounds * reads.len()).sum();
            wire.resize(FRAME_HEADER_BYTES + arrived, 0xA5);
            let mut src = Trickle { bytes: &wire, sizes: [FRAME_HEADER_BYTES].iter().cycle() };
            let counters = ReadCounters::default();
            let mut slicer = Slicer::default();
            let mut scratch = vec![0; READ_CHUNK];
            prop_assert_eq!(slicer.fill(&mut src, &mut scratch, &counters), Filled::Bytes);
            prop_assert!(matches!(slicer.next_frame(), Ok(None)));
            src.sizes = reads.iter().cycle();
            let mut received = FRAME_HEADER_BYTES;
            while slicer.fill(&mut src, &mut scratch, &counters) == Filled::Bytes {
                received = wire.len() - src.bytes.len();
                prop_assert!(matches!(slicer.next_frame(), Ok(None)));
                prop_assert_eq!(slicer.staged(), received);
                prop_assert!(slicer.buf.capacity() <= 2 * received + READ_CHUNK);
            }
            prop_assert_eq!(received, wire.len());
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
