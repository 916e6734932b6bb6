//! Binary framing v3: every message travels as
//! `magic (4) | version (4) | payload length (4) | call id (8) | crc32c (4) | payload (XDR)`.
//!
//! v3 adds the `call_id` header field so one TCP stream can carry many
//! in-flight calls (HTTP/2-style multiplexing): the server echoes the
//! request's call id on its reply, and the client demuxes replies back to
//! their callers in any completion order. Sequential (non-multiplexed)
//! peers use call id 0 throughout — [`write_frame`] / [`read_frame`] are
//! exactly that.
//!
//! The CRC-32C covers the call-id bytes *and* the payload and is verified
//! before any decode runs, so bytes corrupted in flight — including a flip
//! inside the call id, which would otherwise route a valid reply to the
//! wrong caller — surface as a typed [`ProtocolError::Checksum`]. v1/v2
//! frames (shorter headers) are rejected with
//! [`ProtocolError::UnsupportedVersion`]; the payload encoding itself is
//! unchanged since v1, only the header grew.
//!
//! One writer makes every frame: [`encode_frame`] for an owned
//! [`Message`], [`encode_call`] for a client's call whose arguments borrow
//! the caller's values. It sizes the payload without writing it
//! ([`Message::payload_len`]), allocates the frame once, reserves the
//! header at its front, and encodes the payload straight behind it. The
//! CRC-32C is folded in as the bytes are written — each array block right
//! after it is appended, while it is still in L1 — and the length and CRC
//! words are patched last. A frame therefore costs one user-space pass
//! per payload byte; writers put it on the wire with one `write_all`.
//! [`encode_call`] can also digest an inline argument in the pass that
//! encodes it (see [`CallArg::Fold`]); the frame's CRC register then takes
//! the argument's CRC from the digest (`crc::combine`) rather than a
//! second CRC over the same bytes.
//!
//! One check reads every frame: [`check_frame_payload`]. It first
//! *locates* each cacheable inline argument of an `Invoke`/`SubmitJob`
//! from the header words alone (message tag, routine length and pad,
//! argument count, each argument's tag and element count), reading no
//! array byte. It then *folds*: the CRC-32C runs over call id ++ payload
//! outside those arguments, and over each one a single pass folds its own
//! CRC, feeds the digest's lanes and byteswaps it into its `Vec`, after
//! which the frame's register crosses it by `crc::combine`. Only once
//! the CRC matches does the rest of the payload decode, taking the decoded
//! arrays in position order and stepping over their bytes; a frame that
//! fails drops them. A server therefore reads each inline argument byte
//! once, and hands the digests to its argument store with the message
//! ([`CheckedFrame::digests`]).

use std::io::{Read, Write};

use ninf_xdr::{BeWord, ByteCount, XdrEncoder, XdrSink, BE_BLOCK_BYTES};

use crate::codec::Wire;
use crate::crc;
use crate::digest::{digest_image, Digest, Hasher};
use crate::error::{ProtocolError, ProtocolResult};
use crate::message::{
    cacheable_arg_ranges, put_call, put_ref, ArrayFill, CallArg, CallKind, Message,
};
use crate::value::Value;
use crate::TraceContext;

/// Frame magic: ASCII "NINF".
pub const FRAME_MAGIC: u32 = 0x4E49_4E46;

/// Protocol version this implementation speaks. v2 added the payload
/// CRC-32C word; v3 added the 8-byte call id for stream multiplexing.
pub const PROTOCOL_VERSION: u32 = 3;

/// Bytes in a v3 frame header.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Upper bound on a sane frame (a 4096×4096 double matrix plus headers).
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// Parsed v3 frame header: what remains to be read and how to check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes (already bounds-checked).
    pub len: u32,
    /// Multiplexing call id (0 for sequential peers).
    pub call_id: u64,
    /// Expected CRC-32C over call-id bytes ++ payload.
    pub crc: u32,
}

/// The typed refusal of a payload over [`MAX_FRAME_BYTES`].
fn check_len(len: usize) -> ProtocolResult<u32> {
    match u32::try_from(len) {
        Ok(len) if len <= MAX_FRAME_BYTES => Ok(len),
        _ => Err(ProtocolError::Frame(format!(
            "frame too large: {len} bytes"
        ))),
    }
}

/// The frame writer's sink: the frame buffer, header reserved at its
/// front; the CRC-32C register over call id ++ payload; and at most one
/// argument being digested in the same pass. The folds read the buffer
/// lazily — small writes accumulate, and each array block is folded right
/// after it is appended, while it is still in L1. While an argument is
/// digested only the digest's hasher reads its blocks; the frame's register
/// waits and takes the argument's CRC from the hasher when it closes
/// ([`crc::combine`]), so each argument byte goes through one CRC. A bare
/// sink (no header, no CRC) writes a value image and its digest
/// ([`digested_image`]).
struct FrameSink {
    buf: Vec<u8>,
    /// Bytes of `buf` folded so far.
    folded: usize,
    /// Raw (uncomplemented) CRC-32C register over what was folded before
    /// the argument being digested; `None` for a bare sink.
    crc: Option<u32>,
    /// The argument being digested.
    digest: Option<Hasher>,
}

/// Where a folded argument started: what a rollback restores.
#[derive(Clone, Copy)]
struct Mark {
    len: usize,
    crc: Option<u32>,
}

impl FrameSink {
    fn fold(&mut self) {
        let fresh = &self.buf[self.folded..];
        match (&mut self.digest, &mut self.crc) {
            (Some(h), _) => h.update(fresh),
            (None, Some(crc)) => *crc = crc::update(*crc, fresh),
            (None, None) => {}
        }
        self.folded = self.buf.len();
    }

    /// Start digesting what is written next.
    fn begin_digest(&mut self) -> Mark {
        self.fold();
        self.digest = Some(Hasher::new());
        Mark {
            len: self.buf.len(),
            crc: self.crc,
        }
    }

    /// The digest of everything written since `mark`
    /// ([`FrameSink::begin_digest`]); the frame's register crosses it.
    fn end_digest(&mut self, mark: Mark) -> Digest {
        self.fold();
        let (digest, arg_crc) = self.digest.take().expect("a digest was begun").close();
        let len = (self.buf.len() - mark.len) as u64;
        self.crc = self.crc.map(|crc| crc::combine(crc, arg_crc, len));
        digest
    }

    /// Forget everything written since `mark`.
    fn rollback(&mut self, mark: Mark) {
        self.buf.truncate(mark.len);
        self.folded = mark.len;
        self.crc = mark.crc;
    }
}

impl XdrSink for FrameSink {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn put_words<T: BeWord>(&mut self, data: &[T]) {
        self.buf.reserve(std::mem::size_of_val(data));
        for block in data.chunks(BE_BLOCK_BYTES / std::mem::size_of::<T>()) {
            T::extend_be(&mut self.buf, block);
            self.fold();
        }
    }
}

/// The one frame writer (see the module docs).
struct FrameWriter {
    enc: XdrEncoder<FrameSink>,
}

impl FrameWriter {
    /// A frame for `call_id` with room for a `payload`-byte payload,
    /// which must fit [`MAX_FRAME_BYTES`].
    fn new(call_id: u64, payload: usize) -> ProtocolResult<Self> {
        check_len(payload)?;
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload);
        buf.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        buf.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // length, patched by `finish`
        buf.extend_from_slice(&call_id.to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // CRC, patched by `finish`
        Ok(FrameWriter {
            enc: XdrEncoder::on(FrameSink {
                buf,
                folded: FRAME_HEADER_BYTES,
                crc: Some(crc::update(!0, &call_id.to_be_bytes())),
                digest: None,
            }),
        })
    }

    /// Patch the length and CRC words and hand the frame over.
    fn finish(self) -> ProtocolResult<Vec<u8>> {
        let mut sink = self.enc.into_sink();
        sink.fold();
        let len = check_len(sink.buf.len() - FRAME_HEADER_BYTES)?;
        sink.buf[8..12].copy_from_slice(&len.to_be_bytes());
        let crc = !sink.crc.expect("a frame sink checksums");
        sink.buf[20..24].copy_from_slice(&crc.to_be_bytes());
        Ok(sink.buf)
    }
}

/// Encode one framed message tagged with `call_id` into a fresh,
/// exactly-sized buffer.
pub fn encode_frame(call_id: u64, msg: &Message) -> ProtocolResult<Vec<u8>> {
    let mut w = FrameWriter::new(call_id, msg.payload_len())?;
    msg.put(&mut w.enc);
    w.finish()
}

/// Encode a call frame straight from the caller's values: the bytes
/// [`encode_frame`] writes for the [`Message::Invoke`] (or
/// [`Message::SubmitJob`]) these positions describe, without building it.
///
/// A [`CallArg::Fold`] position is written inline with its digest computed
/// in the same pass; `held` is then asked whether the destination holds
/// that digest, and if it does, the position is rolled back (bytes and
/// CRC) and written as a ref. On return each `Fold` in `args` has been
/// replaced by what was sent: `Data` or `Ref`.
pub fn encode_call(
    call_id: u64,
    kind: CallKind,
    routine: &str,
    args: &mut [CallArg<'_>],
    trace: Option<TraceContext>,
    mut held: impl FnMut(&Digest) -> bool,
) -> ProtocolResult<Vec<u8>> {
    let mut planned = XdrEncoder::on(ByteCount::default());
    planned.put_u32(kind.tag());
    put_call(&mut planned, routine, args.len(), &trace, |enc| {
        args.iter().for_each(|a| a.put(enc))
    });
    let mut w = FrameWriter::new(call_id, planned.into_sink().0)?;
    w.enc.put_u32(kind.tag());
    put_call(&mut w.enc, routine, args.len(), &trace, |enc| {
        for arg in args.iter_mut() {
            let CallArg::Fold(v) = *arg else {
                arg.put(enc);
                continue;
            };
            let mark = enc.sink_mut().begin_digest();
            v.put(enc);
            let d = enc.sink_mut().end_digest(mark);
            *arg = if held(&d) {
                enc.sink_mut().rollback(mark);
                put_ref(enc, &d);
                CallArg::Ref(d)
            } else {
                CallArg::Data(v)
            };
        }
    });
    w.finish()
}

/// A value's full tagged XDR image and its digest, from one pass of the
/// frame writer's sink: what a bulk upload ships and the name it ships
/// under (`Digest::of(&image)`, which is `digest_value(v)`).
pub fn digested_image(v: &Value) -> (Vec<u8>, Digest) {
    let mut len = XdrEncoder::on(ByteCount::default());
    v.put(&mut len);
    let mut enc = XdrEncoder::on(FrameSink {
        buf: Vec::with_capacity(len.into_sink().0),
        folded: 0,
        crc: None,
        digest: None,
    });
    let mark = enc.sink_mut().begin_digest();
    v.put(&mut enc);
    let digest = enc.sink_mut().end_digest(mark);
    (enc.into_sink().buf, digest)
}

/// Write one framed message tagged with `call_id`.
pub fn write_frame_mux<W: Write>(w: &mut W, call_id: u64, msg: &Message) -> ProtocolResult<()> {
    w.write_all(&encode_frame(call_id, msg)?)?;
    w.flush()?;
    Ok(())
}

/// Write one framed message with call id 0 (the sequential-peer form).
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> ProtocolResult<()> {
    write_frame_mux(w, 0, msg)
}

/// Validate a raw v3 header. Magic, version, and length bounds are checked
/// here; the CRC can only be checked once the payload has arrived
/// ([`check_frame_payload`]).
pub fn parse_frame_header(header: &[u8; FRAME_HEADER_BYTES]) -> ProtocolResult<FrameHeader> {
    let magic = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::Frame(format!("bad magic {magic:#010x}")));
    }
    let version = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let len = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Frame(format!(
            "oversized frame: {len} bytes"
        )));
    }
    let call_id = u64::from_be_bytes(header[12..20].try_into().expect("8 bytes"));
    let crc = u32::from_be_bytes(header[20..24].try_into().expect("4 bytes"));
    Ok(FrameHeader { len, call_id, crc })
}

/// A frame payload that passed [`check_frame_payload`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedFrame {
    /// The decoded message.
    pub message: Message,
    /// For an `Invoke`/`SubmitJob`, one entry per argument position: the
    /// digest of an inline argument that is
    /// [`cacheable`](crate::digest::cacheable) (`digest_value` of the
    /// decoded value), `None` for every other position. Empty for any
    /// other message.
    pub digests: Vec<Option<Digest>>,
}

/// Verify the CRC and decode the payload of a frame whose header already
/// parsed, digesting and decoding each cacheable inline argument in the
/// CRC's pass (see the module docs). `payload` must be exactly
/// `header.len` bytes.
pub fn check_frame_payload(header: &FrameHeader, payload: &[u8]) -> ProtocolResult<CheckedFrame> {
    debug_assert_eq!(payload.len(), header.len as usize);
    let ranges = cacheable_arg_ranges(payload);
    let mut found = Vec::with_capacity(ranges.len());
    let mut decoded = Vec::with_capacity(ranges.len());
    let mut crc = crc::update(!0, &header.call_id.to_be_bytes());
    let mut folded = 0;
    for (pos, range) in ranges {
        crc = crc::update(crc, &payload[folded..range.start]);
        let image = &payload[range.clone()];
        let mut array = ArrayFill::new(image).expect("a located argument is an array");
        let (digest, arg_crc) = digest_image(image, |piece| array.take(piece));
        crc = crc::combine(crc, arg_crc, image.len() as u64);
        found.push((pos, digest));
        decoded.push((range.clone(), array.into_value()));
        folded = range.end;
    }
    let got = !crc::update(crc, &payload[folded..]);
    if got != header.crc {
        // `decoded` drops here: nothing of a bad frame outlives its check.
        return Err(ProtocolError::Checksum {
            expected: header.crc,
            got,
        });
    }
    let message = Message::decode_with(payload, decoded)?;
    let mut digests = Vec::new();
    if let Message::Invoke { args, .. } | Message::SubmitJob { args, .. } = &message {
        // The decode accepted the words the ranges were located from, so
        // every located position is one of `args`.
        digests.resize(args.len(), None);
        for (pos, digest) in found {
            digests[pos] = Some(digest);
        }
    }
    Ok(CheckedFrame { message, digests })
}

/// Read one framed message and its call id (blocking).
pub fn read_frame_mux<R: Read>(r: &mut R) -> ProtocolResult<(u64, Message)> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let header = parse_frame_header(&header)?;
    // Read the payload in capped chunks rather than allocating the full
    // header-claimed length up front: a hostile or corrupted header can
    // claim up to MAX_FRAME_BYTES, and the bytes must actually arrive
    // before we commit that much memory. Chunks land at their final offset
    // in the payload buffer — no reassembly copy.
    let len = header.len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_READ_CHUNK));
    while payload.len() < len {
        let take = (len - payload.len()).min(PAYLOAD_READ_CHUNK);
        let start = payload.len();
        payload.resize(start + take, 0);
        r.read_exact(&mut payload[start..])?;
    }
    let checked = check_frame_payload(&header, &payload)?;
    Ok((header.call_id, checked.message))
}

/// Read one framed message, discarding the call id (blocking, sequential
/// peers).
pub fn read_frame<R: Read>(r: &mut R) -> ProtocolResult<Message> {
    read_frame_mux(r).map(|(_, msg)| msg)
}

/// Granularity of payload reads: allocation grows only as bytes arrive.
const PAYLOAD_READ_CHUNK: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::{crc32c, Crc32c};
    use crate::message::Arg;
    use crate::value::Value;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::Invoke {
            routine: "ep".into(),
            args: Arg::inline(vec![Value::Int(24)]),
            trace: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn mux_roundtrip_preserves_call_id() {
        let msg = Message::QueryLoad;
        for id in [0u64, 1, 42, u64::MAX] {
            let mut buf = Vec::new();
            write_frame_mux(&mut buf, id, &msg).unwrap();
            let (got_id, back) = read_frame_mux(&mut buf.as_slice()).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn sequential_form_is_call_id_zero() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        let (id, _) = read_frame_mux(&mut buf.as_slice()).unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn encode_frame_matches_streamed_writer() {
        let msg = Message::Invoke {
            routine: "ep".into(),
            args: Arg::inline(vec![Value::Int(14)]),
            trace: None,
        };
        let mut streamed = Vec::new();
        write_frame_mux(&mut streamed, 7, &msg).unwrap();
        assert_eq!(encode_frame(7, &msg).unwrap(), streamed);
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let msgs = vec![
            Message::QueryInterface {
                routine: "linpack".into(),
            },
            Message::QueryLoad,
            Message::Error {
                reason: "nope".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut reader = buf.as_slice();
        for m in &msgs {
            assert_eq!(&read_frame(&mut reader).unwrap(), m);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[0] = 0xff;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[7] = 99;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnsupportedVersion {
                got: 99,
                want: PROTOCOL_VERSION
            })
        ));
    }

    #[test]
    fn v2_frame_rejected_as_unsupported_version() {
        // A v2 peer sends `magic | 2 | len | crc | payload` with no call-id
        // field. The version check fires before anything after it is
        // interpreted, so the short header is never misparsed.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[4..8].copy_from_slice(&2u32.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnsupportedVersion { got: 2, want: 3 })
        ));
    }

    #[test]
    fn v1_frame_rejected_as_unsupported_version() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[4..8].copy_from_slice(&1u32.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnsupportedVersion { got: 1, want: 3 })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let msg = Message::Invoke {
            routine: "linpack".into(),
            args: Arg::inline(vec![Value::DoubleArray(vec![1.5; 64])]),
            trace: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        // Flip one bit deep inside the payload.
        let target = FRAME_HEADER_BYTES + 40;
        buf[target] ^= 0x10;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Checksum { .. })
        ));
    }

    #[test]
    fn corrupted_call_id_fails_checksum() {
        // A bit flip inside the call id would silently route a valid reply
        // to the wrong caller if the CRC did not cover it.
        let mut buf = Vec::new();
        write_frame_mux(&mut buf, 0x0102_0304_0506_0708, &Message::QueryLoad).unwrap();
        for byte in 12..20 {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x40;
            assert!(
                matches!(
                    read_frame_mux(&mut flipped.as_slice()),
                    Err(ProtocolError::Checksum { .. })
                ),
                "flip in call-id byte {byte} must fail the checksum"
            );
        }
    }

    #[test]
    fn corrupted_checksum_word_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[21] ^= 0x01;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Checksum { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn oversized_payload_is_refused_before_allocating() {
        let too_big = MAX_FRAME_BYTES as usize + 1;
        assert!(matches!(
            FrameWriter::new(7, too_big),
            Err(ProtocolError::Frame(m)) if m.contains("too large")
        ));
    }

    #[test]
    fn lying_length_header_fails_on_missing_bytes() {
        // Header claims a near-maximal payload but the stream carries only a
        // few bytes: the read must fail with an I/O error after at most one
        // chunk of allocation, never commit the claimed 200+ MB.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::QueryLoad).unwrap();
        buf[8..12].copy_from_slice(&(MAX_FRAME_BYTES - 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn chunked_payload_read_reassembles_large_frames() {
        // A payload larger than one read chunk must still round-trip.
        let big = Message::Invoke {
            routine: "echo".into(),
            args: Arg::inline(vec![Value::DoubleArray(vec![
                1.25;
                3 * PAYLOAD_READ_CHUNK / 8
            ])]),
            trace: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        assert!(buf.len() > 2 * PAYLOAD_READ_CHUNK);
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), big);
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Message::QueryInterface {
                routine: "x".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn header_is_twenty_four_bytes_big_endian() {
        let mut buf = Vec::new();
        write_frame_mux(&mut buf, 0x0A0B_0C0D_0E0F_1011, &Message::QueryLoad).unwrap();
        assert_eq!(&buf[0..4], b"NINF");
        assert_eq!(&buf[4..8], &[0, 0, 0, 3]);
        let len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        assert_eq!(buf.len(), FRAME_HEADER_BYTES + len);
        assert_eq!(
            &buf[12..20],
            &[0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10, 0x11]
        );
        let crc = u32::from_be_bytes(buf[20..24].try_into().unwrap());
        let mut h = Crc32c::new();
        h.update(&buf[12..20]).update(&buf[FRAME_HEADER_BYTES..]);
        assert_eq!(crc, h.finish());
        // The call id is outside the payload: the XDR bytes themselves are
        // identical to what a v1/v2 peer would have produced.
        assert_eq!(crc32c(&buf[FRAME_HEADER_BYTES..]), {
            let mut v2 = Vec::new();
            write_frame_mux(&mut v2, 0, &Message::QueryLoad).unwrap();
            crc32c(&v2[FRAME_HEADER_BYTES..])
        });
    }

    #[test]
    fn incremental_parse_matches_blocking_reader() {
        let msg = Message::Invoke {
            routine: "ep".into(),
            args: Arg::inline(vec![Value::Int(20)]),
            trace: None,
        };
        let buf = encode_frame(99, &msg).unwrap();
        let header: [u8; FRAME_HEADER_BYTES] = buf[..FRAME_HEADER_BYTES].try_into().unwrap();
        let parsed = parse_frame_header(&header).unwrap();
        assert_eq!(parsed.call_id, 99);
        assert_eq!(parsed.len as usize, buf.len() - FRAME_HEADER_BYTES);
        let decoded = check_frame_payload(&parsed, &buf[FRAME_HEADER_BYTES..]).unwrap();
        assert_eq!(decoded.message, msg);
        assert_eq!(decoded.digests, vec![None]);
    }

    /// A writer that accepts at most one byte per call — the worst legal
    /// case for partial-write bookkeeping.
    struct TrickleWriter(Vec<u8>);

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_byte_writes_still_frame_correctly() {
        let msg = Message::Invoke {
            routine: "trickle".into(),
            args: Arg::inline(vec![Value::DoubleArray(vec![2.5; 17])]),
            trace: None,
        };
        let mut trickle = TrickleWriter(Vec::new());
        write_frame(&mut trickle, &msg).unwrap();
        let mut direct = Vec::new();
        write_frame(&mut direct, &msg).unwrap();
        assert_eq!(trickle.0, direct);
        assert_eq!(read_frame(&mut trickle.0.as_slice()).unwrap(), msg);
    }
}
