//! Chunked bulk-argument transfer: split, verify, reassemble.
//!
//! A large argument's tagged XDR image (the exact bytes
//! [`digest_value`](crate::digest::digest_value) hashes) is cut into
//! `total = ceil(total_bytes / chunk_bytes)` equal-size chunks (the last
//! one short), each shipped as a [`Message::PutArgChunk`] carrying its
//! own CRC-32C. Geometry is *derived*, never trusted: chunk `seq`'s byte
//! span is a pure function of `(total_bytes, total, seq)`, so a chunk
//! whose length disagrees with its claimed position is rejected before a
//! byte lands in the buffer. Completion verifies the whole-image content
//! digest — end-to-end proof that N streams' interleaved deliveries
//! reassembled byte-identically.
//!
//! [`Reassembly::accept`] is strict: a second delivery of a seq is a
//! typed [`ChunkError::Duplicate`], never a silent overwrite. The
//! *server* layers retransmit-friendliness on top by re-acking a
//! duplicate whose CRC matches what it already holds — the distinction
//! between "the ack got lost" (benign, re-ack) and "two different bytes
//! claim one seq" (corruption, refuse) lives there, not here.

use crate::crc::crc32c;
use crate::digest::Digest;
use crate::frame::MAX_FRAME_BYTES;
use crate::message::Message;

/// Arguments whose XDR image is at least this large go chunked over the
/// bulk lane; smaller ones ship inline in the Invoke.
pub const CHUNK_THRESHOLD: usize = 64 * 1024;

/// Default chunk payload size. Small enough that a window of them paces
/// smoothly through a capped link, large enough that per-chunk framing
/// overhead (~48 bytes) stays under 0.3%.
pub const DEFAULT_CHUNK_BYTES: u32 = 16 * 1024;

/// Why a chunk (or a finished upload) was rejected. Every failure mode
/// of the wire protocol maps to exactly one variant — a corrupt, lost,
/// duplicated, or misdeclared chunk is always a typed error, never a
/// panic or a silently truncated value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Declared image size is zero or exceeds the frame cap.
    Oversize {
        /// Declared total image bytes.
        total_bytes: u64,
    },
    /// Declared chunk count is zero or exceeds the image size.
    BadTotal {
        /// Declared chunk count.
        total: u32,
        /// Declared total image bytes.
        total_bytes: u64,
    },
    /// A chunk's declared geometry disagrees with the upload's.
    TotalMismatch {
        /// Geometry the first chunk pinned: `(total_bytes, total)`.
        expected: (u64, u32),
        /// Geometry this chunk claims.
        got: (u64, u32),
    },
    /// Sequence number at or past the declared chunk count.
    SeqOutOfRange {
        /// The offending sequence number.
        seq: u32,
        /// Declared chunk count.
        total: u32,
    },
    /// Chunk length differs from what its position dictates.
    SizeMismatch {
        /// The chunk.
        seq: u32,
        /// Length its span dictates.
        expected: usize,
        /// Length that arrived.
        got: usize,
    },
    /// Chunk bytes fail their own CRC.
    BadCrc {
        /// The chunk.
        seq: u32,
    },
    /// A seq delivered twice into one reassembly.
    Duplicate {
        /// The chunk.
        seq: u32,
    },
    /// Completion requested with chunks still missing.
    Incomplete {
        /// How many chunks never arrived.
        missing: u32,
    },
    /// The reassembled image does not hash to the declared digest.
    DigestMismatch {
        /// Digest the upload was addressed to.
        expected: Digest,
        /// Digest of what actually reassembled.
        got: Digest,
    },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Oversize { total_bytes } => {
                write!(f, "chunked image of {total_bytes} bytes out of range")
            }
            ChunkError::BadTotal { total, total_bytes } => {
                write!(f, "{total} chunks cannot carry {total_bytes} bytes")
            }
            ChunkError::TotalMismatch { expected, got } => write!(
                f,
                "chunk declares geometry {got:?}, upload pinned {expected:?}"
            ),
            ChunkError::SeqOutOfRange { seq, total } => {
                write!(f, "chunk seq {seq} out of range for {total} chunks")
            }
            ChunkError::SizeMismatch { seq, expected, got } => {
                write!(
                    f,
                    "chunk {seq} carries {got} bytes, span dictates {expected}"
                )
            }
            ChunkError::BadCrc { seq } => write!(f, "chunk {seq} failed its CRC"),
            ChunkError::Duplicate { seq } => write!(f, "chunk {seq} delivered twice"),
            ChunkError::Incomplete { missing } => {
                write!(f, "upload incomplete: {missing} chunks missing")
            }
            ChunkError::DigestMismatch { expected, got } => {
                write!(
                    f,
                    "reassembled image hashes to {got}, upload named {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// Number of chunks an image of `total_bytes` cuts into at `chunk_bytes`
/// per chunk.
pub fn chunk_count(total_bytes: u64, chunk_bytes: u32) -> u32 {
    let cb = chunk_bytes.max(1) as u64;
    total_bytes.div_ceil(cb).max(1) as u32
}

/// The byte span `[start, start + len)` chunk `seq` covers in an image of
/// `total_bytes` cut into `total` chunks: every chunk is
/// `ceil(total_bytes / total)` bytes except a short final one.
pub fn chunk_span(total_bytes: u64, total: u32, seq: u32) -> (u64, usize) {
    let cs = total_bytes.div_ceil(total.max(1) as u64);
    let start = cs * seq as u64;
    let end = (start + cs).min(total_bytes);
    (start, end.saturating_sub(start) as usize)
}

/// Cut `image` into [`Message::PutArgChunk`]s of `chunk_bytes` addressed
/// to `digest` — the pure sender half; the caller fans these out over its
/// lanes in any order.
pub fn split(digest: Digest, image: &[u8], chunk_bytes: u32) -> Vec<Message> {
    let total_bytes = image.len() as u64;
    let total = chunk_count(total_bytes, chunk_bytes);
    (0..total)
        .map(|seq| {
            let (start, len) = chunk_span(total_bytes, total, seq);
            let bytes = image[start as usize..start as usize + len].to_vec();
            Message::PutArgChunk {
                digest,
                total_bytes,
                total,
                seq,
                crc: crc32c(&bytes),
                bytes,
            }
        })
        .collect()
}

/// Receiver-side state for one in-flight upload: accepts chunks in any
/// order (any interleaving of N lanes), rejects every malformed one with
/// a typed [`ChunkError`], and yields the verified image at completion.
#[derive(Debug)]
pub struct Reassembly {
    digest: Digest,
    total_bytes: u64,
    total: u32,
    buf: Vec<u8>,
    /// Per-seq CRC of what landed; doubles as the received bitmap.
    seen: Vec<Option<u32>>,
    got: u32,
}

impl Reassembly {
    /// Start an upload addressed to `digest` with the declared geometry.
    /// Geometry is validated here, so a hostile declaration can never
    /// reserve an oversized buffer.
    pub fn new(digest: Digest, total_bytes: u64, total: u32) -> Result<Reassembly, ChunkError> {
        if total_bytes == 0 || total_bytes > MAX_FRAME_BYTES as u64 {
            return Err(ChunkError::Oversize { total_bytes });
        }
        if total == 0 || total as u64 > total_bytes {
            return Err(ChunkError::BadTotal { total, total_bytes });
        }
        Ok(Reassembly {
            digest,
            total_bytes,
            total,
            buf: vec![0; total_bytes as usize],
            seen: vec![None; total as usize],
            got: 0,
        })
    }

    /// Declared geometry: `(total_bytes, total)`.
    pub fn geometry(&self) -> (u64, u32) {
        (self.total_bytes, self.total)
    }

    /// Chunks landed so far.
    pub fn received(&self) -> u32 {
        self.got
    }

    /// Whether every chunk has landed.
    pub fn complete(&self) -> bool {
        self.got == self.total
    }

    /// CRC recorded for an already-landed `seq`, if any — what the server
    /// consults to distinguish a benign retransmit (same CRC: re-ack)
    /// from conflicting bytes (different CRC: refuse).
    pub fn seen_crc(&self, seq: u32) -> Option<u32> {
        self.seen.get(seq as usize).copied().flatten()
    }

    /// Land one chunk. Returns whether the upload is now complete.
    pub fn accept(
        &mut self,
        total_bytes: u64,
        total: u32,
        seq: u32,
        crc: u32,
        bytes: &[u8],
    ) -> Result<bool, ChunkError> {
        if (total_bytes, total) != (self.total_bytes, self.total) {
            return Err(ChunkError::TotalMismatch {
                expected: (self.total_bytes, self.total),
                got: (total_bytes, total),
            });
        }
        if seq >= self.total {
            return Err(ChunkError::SeqOutOfRange {
                seq,
                total: self.total,
            });
        }
        let (start, len) = chunk_span(self.total_bytes, self.total, seq);
        if bytes.len() != len {
            return Err(ChunkError::SizeMismatch {
                seq,
                expected: len,
                got: bytes.len(),
            });
        }
        if crc32c(bytes) != crc {
            return Err(ChunkError::BadCrc { seq });
        }
        if self.seen[seq as usize].is_some() {
            return Err(ChunkError::Duplicate { seq });
        }
        self.buf[start as usize..start as usize + len].copy_from_slice(bytes);
        self.seen[seq as usize] = Some(crc);
        self.got += 1;
        Ok(self.complete())
    }

    /// Finish: verify the reassembled image against the upload's digest
    /// and hand it over. Incomplete or mismatched uploads are typed
    /// errors — a truncated or corrupted image can never escape.
    pub fn into_image(self) -> Result<Vec<u8>, ChunkError> {
        if !self.complete() {
            return Err(ChunkError::Incomplete {
                missing: self.total - self.got,
            });
        }
        let got = Digest::of(&self.buf);
        if got != self.digest {
            return Err(ChunkError::DigestMismatch {
                expected: self.digest,
                got,
            });
        }
        Ok(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    fn reassemble_in_order(img: &[u8], chunk_bytes: u32) -> Vec<u8> {
        let digest = Digest::of(img);
        let chunks = split(digest, img, chunk_bytes);
        let total = chunks.len() as u32;
        let mut r = Reassembly::new(digest, img.len() as u64, total).unwrap();
        for c in &chunks {
            let Message::PutArgChunk {
                total_bytes,
                total,
                seq,
                crc,
                bytes,
                ..
            } = c
            else {
                panic!("split produced a non-chunk");
            };
            r.accept(*total_bytes, *total, *seq, *crc, bytes).unwrap();
        }
        r.into_image().unwrap()
    }

    #[test]
    fn split_and_reassemble_round_trips() {
        for n in [1usize, 100, 16 * 1024, 16 * 1024 + 1, 100_000] {
            let img = image(n);
            assert_eq!(reassemble_in_order(&img, 16 * 1024), img, "n={n}");
        }
    }

    #[test]
    fn spans_partition_the_image_exactly() {
        for (total_bytes, chunk_bytes) in [(1u64, 16u32), (100, 7), (100_000, 16 * 1024)] {
            let total = chunk_count(total_bytes, chunk_bytes);
            let mut cursor = 0u64;
            for seq in 0..total {
                let (start, len) = chunk_span(total_bytes, total, seq);
                assert_eq!(start, cursor);
                assert!(len > 0, "empty chunk {seq}");
                cursor += len as u64;
            }
            assert_eq!(cursor, total_bytes);
        }
    }

    #[test]
    fn out_of_order_delivery_reassembles_identically() {
        let img = image(50_000);
        let digest = Digest::of(&img);
        let mut chunks = split(digest, &img, 4096);
        chunks.reverse();
        let total = chunks.len() as u32;
        let mut r = Reassembly::new(digest, img.len() as u64, total).unwrap();
        for c in &chunks {
            if let Message::PutArgChunk {
                total_bytes,
                total,
                seq,
                crc,
                bytes,
                ..
            } = c
            {
                r.accept(*total_bytes, *total, *seq, *crc, bytes).unwrap();
            }
        }
        assert_eq!(r.into_image().unwrap(), img);
    }

    #[test]
    fn duplicate_chunk_is_typed_error() {
        let img = image(10_000);
        let digest = Digest::of(&img);
        let chunks = split(digest, &img, 4096);
        let mut r = Reassembly::new(digest, img.len() as u64, chunks.len() as u32).unwrap();
        if let Message::PutArgChunk {
            total_bytes,
            total,
            seq,
            crc,
            bytes,
            ..
        } = &chunks[0]
        {
            r.accept(*total_bytes, *total, *seq, *crc, bytes).unwrap();
            assert_eq!(
                r.accept(*total_bytes, *total, *seq, *crc, bytes),
                Err(ChunkError::Duplicate { seq: *seq })
            );
            // The landed CRC stays consultable for the server's re-ack rule.
            assert_eq!(r.seen_crc(*seq), Some(*crc));
        }
    }

    #[test]
    fn corrupt_chunk_is_typed_error() {
        let img = image(10_000);
        let digest = Digest::of(&img);
        let chunks = split(digest, &img, 4096);
        let mut r = Reassembly::new(digest, img.len() as u64, chunks.len() as u32).unwrap();
        if let Message::PutArgChunk {
            total_bytes,
            total,
            seq,
            crc,
            bytes,
            ..
        } = &chunks[1]
        {
            let mut garbled = bytes.clone();
            garbled[17] ^= 0x40;
            assert_eq!(
                r.accept(*total_bytes, *total, *seq, *crc, &garbled),
                Err(ChunkError::BadCrc { seq: *seq })
            );
            // Wrong length for the claimed position.
            assert!(matches!(
                r.accept(*total_bytes, *total, *seq, crc32c(&bytes[1..]), &bytes[1..]),
                Err(ChunkError::SizeMismatch { .. })
            ));
        }
    }

    #[test]
    fn geometry_lies_are_typed_errors() {
        let img = image(10_000);
        let digest = Digest::of(&img);
        let mut r = Reassembly::new(digest, img.len() as u64, 3).unwrap();
        assert!(matches!(
            r.accept(9_999, 3, 0, 0, &[]),
            Err(ChunkError::TotalMismatch { .. })
        ));
        assert!(matches!(
            r.accept(10_000, 3, 3, 0, &[]),
            Err(ChunkError::SeqOutOfRange { seq: 3, total: 3 })
        ));
        assert_eq!(
            Reassembly::new(digest, 0, 1).unwrap_err(),
            ChunkError::Oversize { total_bytes: 0 }
        );
        assert!(Reassembly::new(digest, u64::MAX, 1).is_err());
        assert_eq!(
            Reassembly::new(digest, 10, 0).unwrap_err(),
            ChunkError::BadTotal {
                total: 0,
                total_bytes: 10
            }
        );
        assert!(Reassembly::new(digest, 10, 11).is_err());
    }

    #[test]
    fn missing_chunk_is_incomplete_not_truncation() {
        let img = image(10_000);
        let digest = Digest::of(&img);
        let chunks = split(digest, &img, 4096);
        let mut r = Reassembly::new(digest, img.len() as u64, chunks.len() as u32).unwrap();
        for c in chunks.iter().skip(1) {
            if let Message::PutArgChunk {
                total_bytes,
                total,
                seq,
                crc,
                bytes,
                ..
            } = c
            {
                let done = r.accept(*total_bytes, *total, *seq, *crc, bytes).unwrap();
                assert!(!done);
            }
        }
        assert_eq!(
            r.into_image().unwrap_err(),
            ChunkError::Incomplete { missing: 1 }
        );
    }

    #[test]
    fn wrong_digest_cannot_escape() {
        // All chunks individually valid, but the upload was addressed to a
        // different value's digest: completion must refuse.
        let img = image(10_000);
        let wrong = Digest::of(b"some other value entirely");
        let chunks = split(wrong, &img, 4096);
        let mut r = Reassembly::new(wrong, img.len() as u64, chunks.len() as u32).unwrap();
        for c in &chunks {
            if let Message::PutArgChunk {
                total_bytes,
                total,
                seq,
                crc,
                bytes,
                ..
            } = c
            {
                r.accept(*total_bytes, *total, *seq, *crc, bytes).unwrap();
            }
        }
        assert!(matches!(
            r.into_image(),
            Err(ChunkError::DigestMismatch { .. })
        ));
    }
}
