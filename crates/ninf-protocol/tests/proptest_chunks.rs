//! Property tests for chunked bulk transfer (the WAN upload path): for
//! arbitrary images, chunk sizes, and delivery interleavings (retransmits
//! and a redial reorder arrivals) the reassembled image is byte-identical
//! to the original, and any missing, duplicated, or corrupted chunk yields a
//! typed [`ChunkError`] — never a panic, never a silently truncated
//! value.

use ninf_protocol::chunk::{chunk_span, split, ChunkError, Reassembly};
use ninf_protocol::{crc32c, Digest, Message, SplitMix64};
use proptest::prelude::*;

/// Unpack the fields of a `PutArgChunk` produced by `split`.
fn fields(m: &Message) -> (u64, u32, u32, u32, Vec<u8>) {
    match m {
        Message::PutArgChunk {
            total_bytes,
            total,
            seq,
            crc,
            bytes,
            ..
        } => (*total_bytes, *total, *seq, *crc, bytes.clone()),
        other => panic!("split produced {}", other.kind()),
    }
}

/// Deliver chunks in the order N stop-and-wait lanes would interleave
/// them under a seeded schedule: lane `w` owns seqs `w, w+N, w+2N, …`
/// and lanes take turns per a seed-driven permutation each round.
fn lane_interleaving(total: u32, lanes: u32, seed: u64) -> Vec<u32> {
    let mut cursors: Vec<u32> = (0..lanes).collect();
    let mut order = Vec::with_capacity(total as usize);
    let mut rng = SplitMix64::new(seed);
    while order.len() < total as usize {
        // One draw picks which live lane moves next.
        let z = rng.next_u64();
        let live: Vec<usize> = (0..lanes as usize)
            .filter(|&w| cursors[w] < total)
            .collect();
        let w = live[(z % live.len() as u64) as usize];
        order.push(cursors[w]);
        cursors[w] += lanes;
    }
    order
}

fn arb_upload() -> impl Strategy<Value = (Vec<u8>, u32, u32, u64)> {
    (
        proptest::collection::vec(any::<u8>(), 1..20_000),
        1u32..4_096,
        1u32..16,
        any::<u64>(),
    )
}

proptest! {
    /// Reassembly is byte-identical for any image, chunk size, stream
    /// count, and lane interleaving, and the content digest verifies.
    #[test]
    fn reassembles_byte_identically((image, chunk_bytes, lanes, seed) in arb_upload()) {
        let digest = Digest::of(&image);
        let chunks = split(digest, &image, chunk_bytes);
        let total = chunks.len() as u32;
        // Spans partition the image with no gaps or overlaps.
        let mut cursor = 0u64;
        for seq in 0..total {
            let (start, len) = chunk_span(image.len() as u64, total, seq);
            prop_assert_eq!(start, cursor);
            prop_assert!(len > 0);
            cursor += len as u64;
        }
        prop_assert_eq!(cursor, image.len() as u64);

        let mut r = Reassembly::new(digest, image.len() as u64, total).unwrap();
        for seq in lane_interleaving(total, lanes, seed) {
            let (tb, t, s, crc, bytes) = fields(&chunks[seq as usize]);
            r.accept(tb, t, s, crc, &bytes).unwrap();
        }
        prop_assert_eq!(r.into_image().unwrap(), image);
    }

    /// Withholding any one chunk leaves a typed Incomplete — the partial
    /// image can never escape as a truncated value.
    #[test]
    fn missing_chunk_is_typed((image, chunk_bytes, _lanes, seed) in arb_upload()) {
        let digest = Digest::of(&image);
        let chunks = split(digest, &image, chunk_bytes);
        let total = chunks.len() as u32;
        let withheld = (seed % total as u64) as u32;
        let mut r = Reassembly::new(digest, image.len() as u64, total).unwrap();
        for (i, c) in chunks.iter().enumerate() {
            if i as u32 == withheld {
                continue;
            }
            let (tb, t, s, crc, bytes) = fields(c);
            r.accept(tb, t, s, crc, &bytes).unwrap();
        }
        prop_assert!(!r.complete());
        prop_assert_eq!(r.into_image(), Err(ChunkError::Incomplete { missing: 1 }));
    }

    /// Re-delivering any chunk is a typed Duplicate, and the recorded CRC
    /// still matches (the hook the server's idempotent re-ack uses).
    #[test]
    fn duplicated_chunk_is_typed((image, chunk_bytes, _lanes, seed) in arb_upload()) {
        let digest = Digest::of(&image);
        let chunks = split(digest, &image, chunk_bytes);
        let total = chunks.len() as u32;
        let dup = (seed % total as u64) as u32;
        let mut r = Reassembly::new(digest, image.len() as u64, total).unwrap();
        let (tb, t, s, crc, bytes) = fields(&chunks[dup as usize]);
        r.accept(tb, t, s, crc, &bytes).unwrap();
        prop_assert_eq!(
            r.accept(tb, t, s, crc, &bytes),
            Err(ChunkError::Duplicate { seq: dup })
        );
        prop_assert_eq!(r.seen_crc(dup), Some(crc));
    }

    /// Flipping any single bit of any chunk's payload is a typed BadCrc;
    /// not a single corrupted byte reaches the image buffer.
    #[test]
    fn corrupted_chunk_is_typed(
        (image, chunk_bytes, _lanes, seed) in arb_upload(),
        bit in 0u8..8,
    ) {
        let digest = Digest::of(&image);
        let chunks = split(digest, &image, chunk_bytes);
        let total = chunks.len() as u32;
        let victim = (seed % total as u64) as u32;
        let mut r = Reassembly::new(digest, image.len() as u64, total).unwrap();
        let (tb, t, s, crc, mut bytes) = fields(&chunks[victim as usize]);
        let pos = (seed >> 32) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert_eq!(
            r.accept(tb, t, s, crc, &bytes),
            Err(ChunkError::BadCrc { seq: victim })
        );
        prop_assert_eq!(r.received(), 0);
    }

    /// A chunk lying about the upload geometry, its position, or its
    /// length is rejected with the matching typed error.
    #[test]
    fn geometry_lies_are_typed((image, chunk_bytes, _lanes, seed) in arb_upload()) {
        let digest = Digest::of(&image);
        let chunks = split(digest, &image, chunk_bytes);
        let total = chunks.len() as u32;
        let mut r = Reassembly::new(digest, image.len() as u64, total).unwrap();
        let (tb, t, s, crc, bytes) = fields(&chunks[(seed % total as u64) as usize]);
        prop_assert!(matches!(
            r.accept(tb + 1, t, s, crc, &bytes),
            Err(ChunkError::TotalMismatch { .. })
        ));
        prop_assert_eq!(
            r.accept(tb, t, total, crc, &bytes),
            Err(ChunkError::SeqOutOfRange { seq: total, total })
        );
        let mut longer = bytes.clone();
        longer.push(0xEE);
        prop_assert!(matches!(
            r.accept(tb, t, s, crc32c(&longer), &longer),
            Err(ChunkError::SizeMismatch { .. })
        ));
        prop_assert_eq!(r.received(), 0, "no lie may land bytes");
    }

    /// The chunk messages themselves survive the wire codec — what the
    /// lanes actually transmit decodes back bit-for-bit.
    #[test]
    fn chunk_messages_roundtrip_the_codec((image, chunk_bytes, _lanes, _seed) in arb_upload()) {
        let digest = Digest::of(&image);
        for c in split(digest, &image, chunk_bytes).into_iter().take(4) {
            let back = Message::decode(&c.encode()).unwrap();
            prop_assert_eq!(back, c);
        }
    }
}
