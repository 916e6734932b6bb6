//! Content digests for the argument cache.
//!
//! A [`Digest`] names one marshalled argument by the bytes of its tagged
//! XDR image: 128 bits in two independent halves, both computed in **one
//! pass** over the image.
//!
//! - `lo = crc32c(image) << 32 | len mod 2^32` — the frame checksum's own
//!   CRC-32C (the carry-less-multiply fold, see [`crate::crc`]) folded
//!   with the length.
//! - `hi` — a multi-lane multiply-rotate accumulation: little-endian
//!   64-bit word `k` of the image (the last one zero-padded) goes to lane
//!   `k mod 8` as `lane = rotl((lane ^ word) · K, 31)`; the eight lanes are
//!   then folded the same way into a length-seeded accumulator, which goes
//!   through the SplitMix64 finalizer once. Eight independent chains, so
//!   the multiplies overlap instead of waiting on each other.
//!
//! [`digest_value`] computes this without materialising the image, and
//! reads each array word once. The value's 8-byte header (tag and count) is
//! image word 0; for an array, image word `k ≥ 1` is its `k−1`-th 8 native
//! bytes byteswapped in a register (one element of a 64-bit array, two of
//! a 32-bit one, an odd count ending in a zero-padded half word). The CRC
//! fold loads the array through a byteswapping shuffle
//! (`crc::update_words`) and hands each 256 B piece it has loaded
//! to the lanes while the piece is in L1; no image block is written.
//! [`Digest::of`] is **the same function** over a byte image, fed to
//! `Hasher` in 2 KiB blocks (the lanes, then the CRC, over each block
//! while it is in L1). Chunked uploads are named and verified with it, and
//! a property test holds `digest_value(v) == Digest::of(&value_image(v))`
//! for every value kind. A split definition would be silent: every uploaded
//! value would ship inline a second time and no call would fail. The frame
//! check ([`crate::frame::check_frame_payload`]) takes the same digest of each
//! cacheable inline argument straight from the received payload, in the
//! pass that checks the frame's CRC.
//!
//! The halves fail independently, so an accidental collision needs to
//! defeat both at once; this is a cache key against accidental collision,
//! not an adversarial MAC — a client that lies about digests only poisons
//! its own results.
//!
//! **Flag day (PR 21).** Until PR 21 `hi` was one serial SplitMix chain
//! over the words; its values changed with the lanes (`lo` did not). Peers
//! on different definitions name values the other cannot find: every ref
//! misses and is refilled through `NeedArg`, so calls are slower, never
//! wrong.
//!
//! Arguments below [`ARG_CACHE_MIN_BYTES`] are never cached: a digest ref
//! costs ~20 wire bytes plus a store lookup, which only pays for itself on
//! the flat arrays that dominate WAN transfer time.

use ninf_xdr::{BeWord, BE_BLOCK_BYTES};

use crate::codec::Wire;
use crate::crc::image_word;
use crate::value::Value;

/// Arguments smaller than this many XDR bytes are always shipped inline —
/// the ref machinery only pays for itself on large flat arrays.
pub const ARG_CACHE_MIN_BYTES: usize = 1024;

/// 128-bit content digest of one marshalled argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    /// Eight-lane multiply-rotate accumulation over the XDR image.
    pub hi: u64,
    /// `crc32c(image) << 32 | len mod 2^32` — a second, independent check.
    pub lo: u64,
}

impl Digest {
    /// Digest of a byte image.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Independent accumulator lanes of the `hi` half.
const LANES: usize = 8;
/// Bytes one kernel step consumes: one word per lane.
const GROUP: usize = LANES * 8;
/// Odd multiplier, 2^64 / φ.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lane step: a bijection of `acc` for a fixed word and of the word
/// for a fixed `acc`, so a one-word change always reaches the lane's end.
#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(K).rotate_left(31)
}

/// The SplitMix64 finalizer.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The lanes' starting values.
fn seed() -> [u64; LANES] {
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = finalize(i as u64 + 1);
    }
    lanes
}

/// The digest kernel: the 8-byte word `k` of `bytes` (the last one
/// zero-padded), read through `load`, goes to lane `k mod 8`. Each call
/// starts again at lane 0, so a caller hands it whole [`GROUP`]s until its
/// last piece, or turns the lanes to match (as [`digest_words`] does).
#[inline]
fn absorb(lanes: &mut [u64; LANES], bytes: &[u8], load: impl Fn([u8; 8]) -> u64) {
    let mut acc = *lanes;
    let (groups, tail) = bytes.as_chunks::<GROUP>();
    for g in groups {
        let (words, _) = g.as_chunks::<8>();
        for (lane, w) in acc.iter_mut().zip(words) {
            *lane = mix(*lane, load(*w));
        }
    }
    for (lane, w) in acc.iter_mut().zip(tail.chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *lane = mix(*lane, load(word));
    }
    *lanes = acc;
}

/// Both halves from the lanes, the raw CRC register and the image length.
fn seal(lanes: &[u64; LANES], crc: u32, len: u64) -> Digest {
    Digest {
        hi: finalize(lanes.iter().fold(K ^ len, |h, &l| mix(h, l))),
        lo: (u64::from(!crc) << 32) | (len & 0xFFFF_FFFF),
    }
}

/// One streaming pass computing both halves; bytes may arrive in pieces
/// of any length. The frame writer feeds one from the bytes it writes, so
/// an argument is digested in the pass that encodes it, and the frame
/// check feeds one from the payload it checks; both hand it the frame's
/// CRC register to carry over the same bytes: each block goes to the
/// lanes and then to each register while it is in L1.
pub(crate) struct Hasher {
    lanes: [u64; LANES],
    /// Raw (uncomplemented) CRC-32C register.
    crc: u32,
    /// A second raw CRC-32C register advanced over exactly the bytes
    /// hashed, in order (the frame's, while an argument is digested).
    carry: Option<u32>,
    len: u64,
    /// The start of a group whose remaining bytes have not arrived yet.
    pending: [u8; GROUP],
    filled: usize,
}

impl Hasher {
    pub(crate) fn new() -> Self {
        Self::carrying(None)
    }

    /// A hasher that also advances `carry` over every byte it hashes.
    pub(crate) fn carrying(carry: Option<u32>) -> Self {
        Hasher {
            lanes: seed(),
            crc: !0,
            carry,
            len: 0,
            pending: [0; GROUP],
            filled: 0,
        }
    }

    /// Fold `data` one [`BE_BLOCK_BYTES`] block at a time: the lanes, then
    /// each CRC register over the same block while it is still in L1.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        for block in data.chunks(BE_BLOCK_BYTES) {
            self.feed_lanes(block);
            self.crc = crate::crc::update(self.crc, block);
            if let Some(carry) = &mut self.carry {
                *carry = crate::crc::update(*carry, block);
            }
        }
    }

    /// The lanes' share of [`Hasher::update`]: whole groups go to the
    /// kernel, and the start of a group still arriving waits in `pending`.
    /// (The CRC registers take bytes at any boundary.)
    fn feed_lanes(&mut self, mut data: &[u8]) {
        if self.filled > 0 {
            let take = (GROUP - self.filled).min(data.len());
            self.pending[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < GROUP {
                return;
            }
            absorb(&mut self.lanes, &self.pending, image_word::<1>);
            self.filled = 0;
        }
        let (groups, rest) = data.as_chunks::<GROUP>();
        absorb(&mut self.lanes, groups.as_flattened(), image_word::<1>);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    pub(crate) fn finish(self) -> Digest {
        self.close().0
    }

    /// The digest, and the carried register advanced over every byte.
    pub(crate) fn close(mut self) -> (Digest, Option<u32>) {
        absorb(
            &mut self.lanes,
            &self.pending[..self.filled],
            image_word::<1>,
        );
        (seal(&self.lanes, self.crc, self.len), self.carry)
    }
}

/// Full tagged XDR image of one value: the exact byte stream chunked bulk
/// uploads ship and [`digest_value`] hashes, so a reassembled upload can be
/// verified end-to-end against the digest that named it.
pub fn value_image(v: &Value) -> ninf_xdr::Bytes {
    let mut enc = ninf_xdr::XdrEncoder::new();
    v.put(&mut enc);
    enc.finish()
}

/// Digest of one argument value, over its full tagged XDR image (the tag
/// keeps an `IntArray` and a `FloatArray` with identical bytes distinct),
/// in one streaming pass that never builds the image:
/// `digest_value(v) == Digest::of(&value_image(v))`.
pub fn digest_value(v: &Value) -> Digest {
    let tag = crate::message::value_tag(v).to_be_bytes();
    let scalar = |body: &[u8]| {
        let mut h = Hasher::new();
        h.update(&tag);
        h.update(body);
        h.finish()
    };
    match v {
        Value::Int(x) => scalar(&x.to_be_bytes()),
        Value::Long(x) => scalar(&x.to_be_bytes()),
        Value::Float(x) => scalar(&x.to_be_bytes()),
        Value::Double(x) => scalar(&x.to_be_bytes()),
        Value::IntArray(a) => digest_array(tag, a),
        Value::LongArray(a) => digest_array(tag, a),
        Value::FloatArray(a) => digest_array(tag, a),
        Value::DoubleArray(a) => digest_array(tag, a),
    }
}

/// Digest of an array value from its elements in place: the header (tag,
/// count) is image word 0, and each element is read once.
fn digest_array<T: BeWord>(tag: [u8; 4], items: &[T]) -> Digest {
    let [t0, t1, t2, t3] = tag;
    let [c0, c1, c2, c3] = (items.len() as u32).to_be_bytes();
    let header = [t0, t1, t2, t3, c0, c1, c2, c3];
    // SAFETY: `BeWord` is sealed to `i32`, `i64`, `f32` and `f64`, which
    // have no padding, so all `size_of_val(items)` bytes behind the pointer
    // are initialised; `u8` needs no alignment, and the view borrows
    // `items`.
    let body = unsafe {
        std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
    };
    match std::mem::size_of::<T>() {
        8 => digest_words::<8>(header, body),
        _ => digest_words::<4>(header, body),
    }
}

/// Digest of the image `header ++ body`, `body` held as native words of
/// `W` bytes: the CRC fold loads each piece of it byteswapped, and the
/// lanes read the piece while it is in L1.
fn digest_words<const W: usize>(header: [u8; 8], body: &[u8]) -> Digest {
    let mut lanes = seed();
    absorb(&mut lanes, &header, image_word::<1>);
    // Body word `j` is image word `j + 1`: turn the lanes one place so it
    // lands on lane `j mod 8`, and back afterwards.
    lanes.rotate_left(1);
    let crc = crate::crc::update(!0, &header);
    let crc = crate::crc::update_words::<W>(crc, body, |piece| {
        absorb(&mut lanes, piece, image_word::<W>);
    });
    lanes.rotate_right(1);
    seal(&lanes, crc, (header.len() + body.len()) as u64)
}

/// Whether an argument is worth caching at all: a flat array whose XDR
/// image is at least [`ARG_CACHE_MIN_BYTES`].
pub fn cacheable(v: &Value) -> bool {
    !v.is_scalar() && v.wire_bytes() >= ARG_CACHE_MIN_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_content_addressed() {
        let a = Value::DoubleArray(vec![1.5; 400]);
        let b = Value::DoubleArray(vec![1.5; 400]);
        assert_eq!(digest_value(&a), digest_value(&b));
        let c = Value::DoubleArray(vec![1.5000001; 400]);
        assert_ne!(digest_value(&a), digest_value(&c));
    }

    #[test]
    fn digest_distinguishes_value_types_with_identical_bodies() {
        // Same raw body bytes, different tags: must not collide.
        let ints = Value::IntArray(vec![0; 300]);
        let floats = Value::FloatArray(vec![0.0; 300]);
        assert_ne!(digest_value(&ints), digest_value(&floats));
    }

    #[test]
    fn digest_sensitive_to_length_and_tail() {
        let short = Digest::of(&[7u8; 9]);
        let long = Digest::of(&[7u8; 10]);
        assert_ne!(short, long);
        // Single final-byte flip flips both halves' inputs.
        let mut tweaked = vec![7u8; 9];
        tweaked[8] = 8;
        assert_ne!(Digest::of(&tweaked), short);
    }

    #[test]
    fn length_is_folded_into_lo() {
        let d = Digest::of(&[0u8; 1234]);
        assert_eq!(d.lo & 0xFFFF_FFFF, 1234);
    }

    /// Known answers, pinned so that a change of definition is a
    /// deliberate flag day and not an accident.
    #[test]
    fn pinned_known_answers() {
        let matrix = Value::DoubleArray((0..300).map(|i| f64::from(i) * 0.5 - 7.0).collect());
        let odd_tail = Value::IntArray(vec![1, -2, 3, -4, 5, -6, 7]);
        assert_eq!(
            digest_value(&matrix).to_string(),
            "9124637e6b157cb6afd8349500000968"
        );
        assert_eq!(
            digest_value(&odd_tail).to_string(),
            "76e973e9dec187d85aa3604500000024"
        );
    }

    proptest::proptest! {
        /// Bytes arriving in pieces of any length — the value header,
        /// then 2 KiB blocks, in `digest_value` — digest as one piece.
        #[test]
        fn pieces_of_any_length_digest_as_one(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=2_000),
            cuts in proptest::collection::vec(0usize..=2_000, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Hasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.update(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(h.finish(), Digest::of(&bytes));
        }
    }

    proptest::proptest! {
        /// A hasher carrying a frame register gives, from pieces cut
        /// anywhere across its 2 KiB block edges, the digest and carried
        /// register it gives from one piece: the digest of the bytes and
        /// the register advanced over every one of them.
        #[test]
        fn a_carried_register_sees_every_block(
            bytes in proptest::collection::vec(
                proptest::prelude::any::<u8>(),
                0..=3 * BE_BLOCK_BYTES + 100,
            ),
            cuts in proptest::collection::vec(0usize..=3 * BE_BLOCK_BYTES + 100, 0..6),
            register in proptest::prelude::any::<u32>(),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut pieces = Hasher::carrying(Some(register));
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                pieces.update(&bytes[from..cut]);
                from = cut;
            }
            let mut whole = Hasher::carrying(Some(register));
            whole.update(&bytes);
            let (digest, carried) = pieces.close();
            proptest::prop_assert_eq!((digest, carried), whole.close());
            proptest::prop_assert_eq!(digest, Digest::of(&bytes));
            proptest::prop_assert_eq!(carried, Some(crate::crc::update_sw::<1>(register, &bytes)));
        }
    }

    /// Every array kind, at lengths around the lanes' 8-word group, the
    /// 256 B fold step and the 2 KiB block, and odd 32-bit counts (which
    /// end in a half word): the native-word path digests the image.
    #[test]
    fn native_words_digest_as_the_image() {
        let lens = [
            0usize, 1, 3, 7, 8, 9, 15, 31, 32, 33, 63, 65, 255, 256, 257, 511, 513, 4095, 4096,
        ];
        for len in lens {
            let x = |i: usize| (i as i64).wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) >> 7;
            let values = [
                Value::IntArray((0..len).map(|i| x(i) as i32).collect()),
                Value::LongArray((0..len).map(x).collect()),
                Value::FloatArray((0..len).map(|i| x(i) as f32 * 0.25).collect()),
                Value::DoubleArray((0..len).map(|i| x(i) as f64 * 0.25).collect()),
            ];
            for v in values {
                let tag = crate::message::value_tag(&v);
                let image = value_image(&v);
                assert_eq!(
                    digest_value(&v),
                    Digest::of(&image),
                    "tag {tag}, {len} elements"
                );
            }
        }
    }

    proptest::proptest! {
        /// The lanes take an array in any pieces of whole 64 B groups but
        /// the last (the pieces every CRC path hands over): the lanes come
        /// out as from one piece, for both byteswapping loaders.
        #[test]
        fn lanes_take_whole_group_pieces_as_one(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..=200),
            half in proptest::prelude::any::<bool>(),
            cuts in proptest::collection::vec(0usize..=25, 0..6),
        ) {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_ne_bytes()).collect();
            if half && !bytes.is_empty() {
                bytes.truncate(bytes.len() - 4);
            }
            let mut cuts: Vec<usize> =
                cuts.into_iter().map(|c| (c * GROUP).min(bytes.len())).collect();
            cuts.sort_unstable();
            let lanes_of = |pieces: &[&[u8]], load: fn([u8; 8]) -> u64| {
                let mut lanes = seed();
                for piece in pieces {
                    absorb(&mut lanes, piece, load);
                }
                lanes
            };
            let mut pieces = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                pieces.push(&bytes[from..cut]);
                from = cut;
            }
            let as_one = |load: fn([u8; 8]) -> u64| lanes_of(&pieces, load) == lanes_of(&[&bytes], load);
            proptest::prop_assert!(as_one(image_word::<4>));
            // 64-bit words never end in a half word.
            proptest::prop_assert!(half || as_one(image_word::<8>));
        }
    }

    #[test]
    fn one_word_change_anywhere_changes_hi() {
        let base: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let d = Digest::of(&base);
        for at in 0..base.len() {
            let mut flipped = base.clone();
            flipped[at] ^= 0x10;
            assert_ne!(Digest::of(&flipped).hi, d.hi, "flip at byte {at}");
        }
    }

    #[test]
    fn cacheable_requires_large_flat_array() {
        assert!(!cacheable(&Value::Int(7)));
        assert!(!cacheable(&Value::DoubleArray(vec![0.0; 8])));
        assert!(cacheable(&Value::DoubleArray(vec![0.0; 1024])));
        assert_eq!(
            Value::DoubleArray(vec![0.0; 128]).wire_bytes(),
            ARG_CACHE_MIN_BYTES
        );
        assert!(cacheable(&Value::DoubleArray(vec![0.0; 128])));
    }
}
