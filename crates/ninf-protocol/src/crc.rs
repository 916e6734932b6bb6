//! CRC-32C (Castagnoli): the one CRC kernel.
//!
//! The v3 frame header carries a CRC of call id ++ payload, so corruption
//! on the wire is rejected *before* any XDR decode runs; bulk chunks carry
//! one each, and the argument-cache digest's `lo` half is one
//! ([`crate::digest`]). Castagnoli is chosen over CRC-32/ISO because x86_64
//! carries it in hardware (`crc32`, SSE 4.2).
//!
//! `update` picks one of three paths at runtime; all give identical
//! registers:
//!
//! - a 512-bit carry-less-multiply fold (VPCLMULQDQ, four 64 B
//!   accumulators, 256 B per step) when `avx512bw` and `vpclmulqdq` are
//!   present;
//! - else a 128-bit fold (PCLMULQDQ, four 16 B accumulators, 64 B per
//!   step), which is also the 512-bit fold's tail;
//! - else a slice-by-8 table.
//!
//! A fold treats the data as a polynomial and replaces a 128-bit block `a`
//! that lies `d` bits ahead of the next block by
//! `a.lo · x^(d+32) ⊕ a.hi · x^(d−32)` (mod P), two carry-less multiplies
//! that run on their own port, beside the digest lanes' 64-bit multiplies
//! (the `crc32` instruction shares a port with those, so a `crc32` chain
//! and the lanes never overlap). The multipliers are derived from `POLY`
//! at compile time (`fold_key`). Both folds reduce to one 128-bit block
//! and finish with `crc32` over those 16 bytes and the last < 16 B: the
//! register is injected into the first block, so the residue's CRC from a
//! zero register is the answer and no Barrett step is needed.
//!
//! `update_words` is the same three paths over an array held in native
//! order whose image is big-endian: each path byteswaps the words as it
//! loads them (`vpshufb`/`pshufb` on the folds, a register swap on the
//! table), so an array's CRC never stages its image. It hands each folded
//! piece of the array to a visitor while the piece is still in L1: the
//! digest's lanes read the array in the same pass.

/// Reflected CRC-32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Bytes one visited piece of [`update_words`] holds, but the last.
const STEP: usize = 256;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// A fold multiplier: `x^n mod P` for the reflected polynomial `poly`, bit
/// reflected and shifted left by one (a reflected carry-less product comes
/// out one bit low), as a 33-bit operand of a 64 × 64 carry-less multiply.
/// A block folded `d` bits forward takes `fold_key(poly, d + 32)` for its
/// low half and `fold_key(poly, d - 32)` for its high half.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const fn fold_key(poly: u32, n: u32) -> u64 {
    // In the reflected domain x^0 is the top bit and multiplying by x is a
    // right shift, reduced by `poly` when a bit falls off.
    let mut r = 0x8000_0000u32;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ poly } else { r >> 1 };
        i += 1;
    }
    (r as u64) << 1
}

/// The image of 8 native bytes holding words of `W` bytes, read as one
/// little-endian word: `W = 1` is the bytes as they are, `W = 4` and
/// `W = 8` big-endian words (`u64::from_le_bytes(x.to_be_bytes())` is
/// `x.swap_bytes()` on any host). On a little-endian host `W = 8` is one
/// `bswap`.
#[inline(always)]
pub(crate) fn image_word<const W: usize>(native: [u8; 8]) -> u64 {
    const { assert!(W == 1 || W == 4 || W == 8) };
    match W {
        8 => u64::from_ne_bytes(native).swap_bytes(),
        4 => {
            let [a0, a1, a2, a3, b0, b1, b2, b3] = native;
            let a = u32::from_ne_bytes([a0, a1, a2, a3]).swap_bytes();
            let b = u32::from_ne_bytes([b0, b1, b2, b3]).swap_bytes();
            u64::from(a) | u64::from(b) << 32
        }
        _ => u64::from_le_bytes(native),
    }
}

/// The image bytes of fewer than 8 native bytes (whole `W`-byte words):
/// `native` itself for `W = 1`, else swapped into `buf`.
#[inline]
fn image_tail<'a, const W: usize>(native: &'a [u8], buf: &'a mut [u8; 8]) -> &'a [u8] {
    if W == 1 {
        return native;
    }
    buf[..native.len()].copy_from_slice(native);
    *buf = image_word::<W>(*buf).to_le_bytes();
    &buf[..native.len()]
}

/// Slice-by-8 software CRC over the image of native `W`-byte words (see
/// [`image_word`]): eight table lookups per 8-byte chunk instead of one
/// lookup per byte. Works on the raw (uncomplemented) register.
pub(crate) fn update_sw<const W: usize>(mut crc: u32, data: &[u8]) -> u32 {
    let (chunks, rest) = data.as_chunks::<8>();
    for c in chunks {
        let c = image_word::<W>(*c);
        let lo = c as u32 ^ crc;
        let hi = (c >> 32) as u32;
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in image_tail::<W>(rest, &mut [0; 8]) {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply folds (see the module docs), each generic over
/// the word width `W` of [`image_word`] and over a visitor of the folded
/// pieces.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    use super::{fold_key, image_tail, image_word, POLY};

    /// `[low-half key, high-half key]` for a fold of `d` bits.
    const fn keys(d: u32) -> [u64; 2] {
        [fold_key(POLY, d + 32), fold_key(POLY, d - 32)]
    }

    /// One 16 B block forward onto the next.
    const K128: [u64; 2] = keys(128);
    /// Four 16 B accumulators, 64 B forward.
    const K512: [u64; 2] = keys(512);
    /// Four 64 B accumulators, 256 B forward.
    const K2048: [u64; 2] = keys(2048);

    /// `pshufb` indices that reverse each `w`-byte word of a 16 B block.
    const fn swap_indices(w: usize) -> [u8; 16] {
        let mut idx = [0u8; 16];
        let mut i = 0;
        while i < 16 {
            idx[i] = (i / w * w + (w - 1 - i % w)) as u8;
            i += 1;
        }
        idx
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn key128([lo, hi]: [u64; 2]) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// The `pshufb` control of [`image_word`]`::<W>` for one 16 B block.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn swap128<const W: usize>() -> __m128i {
        let idx = const { swap_indices(W) };
        // SAFETY: `idx` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(idx.as_ptr().cast()) }
    }

    /// A 16 B block as its image: loaded, then its words byteswapped in
    /// the register.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn load128<const W: usize>(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        let x = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        if W == 1 {
            x
        } else {
            _mm_shuffle_epi8(x, swap128::<W>())
        }
    }

    /// `a` folded `d` bits forward (`k = key128(keys(d))`) onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(a: __m128i, k: __m128i, b: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// `crc32` over the image of fewer than a fold's worth of bytes.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn crc32_bytes<const W: usize>(crc: u32, data: &[u8]) -> u32 {
        let (words, rest) = data.as_chunks::<8>();
        let mut crc64 = u64::from(crc);
        for w in words {
            crc64 = _mm_crc32_u64(crc64, image_word::<W>(*w));
        }
        let mut crc = crc64 as u32;
        for &b in image_tail::<W>(rest, &mut [0; 8]) {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// Fold 16 B blocks into the one accumulator `x`, then finish: the
    /// register over `x`'s 16 bytes from zero (the initial register was
    /// injected into the first block), then over the last < 16 B.
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    fn fold_single<const W: usize>(mut x: __m128i, data: &[u8]) -> u32 {
        let k = key128(K128);
        let (blocks, tail) = data.as_chunks::<16>();
        for b in blocks {
            x = fold128(x, k, load128::<W>(b));
        }
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_extract_epi64(x, 1) as u64;
        let crc = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32;
        crc32_bytes::<W>(crc, tail)
    }

    /// The 128-bit fold from four accumulators holding 64 consecutive
    /// bytes: 64 B steps, then the four folded into one.
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    fn fold_lanes<const W: usize, V: FnMut(&[u8])>(
        mut x: [__m128i; 4],
        data: &[u8],
        visit: &mut V,
    ) -> u32 {
        let k = key128(K512);
        let (steps, rest) = data.as_chunks::<64>();
        for step in steps {
            let (blocks, _) = step.as_chunks::<16>();
            for (acc, b) in x.iter_mut().zip(blocks) {
                *acc = fold128(*acc, k, load128::<W>(b));
            }
            visit(step);
        }
        visit(rest);
        let k = key128(K128);
        let x = fold128(fold128(fold128(x[0], k, x[1]), k, x[2]), k, x[3]);
        fold_single::<W>(x, rest)
    }

    /// The 128-bit fold (PCLMULQDQ).
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    pub(super) fn update_128<const W: usize, V: FnMut(&[u8])>(
        crc: u32,
        data: &[u8],
        visit: &mut V,
    ) -> u32 {
        let init = _mm_cvtsi32_si128(crc as i32);
        let Some((head, rest)) = data.split_first_chunk::<64>() else {
            visit(data);
            return match data.split_first_chunk::<16>() {
                Some((head, rest)) => {
                    fold_single::<W>(_mm_xor_si128(load128::<W>(head), init), rest)
                }
                None => crc32_bytes::<W>(crc, data),
            };
        };
        visit(head);
        let (blocks, _) = head.as_chunks::<16>();
        let x = [
            _mm_xor_si128(load128::<W>(&blocks[0]), init),
            load128::<W>(&blocks[1]),
            load128::<W>(&blocks[2]),
            load128::<W>(&blocks[3]),
        ];
        fold_lanes::<W, V>(x, rest, visit)
    }

    /// A 64 B block as its image (see [`load128`]).
    #[inline]
    #[target_feature(enable = "avx512bw")]
    fn load512<const W: usize>(block: &[u8; 64]) -> __m512i {
        // SAFETY: `block` is 64 readable bytes; the load is unaligned.
        let z = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
        if W == 1 {
            z
        } else {
            _mm512_shuffle_epi8(z, _mm512_broadcast_i32x4(swap128::<W>()))
        }
    }

    /// `a` folded forward onto `b`, four 128-bit lanes at once.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold512(a: __m512i, k: __m512i, b: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(a, k, 0x00);
        let hi = _mm512_clmulepi64_epi128(a, k, 0x11);
        _mm512_ternarylogic_epi64(lo, hi, b, 0x96)
    }

    /// The 512-bit fold (VPCLMULQDQ): 256 B steps, the four accumulators
    /// folded into one, whose lanes are the 128-bit fold's four.
    #[target_feature(enable = "avx512bw,vpclmulqdq,pclmulqdq,sse4.2")]
    pub(super) fn update_512<const W: usize, V: FnMut(&[u8])>(
        crc: u32,
        data: &[u8],
        visit: &mut V,
    ) -> u32 {
        let Some((head, rest)) = data.split_first_chunk::<256>() else {
            return update_128::<W, V>(crc, data, visit);
        };
        let (blocks, _) = head.as_chunks::<64>();
        let init = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        let mut z = [
            _mm512_xor_si512(load512::<W>(&blocks[0]), init),
            load512::<W>(&blocks[1]),
            load512::<W>(&blocks[2]),
            load512::<W>(&blocks[3]),
        ];
        visit(head);
        let k = _mm512_broadcast_i32x4(key128(K2048));
        let (steps, rest) = rest.as_chunks::<256>();
        for step in steps {
            let (blocks, _) = step.as_chunks::<64>();
            for (acc, b) in z.iter_mut().zip(blocks) {
                *acc = fold512(*acc, k, load512::<W>(b));
            }
            visit(step);
        }
        let k = _mm512_broadcast_i32x4(key128(K512));
        let z = fold512(fold512(fold512(z[0], k, z[1]), k, z[2]), k, z[3]);
        let x = [
            _mm512_extracti32x4_epi32(z, 0),
            _mm512_extracti32x4_epi32(z, 1),
            _mm512_extracti32x4_epi32(z, 2),
            _mm512_extracti32x4_epi32(z, 3),
        ];
        fold_lanes::<W, V>(x, rest, visit)
    }
}

/// Whether the host runs the 128-bit fold.
#[cfg(target_arch = "x86_64")]
fn has_128() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
}

/// Whether the host runs the 512-bit fold (and its 128-bit tail).
#[cfg(target_arch = "x86_64")]
fn has_512() -> bool {
    has_128()
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
}

/// Fold `data` into the raw (uncomplemented) CRC-32C register, on the
/// widest carry-less-multiply fold the host has.
pub(crate) fn update(crc: u32, data: &[u8]) -> u32 {
    update_words::<1>(crc, data, |_| {})
}

/// Fold into the raw register the image of `data`, native words of `W`
/// bytes ([`image_word`]), on the widest fold the host has. Each word is
/// read once: `visit` gets each piece of `data` right after the fold has
/// loaded it, in order, and every piece but the last is a whole number of
/// 64 B.
pub(crate) fn update_words<const W: usize>(
    crc: u32,
    data: &[u8],
    mut visit: impl FnMut(&[u8]),
) -> u32 {
    debug_assert_eq!(data.len() % W, 0, "whole {W}-byte words");
    #[cfg(target_arch = "x86_64")]
    {
        if has_512() {
            // SAFETY: AVX-512BW, VPCLMULQDQ, PCLMULQDQ and SSE 4.2 were
            // detected at runtime.
            return unsafe { fold::update_512::<W, _>(crc, data, &mut visit) };
        }
        if has_128() {
            // SAFETY: PCLMULQDQ and SSE 4.2 were detected at runtime.
            return unsafe { fold::update_128::<W, _>(crc, data, &mut visit) };
        }
    }
    update_words_sw::<W, _>(crc, data, &mut visit)
}

/// The table path of [`update_words`]: [`STEP`]-byte pieces.
fn update_words_sw<const W: usize, V: FnMut(&[u8])>(
    mut crc: u32,
    data: &[u8],
    visit: &mut V,
) -> u32 {
    for piece in data.chunks(STEP) {
        crc = update_sw::<W>(crc, piece);
        visit(piece);
    }
    crc
}

/// CRC-32C digest of `data` (init `!0`, final complement — the RFC 3720
/// parameterization, so `crc32c(b"123456789") == 0xE306_9283`).
pub fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Streaming CRC-32C: digest non-contiguous byte ranges (the v3 frame
/// checksum covers the call-id header field *and* the payload, which are
/// separated by the checksum word itself) without concatenating them.
/// `Crc32c::new().update(a).update(b).finish() == crc32c(a ++ b)`.
#[derive(Clone, Copy)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh digest state.
    pub fn new() -> Self {
        Crc32c(!0)
    }

    /// Fold `data` into the digest.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.0 = update(self.0, data);
        self
    }

    /// Final (complemented) digest.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paths of [`update_words`].
    #[derive(Clone, Copy, Debug)]
    enum Path {
        Dispatch,
        Fold512,
        Fold128,
        Table,
    }

    /// The register `path` leaves over native `W`-byte words, and where
    /// each piece it visits starts and ends in `data`; `None` where the
    /// host lacks the path.
    fn run<const W: usize>(
        path: Path,
        crc: u32,
        data: &[u8],
    ) -> Option<(u32, Vec<(usize, usize)>)> {
        let mut pieces = Vec::new();
        let mut visit = |piece: &[u8]| {
            let at = piece.as_ptr() as usize - data.as_ptr() as usize;
            pieces.push((at, at + piece.len()));
        };
        let got = match path {
            Path::Dispatch => Some(update_words::<W>(crc, data, &mut visit)),
            Path::Table => Some(update_words_sw::<W, _>(crc, data, &mut visit)),
            #[cfg(target_arch = "x86_64")]
            Path::Fold512 if has_512() => {
                // SAFETY: the fold's instructions were detected at runtime.
                Some(unsafe { fold::update_512::<W, _>(crc, data, &mut visit) })
            }
            #[cfg(target_arch = "x86_64")]
            Path::Fold128 if has_128() => {
                // SAFETY: the fold's instructions were detected at runtime.
                Some(unsafe { fold::update_128::<W, _>(crc, data, &mut visit) })
            }
            _ => None,
        };
        got.map(|crc| (crc, pieces))
    }

    /// The 128-bit fold over bytes, or `None` where the host lacks it.
    fn update_128(crc: u32, data: &[u8]) -> Option<u32> {
        run::<1>(Path::Fold128, crc, data).map(|(crc, _)| crc)
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // iSCSI test vector: 32 zero bytes.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The multiplier derivation reproduces published PCLMULQDQ constants
    /// for the IEEE polynomial (crc32fast's `K1`..`K4`), so the same
    /// function over [`POLY`] is the derivation and not a guess.
    #[test]
    fn fold_keys_match_published_ieee_constants() {
        const IEEE: u32 = 0xEDB8_8320;
        assert_eq!(fold_key(IEEE, 4 * 128 + 32), 0x1_5444_2BD4);
        assert_eq!(fold_key(IEEE, 4 * 128 - 32), 0x1_C6E4_1596);
        assert_eq!(fold_key(IEEE, 128 + 32), 0x1_7519_97D0);
        assert_eq!(fold_key(IEEE, 128 - 32), 0x0_CCAA_009E);
    }

    /// Every length up to 1200 and each fold boundary ±1 (16, 64, 256 B
    /// and the digest's 2 KiB block), from misaligned starts and raw
    /// registers `0`, `!0` and arbitrary ones: the table, the 128-bit fold
    /// and the 512-bit fold agree wherever the host runs them, and the
    /// dispatched [`update`] agrees with the table.
    #[test]
    fn every_path_agrees_with_the_table() {
        let data: Vec<u8> = (0..8300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut lens: Vec<usize> = (0..=1200).collect();
        for edge in [16usize, 64, 256, 2048] {
            for k in 1..=4 {
                let at = edge * k;
                lens.extend([at - 1, at, at + 1]);
            }
        }
        for &len in &lens {
            for start in [0usize, 1, 3, 7, 13] {
                let bytes = &data[start..start + len];
                for reg in [0u32, !0, 0x1234_5678, 0xDEAD_BEEF] {
                    let want = update_sw::<1>(reg, bytes);
                    let at = format!("length {len}, start {start}, register {reg:#x}");
                    assert_eq!(update(reg, bytes), want, "dispatch, {at}");
                    for path in [Path::Fold512, Path::Fold128, Path::Table] {
                        if let Some((got, _)) = run::<1>(path, reg, bytes) {
                            assert_eq!(got, want, "{path:?}, {at}");
                        }
                    }
                }
            }
        }
    }

    /// The big-endian image of native `w`-byte words, built byte by byte.
    fn image(native: &[u8], w: usize) -> Vec<u8> {
        native
            .chunks(w)
            .flat_map(|word| {
                let mut word = word.to_vec();
                if cfg!(target_endian = "little") {
                    word.reverse();
                }
                word
            })
            .collect()
    }

    fn byteswapping_paths_fold_the_image<const W: usize>() {
        let data: Vec<u8> = (0..8300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let mut lens: Vec<usize> = (0..=300).map(|words| words * W).collect();
        for edge in [16usize, 64, 256, 2048] {
            for k in 1..=4 {
                let at = edge * k;
                lens.extend([at - W, at, at + W]);
            }
        }
        for &len in &lens {
            for start in [0usize, 1, 4, 13] {
                let native = &data[start..start + len];
                let want_image = image(native, W);
                for reg in [0u32, !0, 0xDEAD_BEEF] {
                    let want = update_sw::<1>(reg, &want_image);
                    let at = format!("width {W}, length {len}, start {start}, register {reg:#x}");
                    for path in [Path::Dispatch, Path::Fold512, Path::Fold128, Path::Table] {
                        let Some((got, pieces)) = run::<W>(path, reg, native) else {
                            continue;
                        };
                        assert_eq!(got, want, "{path:?}, {at}");
                        let mut end = 0;
                        for (i, &(from, to)) in pieces.iter().enumerate() {
                            let last = i + 1 == pieces.len();
                            let whole = (to - from) % 64 == 0;
                            assert!(from == end && (last || whole), "{path:?} {pieces:?}, {at}");
                            end = to;
                        }
                        assert_eq!(end, len, "{path:?} visits {pieces:?}, {at}");
                    }
                }
            }
        }
    }

    /// Every path over native 4- and 8-byte words, at lengths around each
    /// fold boundary and from misaligned starts, folds exactly the image's
    /// register, and visits the whole array in order in pieces of whole
    /// 64 B but the last. The 128-bit and table paths are called directly,
    /// so a host with the 512-bit fold covers them too.
    #[test]
    fn every_byteswapping_path_folds_the_big_endian_image() {
        byteswapping_paths_fold_the_image::<4>();
        byteswapping_paths_fold_the_image::<8>();
    }

    #[test]
    fn image_words_are_big_endian_words_read_little_endian() {
        let native = 0x0102_0304_0506_0708u64.to_ne_bytes();
        assert_eq!(image_word::<1>(native), u64::from_le_bytes(native));
        let be = u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(image_word::<8>(native), be);
        let pair = [0x0102_0304u32.to_ne_bytes(), 0x0506_0708u32.to_ne_bytes()].concat();
        assert_eq!(image_word::<4>(pair.clone().try_into().unwrap()), be);
        assert_eq!(image_tail::<4>(&pair[..4], &mut [0; 8]), [1, 2, 3, 4]);
        assert_eq!(image_tail::<1>(&pair[..4], &mut [0; 8]), &pair[..4]);
    }

    /// The 128-bit fold runs wherever PCLMULQDQ exists, which is every
    /// x86-64 CI runner: the previous test is not vacuous there.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_128_bit_fold_runs_where_pclmulqdq_exists() {
        let has = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.2");
        assert_eq!(
            update_128(!0, b"123456789"),
            has.then_some(0xE306_9283 ^ !0)
        );
    }

    #[test]
    fn software_path_matches_public_digest() {
        // On SSE4.2 hosts `crc32c` takes the hardware path; recomputing via
        // the table path must agree bit-for-bit, including on lengths that
        // exercise the 8-byte remainder handling.
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(!update_sw::<1>(!0, &data), crc32c(&data), "length {n}");
        }
    }

    #[test]
    fn streaming_digest_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..300).map(|i| (i * 53 + 11) as u8).collect();
        let whole = crc32c(&data);
        for split in [0usize, 1, 7, 8, 12, 100, 299, 300] {
            let mut h = Crc32c::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_always_changes_digest() {
        let data: Vec<u8> = (0..256).map(|i| (i * 37) as u8).collect();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
