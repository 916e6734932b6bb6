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
//!   accumulators, 256 B per step) when `avx512f` and `vpclmulqdq` are
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

/// Reflected CRC-32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

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

/// Slice-by-8 software CRC: eight table lookups per 8-byte chunk instead of
/// one lookup per byte. Works on the raw (uncomplemented) register.
pub(crate) fn update_sw(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply folds (see the module docs).
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    use super::{fold_key, POLY};

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

    #[inline]
    #[target_feature(enable = "sse2")]
    fn key128([lo, hi]: [u64; 2]) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load128(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `a` folded `d` bits forward (`k = key128(keys(d))`) onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(a: __m128i, k: __m128i, b: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// `crc32` over fewer than a fold's worth of bytes.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn crc32_bytes(crc: u32, data: &[u8]) -> u32 {
        let (words, rest) = data.as_chunks::<8>();
        let mut crc64 = u64::from(crc);
        for w in words {
            crc64 = _mm_crc32_u64(crc64, u64::from_le_bytes(*w));
        }
        let mut crc = crc64 as u32;
        for &b in rest {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// Fold 16 B blocks into the one accumulator `x`, then finish: the
    /// register over `x`'s 16 bytes from zero (the initial register was
    /// injected into the first block), then over the last < 16 B.
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    fn fold_single(mut x: __m128i, data: &[u8]) -> u32 {
        let k = key128(K128);
        let (blocks, tail) = data.as_chunks::<16>();
        for b in blocks {
            x = fold128(x, k, load128(b));
        }
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_extract_epi64(x, 1) as u64;
        let crc = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32;
        crc32_bytes(crc, tail)
    }

    /// The 128-bit fold from four accumulators holding 64 consecutive
    /// bytes: 64 B steps, then the four folded into one.
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    fn fold_lanes(mut x: [__m128i; 4], data: &[u8]) -> u32 {
        let k = key128(K512);
        let (steps, rest) = data.as_chunks::<64>();
        for step in steps {
            let (blocks, _) = step.as_chunks::<16>();
            for (acc, b) in x.iter_mut().zip(blocks) {
                *acc = fold128(*acc, k, load128(b));
            }
        }
        let k = key128(K128);
        let x = fold128(fold128(fold128(x[0], k, x[1]), k, x[2]), k, x[3]);
        fold_single(x, rest)
    }

    /// The 128-bit fold (PCLMULQDQ).
    #[target_feature(enable = "pclmulqdq,sse4.2")]
    pub(super) fn update_128(crc: u32, data: &[u8]) -> u32 {
        let init = _mm_cvtsi32_si128(crc as i32);
        match data.split_first_chunk::<64>() {
            Some((head, rest)) => {
                let (head, _) = head.as_chunks::<16>();
                let x = [
                    _mm_xor_si128(load128(&head[0]), init),
                    load128(&head[1]),
                    load128(&head[2]),
                    load128(&head[3]),
                ];
                fold_lanes(x, rest)
            }
            None => match data.split_first_chunk::<16>() {
                Some((head, rest)) => fold_single(_mm_xor_si128(load128(head), init), rest),
                None => crc32_bytes(crc, data),
            },
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512(block: &[u8; 64]) -> __m512i {
        // SAFETY: `block` is 64 readable bytes; the load is unaligned.
        unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
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
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
    pub(super) fn update_512(crc: u32, data: &[u8]) -> u32 {
        let Some((head, rest)) = data.split_first_chunk::<256>() else {
            return update_128(crc, data);
        };
        let (head, _) = head.as_chunks::<64>();
        let init = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        let mut z = [
            _mm512_xor_si512(load512(&head[0]), init),
            load512(&head[1]),
            load512(&head[2]),
            load512(&head[3]),
        ];
        let k = _mm512_broadcast_i32x4(key128(K2048));
        let (steps, rest) = rest.as_chunks::<256>();
        for step in steps {
            let (blocks, _) = step.as_chunks::<64>();
            for (acc, b) in z.iter_mut().zip(blocks) {
                *acc = fold512(*acc, k, load512(b));
            }
        }
        let k = _mm512_broadcast_i32x4(key128(K512));
        let z = fold512(fold512(fold512(z[0], k, z[1]), k, z[2]), k, z[3]);
        let x = [
            _mm512_extracti32x4_epi32(z, 0),
            _mm512_extracti32x4_epi32(z, 1),
            _mm512_extracti32x4_epi32(z, 2),
            _mm512_extracti32x4_epi32(z, 3),
        ];
        fold_lanes(x, rest)
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
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
}

/// Fold `data` into the raw (uncomplemented) CRC-32C register, on the
/// widest carry-less-multiply fold the host has.
pub(crate) fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if has_512() {
            // SAFETY: AVX-512F, VPCLMULQDQ, PCLMULQDQ and SSE 4.2 were
            // detected at runtime.
            return unsafe { fold::update_512(crc, data) };
        }
        if has_128() {
            // SAFETY: PCLMULQDQ and SSE 4.2 were detected at runtime.
            return unsafe { fold::update_128(crc, data) };
        }
    }
    update_sw(crc, data)
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

    /// The 128-bit fold, or `None` where the host lacks it.
    fn update_128(crc: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        {
            if has_128() {
                // SAFETY: the fold's instructions were detected at runtime.
                return Some(unsafe { fold::update_128(crc, data) });
            }
        }
        let _ = (crc, data);
        None
    }

    /// The 512-bit fold, or `None` where the host lacks it.
    fn update_512(crc: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        {
            if has_512() {
                // SAFETY: the fold's instructions were detected at runtime.
                return Some(unsafe { fold::update_512(crc, data) });
            }
        }
        let _ = (crc, data);
        None
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
                    let want = update_sw(reg, bytes);
                    let at = format!("length {len}, start {start}, register {reg:#x}");
                    assert_eq!(update(reg, bytes), want, "dispatch, {at}");
                    if let Some(got) = update_128(reg, bytes) {
                        assert_eq!(got, want, "128-bit fold, {at}");
                    }
                    if let Some(got) = update_512(reg, bytes) {
                        assert_eq!(got, want, "512-bit fold, {at}");
                    }
                }
            }
        }
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
            assert_eq!(!update_sw(!0, &data), crc32c(&data), "length {n}");
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
