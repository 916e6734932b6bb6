//! CRC-32C (Castagnoli) over frame payloads.
//!
//! The v2 frame header carries a CRC of the payload so that corruption on
//! the wire is rejected *before* any XDR decode runs. Castagnoli is chosen
//! over CRC-32/ISO because x86_64 carries it in hardware (`crc32` via
//! SSE 4.2), which keeps the integrity check off the critical path for
//! multi-megabyte matrix frames. When the instruction is unavailable a
//! slice-by-8 table fallback runs; both paths produce identical digests.

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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut crc64 = u64::from(crc);
    for c in &mut chunks {
        let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        crc64 = _mm_crc32_u64(crc64, word);
    }
    let mut crc = crc64 as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Fold `data` into the raw (uncomplemented) CRC-32C register, on the
/// `crc32` instruction when the host has it.
pub(crate) fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the `crc32` instruction was detected at runtime.
            return unsafe { update_hw(crc, data) };
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
