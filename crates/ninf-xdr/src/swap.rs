//! Bulk big-endian conversion kernels for the array fast paths.
//!
//! XDR arrays of 64-bit items (doubles, hypers) are a straight byte swap
//! per word on little-endian hosts and a copy on big-endian ones. The
//! scalar path below compiles to word-at-a-time `bswap`; on x86-64 an
//! AVX2 path (runtime-detected, same pattern as the CRC-32C hardware
//! path) swaps 32 bytes per `vpshufb`, which is what keeps the matrix
//! codec at memory bandwidth instead of ~9 GiB/s.

/// Bytes per block [`be_blocks`] hands out: 2 KiB, comfortably inside L1
/// and small enough to live on the stack of deeply nested encode calls.
pub const BE_BLOCK_BYTES: usize = 2048;

/// A numeric element XDR ships as one big-endian word of
/// `size_of::<Self>()` bytes (`int`, `hyper`, `float`, `double`).
pub trait BeWord: Copy + sealed::Sealed {
    /// Write `src` big-endian into the front of `dst` (which must hold
    /// `size_of_val(src)` bytes) and return how many bytes were written.
    fn put_be(src: &[Self], dst: &mut [u8]) -> usize;
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! be_word_64 {
    ($($ty:ty),*) => {$(
        impl sealed::Sealed for $ty {}
        impl BeWord for $ty {
            #[inline]
            fn put_be(src: &[Self], dst: &mut [u8]) -> usize {
                let n = std::mem::size_of_val(src);
                assert!(dst.len() >= n, "block too small for {n} bytes");
                // SAFETY: `src` is valid for n reads, `dst` for n writes (just
                // checked), n is whole 64-bit words, and a shared and an
                // exclusive borrow cannot overlap.
                unsafe { be_words64(src.as_ptr().cast(), dst.as_mut_ptr(), n) };
                n
            }
        }
    )*};
}

macro_rules! be_word_32 {
    ($($ty:ty),*) => {$(
        impl sealed::Sealed for $ty {}
        impl BeWord for $ty {
            #[inline]
            fn put_be(src: &[Self], dst: &mut [u8]) -> usize {
                let n = std::mem::size_of_val(src);
                assert!(dst.len() >= n, "block too small for {n} bytes");
                for (slot, x) in dst.chunks_exact_mut(4).zip(src) {
                    slot.copy_from_slice(&x.to_be_bytes());
                }
                n
            }
        }
    )*};
}

be_word_64!(f64, i64);
be_word_32!(f32, i32);

/// Visit the big-endian XDR image of `data` (no length word) one
/// [`BE_BLOCK_BYTES`] block at a time, in order.
///
/// This is the one place array bytes are converted for the wire: the
/// encoder appends each block to its buffer, and a frame writer folds its
/// checksum (and the digest of an argument it ships) over each block while
/// it is still in L1.
pub fn be_blocks<T: BeWord>(data: &[T], mut visit: impl FnMut(&[u8])) {
    let mut block = [0u8; BE_BLOCK_BYTES];
    for chunk in data.chunks(BE_BLOCK_BYTES / std::mem::size_of::<T>()) {
        let n = T::put_be(chunk, &mut block);
        visit(&block[..n]);
    }
}

/// Convert `len` bytes (a whole number of 64-bit words) between native
/// and big-endian order, reading from `src` and writing to `dst`.
///
/// The transform is its own inverse, so the same kernel serves encode
/// (native floats → wire) and decode (wire → native floats). Both
/// pointers may be unaligned; the regions must not overlap.
///
/// # Safety
///
/// `src` must be valid for `len` bytes of reads, `dst` for `len` bytes
/// of writes, `len` must be a multiple of 8, and the regions must not
/// overlap. `dst` may be uninitialized memory (e.g. a `Vec`'s spare
/// capacity); every byte of it is written.
pub(crate) unsafe fn be_words64(src: *const u8, dst: *mut u8, len: usize) {
    debug_assert_eq!(len % 8, 0, "be_words64 operates on whole 64-bit words");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected at runtime; pointer contract is
            // the caller's.
            unsafe { be_words64_avx2(src, dst, len) };
            return;
        }
    }
    // SAFETY: pointer contract is the caller's.
    unsafe { be_words64_scalar(src, dst, len) };
}

/// Portable word-at-a-time kernel: unaligned 64-bit load, `to_be`
/// (a `bswap` on little-endian hosts, a no-op on big-endian ones),
/// unaligned store.
unsafe fn be_words64_scalar(src: *const u8, dst: *mut u8, len: usize) {
    for off in (0..len).step_by(8) {
        // SAFETY: off + 8 <= len and both regions are valid for len bytes.
        unsafe {
            let v = src.add(off).cast::<u64>().read_unaligned();
            dst.add(off).cast::<u64>().write_unaligned(v.to_be());
        }
    }
}

/// AVX2 kernel: one `vpshufb` reverses the bytes of four 64-bit words
/// per 32-byte vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn be_words64_avx2(src: *const u8, dst: *mut u8, len: usize) {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_storeu_si256,
    };
    // `vpshufb` permutes within each 128-bit lane, so the mask reverses
    // bytes 0..8 and 8..16 of each lane independently — exactly two
    // u64 byte swaps per lane.
    let mask = _mm256_setr_epi8(
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, //
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
    );
    let mut off = 0;
    while off + 32 <= len {
        // SAFETY: off + 32 <= len; loads/stores are the unaligned variants.
        unsafe {
            let v = _mm256_loadu_si256(src.add(off).cast::<__m256i>());
            _mm256_storeu_si256(dst.add(off).cast::<__m256i>(), _mm256_shuffle_epi8(v, mask));
        }
        off += 32;
    }
    while off < len {
        // SAFETY: off + 8 <= len (len is a multiple of 8).
        unsafe {
            let v = src.add(off).cast::<u64>().read_unaligned();
            dst.add(off).cast::<u64>().write_unaligned(v.to_be());
        }
        off += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swap_vec(src: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; src.len()];
        // SAFETY: equal-length non-overlapping buffers, len checked by caller.
        unsafe { be_words64(src.as_ptr(), out.as_mut_ptr(), src.len()) };
        out
    }

    #[test]
    fn swaps_each_word_independently() {
        let src: Vec<u8> = (0u8..48).collect();
        let out = swap_vec(&src);
        for (w_in, w_out) in src.chunks_exact(8).zip(out.chunks_exact(8)) {
            let expect: Vec<u8> = if cfg!(target_endian = "little") {
                w_in.iter().rev().copied().collect()
            } else {
                w_in.to_vec()
            };
            assert_eq!(w_out, expect.as_slice());
        }
    }

    #[test]
    fn involutive() {
        let src: Vec<u8> = (0..256).map(|i| (i * 37 % 251) as u8).collect();
        assert_eq!(swap_vec(&swap_vec(&src)), src);
    }

    #[test]
    fn scalar_and_dispatch_agree_on_all_tail_lengths() {
        // Exercise every vector/tail split the AVX2 path can see.
        for words in 0..16usize {
            let src: Vec<u8> = (0..words * 8).map(|i| (i * 131 % 255) as u8).collect();
            let mut scalar = vec![0u8; src.len()];
            // SAFETY: equal-length non-overlapping buffers.
            unsafe { be_words64_scalar(src.as_ptr(), scalar.as_mut_ptr(), src.len()) };
            assert_eq!(swap_vec(&src), scalar, "words = {words}");
        }
    }

    #[test]
    fn blocks_concatenate_to_the_big_endian_image() {
        // Lengths around the block boundary, for both word widths.
        for len in [0usize, 1, 255, 256, 257, 511, 512, 513, 1000] {
            let wide: Vec<f64> = (0..len).map(|i| i as f64 * -1.25).collect();
            let mut got = Vec::new();
            be_blocks(&wide, |b| {
                assert!(b.len() <= BE_BLOCK_BYTES);
                got.extend_from_slice(b);
            });
            let want: Vec<u8> = wide.iter().flat_map(|x| x.to_be_bytes()).collect();
            assert_eq!(got, want, "f64 x {len}");

            let narrow: Vec<i32> = (0..len as i32).map(|i| i * 7 - 300).collect();
            let mut got = Vec::new();
            be_blocks(&narrow, |b| got.extend_from_slice(b));
            let want: Vec<u8> = narrow.iter().flat_map(|x| x.to_be_bytes()).collect();
            assert_eq!(got, want, "i32 x {len}");
        }
    }

    #[test]
    fn matches_to_be_bytes() {
        let vals = [1.5f64, -2.25, f64::MIN_POSITIVE, 1e300];
        let raw: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_ne_bytes())
            .collect();
        let out = swap_vec(&raw);
        let expect: Vec<u8> = vals.iter().flat_map(|v| v.to_be_bytes()).collect();
        assert_eq!(out, expect);
    }
}
