//! XDR encoding: an append-only big-endian writer with 4-byte alignment,
//! writing through an [`XdrSink`].

use bytes::{Bytes, BytesMut};

use crate::pad_len;
use crate::swap::{be_blocks, BeWord};

/// Where an [`XdrEncoder`] puts its bytes.
///
/// Every write is a [`XdrSink::put_slice`] except array bodies, which come
/// through [`XdrSink::put_words`]: a sink that checksums what it writes
/// folds each big-endian block in while the block is still in L1, and one
/// that only measures adds the length without converting anything.
pub trait XdrSink {
    /// Append `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Append the big-endian image of `data` (no length word). The default
    /// converts one [`crate::BE_BLOCK_BYTES`] block at a time
    /// ([`be_blocks`]) and appends each.
    fn put_words<T: BeWord>(&mut self, data: &[T]) {
        be_blocks(data, |block| self.put_slice(block));
    }
}

impl XdrSink for BytesMut {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_words<T: BeWord>(&mut self, data: &[T]) {
        self.reserve(std::mem::size_of_val(data));
        be_blocks(data, |block| self.extend_from_slice(block));
    }
}

impl XdrSink for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_words<T: BeWord>(&mut self, data: &[T]) {
        self.reserve(std::mem::size_of_val(data));
        be_blocks(data, |block| self.extend_from_slice(block));
    }
}

/// A sink that keeps only the byte count: what an encode would write,
/// without writing it (array bodies cost nothing to measure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl XdrSink for ByteCount {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_words<T: BeWord>(&mut self, data: &[T]) {
        self.0 += std::mem::size_of_val(data);
    }
}

/// Append-only XDR encoder over a sink (a growable buffer by default).
///
/// All `put_*` methods keep the stream 4-byte aligned; [`XdrEncoder::finish`]
/// returns the completed wire image of a buffer-backed encoder, and
/// [`XdrEncoder::into_sink`] hands any other sink back.
#[derive(Debug, Default)]
pub struct XdrEncoder<S = BytesMut> {
    sink: S,
}

impl XdrEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::on(BytesMut::new())
    }

    /// Create an encoder with `cap` bytes preallocated.
    ///
    /// Ninf calls ship whole matrices, so the caller usually knows the final
    /// size from the IDL layout and can avoid reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Self::on(BytesMut::with_capacity(cap))
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.sink.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.sink.is_empty()
    }

    /// Consume the encoder and return the wire bytes.
    pub fn finish(self) -> Bytes {
        debug_assert_eq!(self.sink.len() % 4, 0, "XDR stream must be 4-byte aligned");
        self.sink.freeze()
    }
}

impl<S: XdrSink> XdrEncoder<S> {
    /// An encoder writing into `sink`.
    pub fn on(sink: S) -> Self {
        Self { sink }
    }

    /// The sink, for a caller that drives it between writes.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the encoder and return its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Write an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write a signed 32-bit integer.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write an unsigned 64-bit ("unsigned hyper") integer.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write a signed 64-bit ("hyper") integer.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write an IEEE-754 single-precision float.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write an IEEE-754 double-precision float.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.sink.put_slice(&v.to_be_bytes());
    }

    /// Write a boolean as a 32-bit 0/1 word.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Write fixed-length opaque data (no length prefix), zero-padded to a
    /// 4-byte boundary.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.sink.put_slice(data);
        self.sink.put_slice(&[0u8; 3][..pad_len(data.len())]);
    }

    /// Write variable-length opaque data: length word, data, zero padding.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Write a counted string (XDR `string<>`).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Write a variable-length array of doubles: length word then elements.
    ///
    /// This is the hot path for Ninf matrix arguments; matrices are shipped
    /// column-major as one flat array.
    pub fn put_f64_array(&mut self, data: &[f64]) {
        self.put_u32(data.len() as u32);
        self.put_f64_slice(data);
    }

    /// Write doubles back-to-back without a length prefix (fixed array).
    ///
    /// Big-endian conversion runs through the bulk byte-swap kernel over a
    /// stack-resident block ([`be_blocks`]) and reaches the sink one block
    /// at a time ([`XdrSink::put_words`]), instead of one 8-byte append
    /// per element.
    pub fn put_f64_slice(&mut self, data: &[f64]) {
        self.sink.put_words(data);
    }

    /// Write a variable-length array of 32-bit signed integers.
    pub fn put_i32_array(&mut self, data: &[i32]) {
        self.put_u32(data.len() as u32);
        self.sink.put_words(data);
    }

    /// Write a variable-length array of 64-bit signed integers.
    pub fn put_i64_array(&mut self, data: &[i64]) {
        self.put_u32(data.len() as u32);
        self.sink.put_words(data);
    }

    /// Write a variable-length array of single-precision floats.
    pub fn put_f32_array(&mut self, data: &[f32]) {
        self.put_u32(data.len() as u32);
        self.sink.put_words(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(0x0102_0304);
        enc.put_i32(-1);
        let wire = enc.finish();
        assert_eq!(&wire[..4], &[1, 2, 3, 4]);
        assert_eq!(&wire[4..8], &[0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn hyper_is_eight_bytes() {
        let mut enc = XdrEncoder::new();
        enc.put_u64(0x0102_0304_0506_0708);
        let wire = enc.finish();
        assert_eq!(&wire[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn opaque_padding_is_zero_and_aligned() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0xaa, 0xbb, 0xcc]);
        let wire = enc.finish();
        // 4 length + 3 data + 1 pad
        assert_eq!(wire.len(), 8);
        assert_eq!(&wire[..4], &[0, 0, 0, 3]);
        assert_eq!(&wire[4..7], &[0xaa, 0xbb, 0xcc]);
        assert_eq!(wire[7], 0);
    }

    #[test]
    fn string_encoding_matches_opaque() {
        let mut a = XdrEncoder::new();
        a.put_string("hi");
        let mut b = XdrEncoder::new();
        b.put_opaque(b"hi");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn f64_array_layout() {
        let mut enc = XdrEncoder::new();
        enc.put_f64_array(&[1.0]);
        let wire = enc.finish();
        assert_eq!(wire.len(), 12);
        assert_eq!(&wire[..4], &[0, 0, 0, 1]);
        assert_eq!(&wire[4..12], 1.0f64.to_be_bytes());
    }

    #[test]
    fn bool_is_word() {
        let mut enc = XdrEncoder::new();
        enc.put_bool(true);
        enc.put_bool(false);
        let wire = enc.finish();
        assert_eq!(&wire[..], &[0, 0, 0, 1, 0, 0, 0, 0]);
    }

    fn write<S: XdrSink>(enc: &mut XdrEncoder<S>) {
        enc.put_string("dgesl");
        enc.put_f64_array(&[0.5; 300]);
        enc.put_i32_array(&[7; 5]);
        enc.put_opaque(&[1, 2, 3]);
    }

    #[test]
    fn every_sink_sees_the_same_stream() {
        let mut reference = XdrEncoder::new();
        write(&mut reference);
        let reference = reference.finish();
        let mut vec = XdrEncoder::on(Vec::new());
        write(&mut vec);
        assert_eq!(&vec.into_sink()[..], &reference[..]);
        let mut count = XdrEncoder::on(ByteCount::default());
        write(&mut count);
        assert_eq!(count.into_sink().0, reference.len());
    }

    #[test]
    fn with_capacity_does_not_change_output() {
        let mut a = XdrEncoder::with_capacity(1024);
        a.put_string("dgefa");
        a.put_f64_array(&[3.5; 7]);
        let mut b = XdrEncoder::new();
        b.put_string("dgefa");
        b.put_f64_array(&[3.5; 7]);
        assert_eq!(a.finish(), b.finish());
    }
}
