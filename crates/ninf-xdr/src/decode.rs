//! XDR decoding: strict big-endian reader over a borrowed byte slice.

use crate::error::{XdrError, XdrResult};
use crate::pad_len;
use crate::swap::BeWord;

/// Strict XDR decoder over a borrowed buffer.
///
/// The decoder never copies payload bytes until a typed `get_*` call asks for
/// them, and validates alignment, padding, and length prefixes as it goes.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Create a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn skip_padding(&mut self, data_len: usize) -> XdrResult<()> {
        let pad = self.take(pad_len(data_len))?;
        if pad.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(())
    }

    /// Read an unsigned 32-bit integer.
    #[inline]
    pub fn get_u32(&mut self) -> XdrResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a signed 32-bit integer.
    #[inline]
    pub fn get_i32(&mut self) -> XdrResult<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read an unsigned 64-bit integer.
    #[inline]
    pub fn get_u64(&mut self) -> XdrResult<u64> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Read a signed 64-bit integer.
    #[inline]
    pub fn get_i64(&mut self) -> XdrResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a single-precision float.
    #[inline]
    pub fn get_f32(&mut self) -> XdrResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a double-precision float.
    #[inline]
    pub fn get_f64(&mut self) -> XdrResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a boolean (must be word 0 or 1).
    #[inline]
    pub fn get_bool(&mut self) -> XdrResult<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    /// Read `len` bytes of fixed-length opaque data, consuming padding.
    pub fn get_opaque_fixed(&mut self, len: usize) -> XdrResult<&'a [u8]> {
        let data = self.take(len)?;
        self.skip_padding(len)?;
        Ok(data)
    }

    /// Read variable-length opaque data (length word, data, padding).
    pub fn get_opaque(&mut self) -> XdrResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(XdrError::LengthOverflow {
                requested: len,
                remaining: self.remaining(),
            });
        }
        self.get_opaque_fixed(len)
    }

    /// Read a counted UTF-8 string.
    pub fn get_string(&mut self) -> XdrResult<String> {
        let bytes = self.get_opaque()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| XdrError::InvalidUtf8)
    }

    /// Read a variable-length array of doubles.
    pub fn get_f64_array(&mut self) -> XdrResult<Vec<f64>> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(XdrError::LengthOverflow {
                requested: n,
                remaining: self.remaining(),
            });
        }
        self.get_f64_slice(n)
    }

    /// Read `n` doubles back-to-back (fixed array, no length word).
    ///
    /// The byte swap runs through the bulk kernel straight from the wire
    /// slice into the result `Vec`'s spare capacity
    /// ([`BeWord::extend_from_be`]), so elements land in their final buffer
    /// with no per-element bounds checks and no intermediate copy.
    pub fn get_f64_slice(&mut self, n: usize) -> XdrResult<Vec<f64>> {
        let bytes = self.take(n.checked_mul(8).ok_or(XdrError::LengthOverflow {
            requested: n,
            remaining: self.remaining(),
        })?)?;
        Ok(from_be(bytes))
    }

    /// Read a variable-length array of 32-bit signed integers.
    pub fn get_i32_array(&mut self) -> XdrResult<Vec<i32>> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(4)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(XdrError::LengthOverflow {
                requested: n,
                remaining: self.remaining(),
            });
        }
        Ok(from_be(self.take(n * 4)?))
    }

    /// Read a variable-length array of 64-bit signed integers.
    pub fn get_i64_array(&mut self) -> XdrResult<Vec<i64>> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(XdrError::LengthOverflow {
                requested: n,
                remaining: self.remaining(),
            });
        }
        Ok(from_be(self.take(n * 8)?))
    }

    /// Read a variable-length array of single-precision floats.
    pub fn get_f32_array(&mut self) -> XdrResult<Vec<f32>> {
        let n = self.get_u32()? as usize;
        if n.checked_mul(4)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(XdrError::LengthOverflow {
                requested: n,
                remaining: self.remaining(),
            });
        }
        Ok(from_be(self.take(n * 4)?))
    }
}

/// The elements of a whole array body, in an exactly sized `Vec`.
fn from_be<T: BeWord>(body: &[u8]) -> Vec<T> {
    let mut out = Vec::with_capacity(body.len() / std::mem::size_of::<T>());
    T::extend_from_be(&mut out, body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XdrEncoder;

    #[test]
    fn roundtrip_all_primitives() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(7);
        enc.put_i32(-7);
        enc.put_u64(1 << 40);
        enc.put_i64(-(1 << 40));
        enc.put_f32(2.5);
        enc.put_f64(-1e300);
        enc.put_bool(true);
        let wire = enc.finish();

        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_u32().unwrap(), 7);
        assert_eq!(dec.get_i32().unwrap(), -7);
        assert_eq!(dec.get_u64().unwrap(), 1 << 40);
        assert_eq!(dec.get_i64().unwrap(), -(1 << 40));
        assert_eq!(dec.get_f32().unwrap(), 2.5);
        assert_eq!(dec.get_f64().unwrap(), -1e300);
        assert!(dec.get_bool().unwrap());
        assert!(dec.is_empty());
    }

    #[test]
    fn eof_detected() {
        let wire = [0u8, 0, 0];
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_u32(),
            Err(XdrError::UnexpectedEof {
                needed: 4,
                remaining: 3
            })
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(2);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_bool(), Err(XdrError::InvalidBool(2)));
    }

    #[test]
    fn nonzero_padding_rejected() {
        // opaque of length 1 with a non-zero pad byte
        let wire = [0u8, 0, 0, 1, 0xaa, 1, 0, 0];
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_opaque(), Err(XdrError::NonZeroPadding));
    }

    #[test]
    fn hostile_opaque_length_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(1_000_000);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_opaque(),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn hostile_f64_array_length_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_f64_array(),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0xff, 0xfe]);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_string(), Err(XdrError::InvalidUtf8));
    }

    #[test]
    fn nan_payload_preserved() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut enc = XdrEncoder::new();
        enc.put_f64(nan);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_f64().unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn fixed_opaque_roundtrip() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque_fixed(&[1, 2, 3, 4, 5]);
        let wire = enc.finish();
        assert_eq!(wire.len(), 8);
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_opaque_fixed(5).unwrap(), &[1, 2, 3, 4, 5]);
        assert!(dec.is_empty());
    }

    #[test]
    fn large_array_roundtrips_across_chunk_boundaries() {
        // Sizes straddling the encoder's byteswap chunk (256 elements).
        for n in [0usize, 1, 255, 256, 257, 1024, 1000] {
            let data: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 7.0).collect();
            let mut enc = XdrEncoder::new();
            enc.put_f64_array(&data);
            let wire = enc.finish();
            let mut dec = XdrDecoder::new(&wire);
            assert_eq!(dec.get_f64_array().unwrap(), data);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn i64_array_roundtrips_and_rejects_hostile_length() {
        let data: Vec<i64> = (0..300).map(|i| (i as i64 - 150) << 32).collect();
        let mut enc = XdrEncoder::new();
        enc.put_i64_array(&data);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_i64_array().unwrap(), data);
        assert!(dec.is_empty());

        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_i64_array(),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(1);
        enc.put_u64(2);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.position(), 0);
        dec.get_u32().unwrap();
        assert_eq!(dec.position(), 4);
        dec.get_u64().unwrap();
        assert_eq!(dec.position(), 12);
    }
}
