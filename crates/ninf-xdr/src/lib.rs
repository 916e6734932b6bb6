//! Sun XDR (External Data Representation, RFC 1014) codec.
//!
//! Ninf RPC ships all arguments and results as XDR on TCP/IP ("The underlying
//! transfer protocol is Sun XDR on TCP/IP" — Takefusa et al., SC'97, §2.1).
//! This crate implements the subset of XDR the Ninf protocol needs:
//!
//! * 32-bit signed/unsigned integers, booleans, enums (big-endian)
//! * 64-bit hyper integers
//! * IEEE-754 single and double precision floats
//! * fixed and variable-length opaque data (padded to 4-byte boundaries)
//! * counted strings (ASCII/UTF-8, padded)
//! * fixed and variable-length arrays of any encodable item
//!
//! Everything on the wire is a multiple of four bytes; decoding is strict and
//! rejects non-zero padding, short buffers, and out-of-range discriminants.
//!
//! # Example
//!
//! ```
//! use ninf_xdr::{XdrEncoder, XdrDecoder};
//!
//! let mut enc = XdrEncoder::new();
//! enc.put_u32(42);
//! enc.put_string("dmmul");
//! enc.put_f64_array(&[1.0, 2.0, 3.0]);
//! let wire = enc.finish();
//! assert_eq!(wire.len() % 4, 0);
//!
//! let mut dec = XdrDecoder::new(&wire);
//! assert_eq!(dec.get_u32().unwrap(), 42);
//! assert_eq!(dec.get_string().unwrap(), "dmmul");
//! assert_eq!(dec.get_f64_array().unwrap(), vec![1.0, 2.0, 3.0]);
//! assert!(dec.is_empty());
//! ```

mod decode;
mod encode;
mod error;
mod swap;

pub use bytes::Bytes;
pub use decode::XdrDecoder;
pub use encode::{ByteCount, XdrEncoder, XdrSink};
pub use error::{XdrError, XdrResult};
pub use swap::{be_blocks, BeWord, BE_BLOCK_BYTES};

/// Number of padding bytes needed to round `len` up to a 4-byte boundary.
#[inline]
pub fn pad_len(len: usize) -> usize {
    (4 - (len % 4)) % 4
}

/// Total on-wire size of a variable-length opaque/string of `len` bytes
/// (length word + data + padding).
#[inline]
pub fn opaque_wire_len(len: usize) -> usize {
    4 + len + pad_len(len)
}

/// A type that can be encoded to and decoded from XDR.
///
/// Implemented for the primitive types the Ninf protocol uses; protocol
/// messages compose these.
pub trait Xdr: Sized {
    /// Append `self` to the encoder.
    fn encode(&self, enc: &mut XdrEncoder);
    /// Read a value of this type from the decoder.
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self>;
}

macro_rules! impl_xdr_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Xdr for $ty {
            #[inline]
            fn encode(&self, enc: &mut XdrEncoder) {
                enc.$put(*self);
            }
            #[inline]
            fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
                dec.$get()
            }
        }
    };
}

impl_xdr_prim!(u32, put_u32, get_u32);
impl_xdr_prim!(i32, put_i32, get_i32);
impl_xdr_prim!(u64, put_u64, get_u64);
impl_xdr_prim!(i64, put_i64, get_i64);
impl_xdr_prim!(f32, put_f32, get_f32);
impl_xdr_prim!(f64, put_f64, get_f64);
impl_xdr_prim!(bool, put_bool, get_bool);

impl Xdr for String {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        dec.get_string()
    }
}

impl<T: Xdr> Xdr for Vec<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let n = dec.get_u32()? as usize;
        // Guard against hostile lengths: each element occupies at least 4
        // wire bytes, so more than remaining/4 elements cannot fit. (The
        // bound was previously off by one, admitting a single phantom
        // element whose decode then over-allocated before erroring.)
        if n > dec.remaining() / 4 {
            return Err(XdrError::LengthOverflow {
                requested: n,
                remaining: dec.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Xdr> Xdr for Option<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
            None => enc.put_bool(false),
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_len_cycles_mod_4() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(1), 3);
        assert_eq!(pad_len(2), 2);
        assert_eq!(pad_len(3), 1);
        assert_eq!(pad_len(4), 0);
        assert_eq!(pad_len(5), 3);
    }

    #[test]
    fn opaque_wire_len_includes_header_and_padding() {
        assert_eq!(opaque_wire_len(0), 4);
        assert_eq!(opaque_wire_len(1), 8);
        assert_eq!(opaque_wire_len(4), 8);
        assert_eq!(opaque_wire_len(5), 12);
    }

    #[test]
    fn trait_roundtrip_vec_of_f64() {
        let v: Vec<f64> = vec![1.5, -2.25, 0.0];
        let mut enc = XdrEncoder::new();
        v.encode(&mut enc);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        let back = Vec::<f64>::decode(&mut dec).unwrap();
        assert_eq!(back, v);
        assert!(dec.is_empty());
    }

    #[test]
    fn trait_roundtrip_option() {
        for v in [Some(7u32), None] {
            let mut enc = XdrEncoder::new();
            v.encode(&mut enc);
            let wire = enc.finish();
            let mut dec = XdrDecoder::new(&wire);
            assert_eq!(Option::<u32>::decode(&mut dec).unwrap(), v);
        }
    }

    #[test]
    fn hostile_vec_length_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX); // claims 4 billion elements
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            Vec::<u32>::decode(&mut dec),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn vec_length_one_past_remaining_rejected() {
        // Regression: the guard used to be `n > remaining/4 + 1`, which let
        // a count of exactly remaining/4 + 1 through — one phantom element
        // past what the payload can hold. It must be a LengthOverflow, not
        // a late decode failure.
        let mut enc = XdrEncoder::new();
        enc.put_u32(2); // claims two elements...
        enc.put_u32(9); // ...but only one fits
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            Vec::<u32>::decode(&mut dec),
            Err(XdrError::LengthOverflow {
                requested: 2,
                remaining: 4
            })
        ));
    }

    #[test]
    fn vec_length_exactly_filling_remaining_accepted() {
        // The tightened guard must not reject a count that exactly fills
        // the remaining bytes.
        let mut enc = XdrEncoder::new();
        enc.put_u32(3);
        for x in [1u32, 2, 3] {
            enc.put_u32(x);
        }
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(Vec::<u32>::decode(&mut dec).unwrap(), vec![1, 2, 3]);
        assert!(dec.is_empty());
    }
}
