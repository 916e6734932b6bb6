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
//! * fixed and variable-length arrays of 32/64-bit integers and floats
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
    fn hostile_vec_length_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX); // claims 4 billion elements
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_i32_array(),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn vec_length_one_past_remaining_rejected() {
        // A count one element past what the payload holds is a
        // LengthOverflow before any element is read, not a late decode
        // failure.
        let mut enc = XdrEncoder::new();
        enc.put_u32(2); // claims two elements...
        enc.put_u32(9); // ...but only one fits
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert!(matches!(
            dec.get_i32_array(),
            Err(XdrError::LengthOverflow {
                requested: 2,
                remaining: 4
            })
        ));
    }

    #[test]
    fn vec_length_exactly_filling_remaining_accepted() {
        // The guard must not reject a count that exactly fills the
        // remaining bytes.
        let mut enc = XdrEncoder::new();
        enc.put_u32(3);
        for x in [1u32, 2, 3] {
            enc.put_u32(x);
        }
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        assert_eq!(dec.get_i32_array().unwrap(), vec![1, 2, 3]);
        assert!(dec.is_empty());
    }
}
