//! The bulk array paths against the scalar ones they replace.
//!
//! `put_*_array` byte-swaps through [`ninf_xdr::be_blocks`] and the decoders
//! through their own bulk kernels; both must produce exactly what a length
//! word plus one `put_*` / `get_*` per element produces. A round trip alone
//! cannot catch a byte-order bug made the same way on both sides; comparing
//! against the scalar path can. Lengths straddle the encoder's 256-element
//! chunk and every element width's [`ninf_xdr::BE_BLOCK_BYTES`] block.

use ninf_xdr::{XdrDecoder, XdrEncoder, BE_BLOCK_BYTES};
use proptest::prelude::*;

/// Longest array drawn: just past three 2 KiB blocks of a 4-byte type.
const MAX_LEN: usize = 3 * BE_BLOCK_BYTES / 4 + 3;

/// Array lengths: a block or chunk edge (±1) half the time, any length up
/// to [`MAX_LEN`] otherwise. The edges are one 8-byte block (also the
/// encoder's 256-element chunk), one 4-byte block, and two 4-byte blocks.
fn lengths() -> impl Strategy<Value = usize> {
    let mut edges = vec![0, 1, 2];
    for edge in [BE_BLOCK_BYTES / 8, BE_BLOCK_BYTES / 4, BE_BLOCK_BYTES / 2] {
        edges.extend([edge - 1, edge, edge + 1]);
    }
    prop_oneof![prop::sample::select(edges), 0..=MAX_LEN]
}

macro_rules! array_path_matches_elementwise {
    ($name:ident, $from_bits:expr, $to_bits:expr, $put_array:ident, $put:ident, $get_array:ident, $get:ident) => {
        proptest! {
            #[test]
            fn $name(len in lengths(), words in prop::collection::vec(any::<u64>(), MAX_LEN)) {
                let data: Vec<_> = words[..len].iter().map(|&w| $from_bits(w)).collect();

                let mut bulk = XdrEncoder::new();
                bulk.$put_array(&data);
                let wire = bulk.finish();
                let mut scalar = XdrEncoder::new();
                scalar.put_u32(len as u32);
                for &x in &data {
                    scalar.$put(x);
                }
                prop_assert_eq!(&wire[..], &scalar.finish()[..]);

                let bulk = XdrDecoder::new(&wire).$get_array().unwrap();
                let mut dec = XdrDecoder::new(&wire);
                prop_assert_eq!(dec.get_u32().unwrap() as usize, len);
                let scalar: Vec<_> = (0..len).map(|_| dec.$get().unwrap()).collect();
                prop_assert!(dec.is_empty());
                let bits = |v: &[_]| v.iter().map(|&x| $to_bits(x)).collect::<Vec<_>>();
                prop_assert_eq!(bits(&bulk), bits(&scalar));
                prop_assert_eq!(bits(&bulk), bits(&data));
            }
        }
    };
}

array_path_matches_elementwise!(
    f64_array_matches_elementwise,
    f64::from_bits,
    f64::to_bits,
    put_f64_array,
    put_f64,
    get_f64_array,
    get_f64
);
array_path_matches_elementwise!(
    f32_array_matches_elementwise,
    |w: u64| f32::from_bits(w as u32),
    f32::to_bits,
    put_f32_array,
    put_f32,
    get_f32_array,
    get_f32
);
array_path_matches_elementwise!(
    i32_array_matches_elementwise,
    |w: u64| w as i32,
    |x: i32| x,
    put_i32_array,
    put_i32,
    get_i32_array,
    get_i32
);
array_path_matches_elementwise!(
    i64_array_matches_elementwise,
    |w: u64| w as i64,
    |x: i64| x,
    put_i64_array,
    put_i64,
    get_i64_array,
    get_i64
);
