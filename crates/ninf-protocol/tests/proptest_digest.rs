//! The one-digest invariant: the streaming digest of a value and the
//! digest of its materialised XDR image are one function. Uploads are
//! named and verified by [`Digest::of`] over the image while calls name
//! values by [`digest_value`]; were the two ever to drift, every uploaded
//! value would ship inline a second time and no call would fail.

use ninf_protocol::{digest_value, value_image, Digest, Value};
use proptest::prelude::*;

/// Every `Value` kind, arrays of 0..=2 000 elements: images from 8 bytes
/// to 16 KiB, ending on a whole 64-bit word or on half of one (4-byte
/// elements with an odd count), across the 2 KiB block boundaries.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f32>().prop_map(Value::Float),
        any::<f64>().prop_map(Value::Double),
        proptest::collection::vec(any::<i32>(), 0..=2_000).prop_map(Value::IntArray),
        proptest::collection::vec(any::<i64>(), 0..=2_000).prop_map(Value::LongArray),
        proptest::collection::vec(any::<f32>(), 0..=2_000).prop_map(Value::FloatArray),
        proptest::collection::vec(any::<f64>(), 0..=2_000).prop_map(Value::DoubleArray),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn digest_value_is_digest_of_the_value_image(v in arb_value()) {
        prop_assert_eq!(digest_value(&v), Digest::of(&value_image(&v)));
    }
}
