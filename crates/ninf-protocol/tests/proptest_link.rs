//! Property tests for the link-spec grammar: every [`LinkShape`] whose
//! event bands fit prints a canonical spec that parses back to the
//! identical shape, over all nine terms; over-full bands and noise are
//! typed errors, never a panic.

use ninf_protocol::LinkShape;
use proptest::prelude::*;

/// Four event bands that sum to at most 1_000_000 ppm: cut points on the
/// unit interval, scaled down so a remainder is always forwarded.
fn arb_bands() -> impl Strategy<Value = [u32; 4]> {
    (
        0u32..=250_000,
        0u32..=250_000,
        0u32..=250_000,
        0u32..=250_000,
    )
        .prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn arb_shape() -> impl Strategy<Value = LinkShape> {
    (
        any::<u64>(),
        0u64..=10_000_000_000,
        any::<u32>(),
        any::<u64>(),
        0u64..=10_000_000_000,
        arb_bands(),
    )
        .prop_map(
            |(bytes_per_sec, delay_us, congestion_ppm, seed, stall_us, bands)| LinkShape {
                bytes_per_sec,
                delay_us,
                loss_ppm: bands[0],
                congestion_ppm,
                seed,
                stall_ppm: bands[1],
                stall_us,
                truncate_ppm: bands[2],
                garble_ppm: bands[3],
            },
        )
}

proptest! {
    #[test]
    fn display_parses_back_to_the_same_shape(shape in arb_shape()) {
        prop_assert_eq!(LinkShape::parse(&shape.to_string()), Ok(shape));
    }

    /// Pushing any one band past what the others leave over is refused
    /// with the sum in the message.
    #[test]
    fn overfull_bands_are_refused(shape in arb_shape(), which in 0usize..4) {
        let mut over = shape;
        let band = [
            &mut over.loss_ppm,
            &mut over.stall_ppm,
            &mut over.truncate_ppm,
            &mut over.garble_ppm,
        ];
        *band[which] += 1_000_001 - (shape.loss_ppm + shape.stall_ppm
            + shape.truncate_ppm + shape.garble_ppm);
        let err = LinkShape::parse(&over.to_string()).unwrap_err();
        prop_assert!(err.contains("1000001ppm"), "{}", err);
    }

    /// Arbitrary text never panics the parser, and whatever it accepts is
    /// a fixed point of print-then-parse.
    #[test]
    fn noise_is_an_error_or_a_canonicalizable_shape(spec in "[a-z0-9=,.: ]{0,40}") {
        if let Ok(shape) = LinkShape::parse(&spec) {
            prop_assert_eq!(LinkShape::parse(&shape.to_string()), Ok(shape));
        }
    }
}
