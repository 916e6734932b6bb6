//! The workspace's one seeded generator and its one byte-string fingerprint.
//!
//! Everything that must replay from a seed draws from [`SplitMix64`]: the
//! link model's per-send events, the simulator's arrival and service
//! processes, the load generator's open-loop schedules and the client's
//! retry jitter. No OS entropy ever enters any of them. SplitMix64 passes
//! BigCrush, is trivially seedable, and every draw is a pure function of
//! the previous state, so one definition pins every seeded stream at once
//! (the known answers below).

/// FNV-1a of `bytes`: the workspace's one fingerprint of a byte string
/// (link and open-loop schedules, chaos fault plans, per-server backoff
/// salts). Pinned by the known answers below.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed. Distinct seeds give independent-looking streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform deviate in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, n)` (n > 0).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiplicative range reduction; bias is negligible for sim purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with mean `1/rate` (inter-arrival of a Poisson process).
    pub fn next_exp(&mut self, rate: f64) -> f64 {
        // 1 − u ∈ (0, 1] so ln is finite.
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Derive an independent child generator (for per-client streams).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64-bit test vectors.
    #[test]
    fn known_answers_of_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn known_answers_from_seed_zero() {
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = g.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_rate_roughly_p() {
        let mut g = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| g.bernoulli(0.5)).count();
        assert!((hits as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn below_respects_bound() {
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(g.below(7) < 7);
        }
    }

    #[test]
    fn forked_streams_are_distinct() {
        let mut root = SplitMix64::new(99);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_streams_are_stable() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let u = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&u));
        assert!(SplitMix64::new(7).next_exp(10.0) >= 0.0);
    }
}
