//! NAS Parallel Benchmarks EP kernel — "An embarrassingly parallel benchmark
//! … performing (random-number) Monte-Carlo simulations" (paper §4.3).
//!
//! Faithful to the NPB specification: the power-of-two linear congruential
//! generator `x_{k+1} = a·x_k mod 2^46` with `a = 5^13`, pairs of uniforms
//! mapped to `(-1, 1)`, acceptance `t = x² + y² ≤ 1`, Gaussian deviates via
//! the Marsaglia polar method, counted into ten square annuli
//! `l = ⌊max(|X|, |Y|)⌋`. Communication is O(1): a call returns two sums and
//! ten counts regardless of the number of trials, which is why EP sustains
//! LAN-equal performance over WAN (paper Table 8).
//!
//! The generator supports O(log k) skip-ahead, so the task-parallel execution
//! (one batch per PE / per Ninf server, §4.3.1) partitions a single global
//! random stream — the parallel integer outputs are *bitwise identical* to
//! the serial ones, which the tests assert.

use rayon::prelude::*;

/// Number of square-annulus bins in the NPB EP specification.
pub const EP_GAUSSIAN_BINS: usize = 10;

/// NPB multiplier `a = 5^13`.
const A: u64 = 1_220_703_125;
/// Default NPB seed.
const DEFAULT_SEED: u64 = 271_828_183;
/// Modulus mask for mod 2^46.
const MASK46: u64 = (1 << 46) - 1;
/// 2^-46 for mapping to (0,1).
const R46: f64 = 1.0 / (1u64 << 46) as f64;

/// The NAS power-of-two linear congruential generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NasRng {
    state: u64,
}

impl Default for NasRng {
    fn default() -> Self {
        Self::new(DEFAULT_SEED)
    }
}

impl NasRng {
    /// Create with an explicit seed (must be odd and < 2^46 per NPB; even
    /// seeds degenerate, so the constructor forces the low bit).
    pub fn new(seed: u64) -> Self {
        Self {
            state: (seed | 1) & MASK46,
        }
    }

    /// Current state.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 46-bit value.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        self.state = mulmod46(A, self.state);
        self.state
    }

    /// Next uniform deviate in (0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.next_raw() as f64 * R46
    }

    /// Skip `k` steps ahead in O(log k): multiplies the state by `a^k mod 2^46`.
    pub fn skip(&mut self, k: u64) {
        self.state = mulmod46(powmod46(A, k), self.state);
    }

    /// A generator positioned `k` steps after this one, without advancing `self`.
    pub fn at_offset(&self, k: u64) -> Self {
        let mut g = *self;
        g.skip(k);
        g
    }
}

#[inline]
fn mulmod46(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) & MASK46 as u128) as u64
}

fn powmod46(mut base: u64, mut exp: u64) -> u64 {
    let mut acc: u64 = 1;
    base &= MASK46;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod46(acc, base);
        }
        base = mulmod46(base, base);
        exp >>= 1;
    }
    acc
}

/// Result of an EP batch: the NPB verification quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Sum of accepted Gaussian X deviates.
    pub sx: f64,
    /// Sum of accepted Gaussian Y deviates.
    pub sy: f64,
    /// Pair counts per square annulus `⌊max(|X|,|Y|)⌋ ∈ [0, 10)`.
    pub counts: [u64; EP_GAUSSIAN_BINS],
    /// Total pairs accepted (Σ counts).
    pub accepted: u64,
    /// Total pair trials attempted (2^m).
    pub trials: u64,
}

impl EpResult {
    /// Merge two batch results (used by task-parallel execution).
    pub fn merge(&self, other: &EpResult) -> EpResult {
        let mut counts = self.counts;
        for (c, o) in counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        EpResult {
            sx: self.sx + other.sx,
            sy: self.sy + other.sy,
            counts,
            accepted: self.accepted + other.accepted,
            trials: self.trials + other.trials,
        }
    }

    /// The paper's EP "operation" count: `2^{n+1}` for `2^n` trials (§4.3).
    pub fn ops(&self) -> u64 {
        self.trials * 2
    }
}

/// Run `2^m` pair trials serially from the default NPB seed.
pub fn ep_kernel(m: u32) -> EpResult {
    ep_segment(NasRng::default(), 0, 1u64 << m, 1u64 << m)
}

/// Run `2^m` pair trials, split across `workers` equal segments of one global
/// stream, executed with rayon.
///
/// Each worker processes a disjoint slice of the *same* stream via skip-ahead,
/// so the integer outputs (annulus counts, acceptance) are bitwise identical
/// to [`ep_kernel`]; the floating-point sums agree up to reassociation of the
/// per-segment partial sums.
///
/// This mirrors the paper's task-parallel EP: each Ninf server (or each J90
/// PE) processes one segment, and the client merges the O(1)-sized results.
pub fn ep_kernel_parallel(m: u32, workers: usize) -> EpResult {
    let total: u64 = 1 << m;
    let workers = workers.max(1) as u64;
    let base = NasRng::default();
    let chunk = total.div_ceil(workers);
    let partials: Vec<EpResult> = (0..workers)
        .into_par_iter()
        .map(|w| {
            let start = w * chunk;
            let len = chunk.min(total.saturating_sub(start));
            ep_segment(base, start, len, total)
        })
        .collect();
    let mut merged = partials.iter().fold(
        EpResult {
            sx: 0.0,
            sy: 0.0,
            counts: [0; EP_GAUSSIAN_BINS],
            accepted: 0,
            trials: 0,
        },
        |acc, p| acc.merge(p),
    );
    merged.trials = total;
    merged
}

/// Run pair trials `[start, start + len)` of the global stream seeded by `rng`.
///
/// Each pair trial consumes exactly two uniforms, so trial `i` starts at
/// stream offset `2 i`.
pub fn ep_segment(rng: NasRng, start: u64, len: u64, _total: u64) -> EpResult {
    let mut g = rng.at_offset(2 * start);
    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    let mut counts = [0u64; EP_GAUSSIAN_BINS];
    let mut accepted = 0u64;

    for _ in 0..len {
        let x = 2.0 * g.next_f64() - 1.0;
        let y = 2.0 * g.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let factor = (-2.0 * t.ln() / t).sqrt();
            let gx = x * factor;
            let gy = y * factor;
            let l = gx.abs().max(gy.abs()) as usize;
            if l < EP_GAUSSIAN_BINS {
                counts[l] += 1;
                sx += gx;
                sy += gy;
                accepted += 1;
            }
        }
    }

    EpResult {
        sx,
        sy,
        counts,
        accepted,
        trials: len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = NasRng::default();
        let mut b = NasRng::default();
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn rng_stays_in_46_bits() {
        let mut g = NasRng::default();
        for _ in 0..1000 {
            assert!(g.next_raw() < (1 << 46));
        }
    }

    #[test]
    fn skip_matches_stepping() {
        for k in [0u64, 1, 2, 7, 100, 12345] {
            let mut stepped = NasRng::default();
            for _ in 0..k {
                stepped.next_raw();
            }
            let jumped = NasRng::default().at_offset(k);
            assert_eq!(jumped.state(), stepped.state(), "k = {k}");
        }
    }

    #[test]
    fn uniforms_are_open_unit_interval() {
        let mut g = NasRng::default();
        for _ in 0..10_000 {
            let u = g.next_f64();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn acceptance_rate_near_pi_over_4() {
        let r = ep_kernel(16); // 65536 trials
        let rate = r.accepted as f64 / r.trials as f64;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "rate = {rate}"
        );
    }

    #[test]
    fn counts_sum_to_accepted() {
        let r = ep_kernel(14);
        assert_eq!(r.counts.iter().sum::<u64>(), r.accepted);
    }

    #[test]
    fn gaussian_moments_sane() {
        // Mean of a Gaussian sum over ~50k accepted pairs should be near 0
        // relative to the standard deviation of the sum (~sqrt(N)).
        let r = ep_kernel(16);
        let sigma = (r.accepted as f64).sqrt();
        assert!(r.sx.abs() < 5.0 * sigma, "sx = {}", r.sx);
        assert!(r.sy.abs() < 5.0 * sigma, "sy = {}", r.sy);
        // Nearly all mass lies in the first few annuli.
        assert!(r.counts[0] > r.counts[3]);
        assert!(r.counts[9] < r.accepted / 100 + 1);
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = ep_kernel(14);
        for workers in [1usize, 2, 3, 4, 7, 16] {
            let par = ep_kernel_parallel(14, workers);
            // Integer outputs are exactly equal; float sums agree up to the
            // reassociation of per-segment partial sums.
            assert_eq!(par.counts, serial.counts, "workers = {workers}");
            assert_eq!(par.accepted, serial.accepted);
            assert_eq!(par.trials, serial.trials);
            let tol = 1e-9 * serial.accepted as f64;
            assert!((par.sx - serial.sx).abs() <= tol, "workers = {workers}");
            assert!((par.sy - serial.sy).abs() <= tol, "workers = {workers}");
        }
    }

    #[test]
    fn segments_partition_the_stream() {
        let whole = ep_segment(NasRng::default(), 0, 1000, 1000);
        let first = ep_segment(NasRng::default(), 0, 400, 1000);
        let second = ep_segment(NasRng::default(), 400, 600, 1000);
        let merged = first.merge(&second);
        assert_eq!(merged.accepted, whole.accepted);
        assert_eq!(merged.counts, whole.counts);
        assert!((merged.sx - whole.sx).abs() < 1e-9);
    }

    #[test]
    fn ops_matches_paper_model() {
        let r = ep_kernel(10);
        assert_eq!(r.ops(), 1 << 11); // 2^{n+1} for 2^n trials
    }

    #[test]
    fn even_seed_is_fixed_up() {
        let g = NasRng::new(42);
        assert_eq!(g.state() % 2, 1);
    }
}
