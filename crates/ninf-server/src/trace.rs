//! Execution-trace cost prediction (paper §5.1/§5.2).
//!
//! "By predicting the computation and communication time of a Ninf_call task
//! using IDL and server trace information, we could perform Shortest-Job-
//! First (SJF) scheduling" — this module is that trace: it records observed
//! `(problem size, service seconds)` samples per routine and fits a
//! power law `t = a·n^b` by least squares in log-log space, the right family
//! for the O(n³) Linpack kernels and the O(1)-in-`n` fixed-size calls alike.

use std::collections::HashMap;

use parking_lot::RwLock;

/// One routine's observation history and fitted model.
#[derive(Debug, Clone, Default)]
struct RoutineTrace {
    /// (ln n, ln t) samples; n is clamped ≥ 1 so logs are defined.
    samples: Vec<(f64, f64)>,
}

impl RoutineTrace {
    /// Least-squares fit of `ln t = ln a + b·ln n`; returns `(a, b)`.
    ///
    /// Degenerate histories (every sample at the same `n`, durations down at
    /// the clock-resolution floor) must yield finite coefficients: the
    /// constant-model fallbacks below keep NaN/Inf out of the scheduler's
    /// cost estimates.
    ///
    /// The degeneracy test is *relative*: `m·Σxx − (Σx)²` cancels
    /// catastrophically when every `x` is the same, and its rounding error
    /// grows with the history (≲ m·ε of `m·Σxx` for naive sums) — over
    /// 100 000 samples at one `n` it sits orders of magnitude above any
    /// absolute threshold, and the "slope" fitted to that noise predicted a
    /// 1000-sized call as free. A spread below `1e-8 · m·Σxx` is noise for
    /// histories up to tens of millions of samples, and still resolves
    /// sizes 1 % apart.
    fn fit(&self) -> Option<(f64, f64)> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            // A single sample: assume constant cost.
            return Self::finite_fit(self.samples[0].1.exp(), 0.0);
        }
        let m = n as f64;
        let (sx, sy): (f64, f64) = self
            .samples
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
        let sxx: f64 = self.samples.iter().map(|&(x, _)| x * x).sum();
        let sxy: f64 = self.samples.iter().map(|&(x, y)| x * y).sum();
        let denom = m * sxx - sx * sx;
        if denom <= 1e-8 * m * sxx {
            // All samples at the same n: constant model at the (geometric)
            // mean.
            return Self::finite_fit((sy / m).exp(), 0.0);
        }
        let b = (m * sxy - sx * sy) / denom;
        let ln_a = (sy - b * sx) / m;
        Self::finite_fit(ln_a.exp(), b).or_else(|| Self::finite_fit((sy / m).exp(), 0.0))
    }

    /// `(a, b)` only when both coefficients are finite (a slope computed
    /// from pathological samples can overflow `exp`).
    fn finite_fit(a: f64, b: f64) -> Option<(f64, f64)> {
        (a.is_finite() && b.is_finite()).then_some((a, b))
    }
}

/// Thread-safe per-routine cost model.
#[derive(Debug, Default)]
pub struct CostModel {
    traces: RwLock<HashMap<String, RoutineTrace>>,
}

impl CostModel {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observed execution: `routine` at problem size `n` took
    /// `seconds`.
    pub fn record(&self, routine: &str, n: i64, seconds: f64) {
        // Reject non-positive AND non-finite observations: a NaN duration
        // (clock skew, subtraction of garbage) would otherwise poison every
        // later fit for the routine.
        if !(seconds > 0.0 && seconds.is_finite()) {
            return;
        }
        let x = (n.max(1)) as f64;
        self.traces
            .write()
            .entry(routine.to_owned())
            .or_default()
            .samples
            .push((x.ln(), seconds.ln()));
    }

    /// Predict the service time of `routine` at problem size `n`; `None`
    /// until at least one sample exists.
    pub fn predict(&self, routine: &str, n: i64) -> Option<f64> {
        let traces = self.traces.read();
        let (a, b) = traces.get(routine)?.fit()?;
        Some(a * ((n.max(1)) as f64).powf(b))
    }

    /// The fitted exponent `b` of `t = a·n^b` (≈3 for LU, ≈0 for fixed-size
    /// calls); diagnostic.
    pub fn exponent(&self, routine: &str) -> Option<f64> {
        self.traces.read().get(routine)?.fit().map(|(_, b)| b)
    }

    /// Number of samples recorded for a routine.
    pub fn samples(&self, routine: &str) -> usize {
        self.traces
            .read()
            .get(routine)
            .map_or(0, |t| t.samples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_no_prediction() {
        let m = CostModel::new();
        assert_eq!(m.predict("linpack", 600), None);
    }

    #[test]
    fn single_sample_predicts_constant() {
        let m = CostModel::new();
        m.record("ep", 24, 200.0);
        assert!((m.predict("ep", 24).unwrap() - 200.0).abs() < 1e-9);
        assert!((m.predict("ep", 48).unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_cubic_law() {
        let m = CostModel::new();
        // t = 2e-9 * n^3 exactly.
        for n in [200i64, 400, 600, 800, 1000] {
            m.record("linpack", n, 2e-9 * (n as f64).powi(3));
        }
        let b = m.exponent("linpack").unwrap();
        assert!((b - 3.0).abs() < 1e-6, "b = {b}");
        let t = m.predict("linpack", 1400).unwrap();
        let expect = 2e-9 * 1400f64.powi(3);
        assert!((t - expect).abs() / expect < 1e-6, "t = {t} vs {expect}");
    }

    #[test]
    fn robust_to_noise() {
        let m = CostModel::new();
        let noise = [1.05, 0.93, 1.1, 0.97, 1.02, 0.9, 1.08];
        for (i, n) in [100i64, 200, 300, 500, 700, 900, 1200].iter().enumerate() {
            m.record("linpack", *n, 1e-8 * (*n as f64).powi(3) * noise[i]);
        }
        let t = m.predict("linpack", 600).unwrap();
        let expect = 1e-8 * 600f64.powi(3);
        assert!((t - expect).abs() / expect < 0.25, "t = {t} vs {expect}");
    }

    #[test]
    fn constant_routine_fits_flat() {
        let m = CostModel::new();
        for n in [8i64, 16, 24, 32] {
            m.record("query", n, 0.5);
        }
        let b = m.exponent("query").unwrap();
        assert!(b.abs() < 1e-9);
        assert!((m.predict("query", 64).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_n_samples_average() {
        let m = CostModel::new();
        m.record("f", 100, 1.0);
        m.record("f", 100, 4.0);
        // Geometric mean of 1 and 4 = 2.
        assert!((m.predict("f", 100).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn routines_are_independent() {
        let m = CostModel::new();
        m.record("a", 10, 1.0);
        m.record("b", 10, 100.0);
        assert!(m.predict("a", 10).unwrap() < m.predict("b", 10).unwrap());
        assert_eq!(m.samples("a"), 1);
        assert_eq!(m.samples("c"), 0);
    }

    #[test]
    fn nonpositive_times_ignored() {
        let m = CostModel::new();
        m.record("f", 10, 0.0);
        m.record("f", 10, -3.0);
        assert_eq!(m.predict("f", 10), None);
    }

    #[test]
    fn nonfinite_times_ignored() {
        let m = CostModel::new();
        m.record("f", 10, f64::NAN);
        m.record("f", 10, f64::INFINITY);
        assert_eq!(m.predict("f", 10), None);
        // A later good sample still fits cleanly.
        m.record("f", 10, 1.5);
        let t = m.predict("f", 10).unwrap();
        assert!(t.is_finite());
        assert!((t - 1.5).abs() < 1e-9);
    }

    /// All samples at one `n` with wildly different durations: the log-log
    /// normal equations are singular (denominator 0) and must fall back to
    /// the finite constant model, never NaN/Inf.
    #[test]
    fn degenerate_single_n_history_stays_finite() {
        let m = CostModel::new();
        for secs in [1e-9, 2.0, 5e3, 1e-7] {
            m.record("linpack", 600, secs);
        }
        let b = m.exponent("linpack").unwrap();
        assert!(b.is_finite());
        assert_eq!(b, 0.0);
        for n in [1i64, 600, 1_000_000] {
            let t = m.predict("linpack", n).unwrap();
            assert!(t.is_finite() && t > 0.0, "predict({n}) = {t}");
        }
    }

    /// Near-zero (clock-floor) durations: huge negative logs, but the fit
    /// coefficients and predictions must stay finite and positive.
    #[test]
    fn near_zero_durations_fit_finite_coefficients() {
        let m = CostModel::new();
        for (n, secs) in [
            (100i64, 4.9e-324),
            (200, 1e-300),
            (400, 2e-300),
            (800, 1e-299),
        ] {
            m.record("fast", n, secs);
        }
        let b = m.exponent("fast").unwrap();
        assert!(b.is_finite(), "exponent = {b}");
        let t = m.predict("fast", 300).unwrap();
        assert!(t.is_finite() && t >= 0.0, "predict = {t}");
    }

    /// A long single-`n` history with jitter: the normal equations'
    /// denominator is rounding noise far above any absolute threshold. At
    /// the parent this history fitted exponent −10.4 (ISSUE 21 measured
    /// −11.97 and a 1000-sized `dmmul` predicted at 2.2e-38 s on its own
    /// jitter) — free, to SJF.
    #[test]
    fn long_single_n_history_with_jitter_fits_flat() {
        let m = CostModel::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let jitter = 1.0 + (state >> 11) as f64 / (1u64 << 53) as f64;
            m.record("dmmul", 2, 20e-6 * jitter);
        }
        assert_eq!(m.exponent("dmmul"), Some(0.0));
        let t = m.predict("dmmul", 1000).unwrap();
        assert!((20e-6..=40e-6).contains(&t), "predict(1000) = {t:e}");
    }

    /// The n=1 sample puts ln n = 0 for every observation; combined with a
    /// second point this exercises the near-singular branch boundary.
    #[test]
    fn all_samples_at_n_equals_one_stay_finite() {
        let m = CostModel::new();
        m.record("g", 1, 1e-12);
        m.record("g", 1, 1e12);
        let (t, b) = (m.predict("g", 1).unwrap(), m.exponent("g").unwrap());
        assert!(t.is_finite() && b.is_finite());
        // Geometric mean of 1e-12 and 1e12 = 1.
        assert!((t - 1.0).abs() < 1e-6, "t = {t}");
    }
}
