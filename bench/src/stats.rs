//! Order statistics: every timing is reported as a median plus the highest
//! percentile the sample supports, with the sample count beside it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the picker chooses from, highest first.
const CANDIDATES: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples of `n` strictly beyond percentile `p` (nearest rank).
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it; `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of unsorted values (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// by the method of Python's `statistics.quantiles(values, n=4)` (exclusive).
/// `None` below four values, where quartiles say little.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(39), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in [20, 40, 100, 1000, 10_000, 123_457] {
            let p = supported_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), None);
    }
}
