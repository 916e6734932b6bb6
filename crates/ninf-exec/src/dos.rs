//! Density-of-states (DOS) Monte-Carlo estimate — the paper's "EP-style
//! practical application in computational chemistry" (§4.3.1).
//!
//! We estimate the density of states of a system whose energy is the sum of
//! `k` independent uniform level occupations: `E = Σ u_i`, `u_i ~ U(0,1)`
//! (an Irwin–Hall density). Like EP, the kernel is embarrassingly parallel
//! with O(1) communication: it returns only a histogram.

use rayon::prelude::*;

use crate::ep::NasRng;

/// Result of a DOS estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DosResult {
    /// Histogram of sampled energies over `[0, k]`, `bins` buckets.
    pub histogram: Vec<u64>,
    /// Number of samples drawn.
    pub samples: u64,
    /// Number of uniform levels summed per sample.
    pub levels: u32,
}

impl DosResult {
    /// Normalized density estimate (integrates to ~1 over `[0, levels]`).
    pub fn density(&self) -> Vec<f64> {
        let bin_width = self.levels as f64 / self.histogram.len() as f64;
        let norm = 1.0 / (self.samples as f64 * bin_width);
        self.histogram.iter().map(|&c| c as f64 * norm).collect()
    }

    /// Merge with another run over the same geometry.
    pub fn merge(&self, other: &DosResult) -> DosResult {
        assert_eq!(self.histogram.len(), other.histogram.len());
        assert_eq!(self.levels, other.levels);
        DosResult {
            histogram: self
                .histogram
                .iter()
                .zip(&other.histogram)
                .map(|(a, b)| a + b)
                .collect(),
            samples: self.samples + other.samples,
            levels: self.levels,
        }
    }
}

/// Draw `2^m` energy samples of `levels` uniform levels each and histogram
/// them into `bins` buckets over `[0, levels]`.
pub fn dos_histogram(m: u32, levels: u32, bins: usize) -> DosResult {
    dos_segment(NasRng::default(), 0, 1u64 << m, levels, bins)
}

/// The server's DOS kernel: one global stream partitioned across `workers`
/// segments, run in parallel over the ambient rayon budget. Integer results
/// are bitwise identical to [`dos_histogram`] for any `workers`.
pub fn dos_histogram_parallel(m: u32, levels: u32, bins: usize, workers: usize) -> DosResult {
    let total: u64 = 1 << m;
    let workers = workers.max(1) as u64;
    let chunk = total.div_ceil(workers);
    (0..workers)
        .into_par_iter()
        .map(|w| {
            let start = w * chunk;
            let len = chunk.min(total.saturating_sub(start));
            dos_segment(NasRng::default(), start, len, levels, bins)
        })
        .reduce_with(|a, b| a.merge(&b))
        .unwrap_or(DosResult {
            histogram: vec![0; bins],
            samples: 0,
            levels,
        })
}

fn dos_segment(base: NasRng, start: u64, len: u64, levels: u32, bins: usize) -> DosResult {
    assert!(bins > 0, "need at least one bin");
    assert!(levels > 0, "need at least one level");
    let mut g = base.at_offset(start * levels as u64);
    let mut histogram = vec![0u64; bins];
    for _ in 0..len {
        let mut e = 0.0f64;
        for _ in 0..levels {
            e += g.next_f64();
        }
        let idx = ((e / levels as f64) * bins as f64) as usize;
        histogram[idx.min(bins - 1)] += 1;
    }
    DosResult {
        histogram,
        samples: len,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_all_samples() {
        let r = dos_histogram(12, 4, 32);
        assert_eq!(r.histogram.iter().sum::<u64>(), 1 << 12);
        assert_eq!(r.samples, 1 << 12);
    }

    #[test]
    fn density_peaks_at_center() {
        // Irwin-Hall with k=8 concentrates around k/2.
        let r = dos_histogram(14, 8, 16);
        let d = r.density();
        let center = (d[7] + d[8]) / 2.0;
        assert!(center > d[0] * 10.0, "center {center} vs edge {}", d[0]);
        assert!(center > d[15] * 10.0);
    }

    #[test]
    fn density_integrates_to_one() {
        let r = dos_histogram(14, 4, 20);
        let bin_width = 4.0 / 20.0;
        let integral: f64 = r.density().iter().map(|p| p * bin_width).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = dos_histogram(12, 4, 16);
        for workers in [1usize, 2, 3, 8] {
            let par = dos_histogram_parallel(12, 4, 16, workers);
            assert_eq!(par.histogram, serial.histogram, "workers = {workers}");
            assert_eq!(par.samples, serial.samples);
        }
    }

    #[test]
    fn merge_accumulates() {
        let a = dos_histogram(8, 2, 8);
        let b = dos_histogram(8, 2, 8);
        let m = a.merge(&b);
        assert_eq!(m.samples, 2 * a.samples);
        assert_eq!(m.histogram[3], a.histogram[3] + b.histogram[3]);
    }

    #[test]
    #[should_panic(expected = "bin")]
    fn zero_bins_panics() {
        let _ = dos_histogram(4, 2, 0);
    }
}
