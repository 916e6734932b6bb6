//! The classic Linpack routines: `dgefa` (LU factorization with partial
//! pivoting) and `dgesl` (solve using the factors), in the column-oriented
//! formulation of the original Fortran, plus the standard Linpack benchmark
//! matrix generator and residual check.
//!
//! These are the routines the paper registers remotely: "For double precision
//! Linpack, we execute the LU-decomposition (dgefa) and backward substitution
//! (dgesl) remotely" (§3.1).

use crate::matrix::Matrix;

/// Error from the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Column index where a zero pivot was found.
    pub column: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular: zero pivot at column {}",
            self.column
        )
    }
}

impl std::error::Error for Singular {}

/// Index of the element with largest magnitude (BLAS `idamax`).
#[inline]
fn idamax(x: &[f64]) -> usize {
    let mut best = 0;
    let mut best_val = 0.0f64;
    for (i, &v) in x.iter().enumerate() {
        let a = v.abs();
        if a > best_val {
            best_val = a;
            best = i;
        }
    }
    best
}

/// `y += alpha * x` (BLAS `daxpy`).
#[inline]
fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Factor `a` in place as `P·A = L·U` with partial pivoting.
///
/// On success returns the pivot vector `ipvt` (Linpack convention: `ipvt[k]`
/// is the row swapped with row `k` at step `k`). The factors overwrite `a`
/// exactly like the Fortran `dgefa`: multipliers are stored *negated* below
/// the diagonal.
pub fn dgefa(a: &mut Matrix) -> Result<Vec<usize>, Singular> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "dgefa requires a square matrix");
    let mut ipvt = vec![0usize; n];
    if n == 0 {
        return Ok(ipvt);
    }

    for k in 0..n - 1 {
        // Find pivot in column k at or below the diagonal.
        let col_k = a.col(k);
        let l = k + idamax(&col_k[k..]);
        ipvt[k] = l;
        if a[(l, k)] == 0.0 {
            return Err(Singular { column: k });
        }
        // Interchange rows k and l in column k, compute multipliers.
        if l != k {
            let col = a.col_mut(k);
            col.swap(l, k);
        }
        let pivot = a[(k, k)];
        let t = -1.0 / pivot;
        {
            let col = a.col_mut(k);
            for v in &mut col[k + 1..] {
                *v *= t;
            }
        }
        // Update trailing columns: row interchange + rank-1 update.
        let (head, mut tail) = a.split_cols_mut(k + 1);
        let mults = &head.col(k)[k + 1..];
        for j in 0..tail.cols() {
            let col = tail.col_mut(j);
            if l != k {
                col.swap(l, k);
            }
            let (upper, lower) = col.split_at_mut(k + 1);
            daxpy(upper[k], mults, lower);
        }
    }
    ipvt[n - 1] = n - 1;
    if a[(n - 1, n - 1)] == 0.0 {
        return Err(Singular { column: n - 1 });
    }
    Ok(ipvt)
}

/// Solve `A·x = b` using the factors produced by [`dgefa`]; `b` is
/// overwritten with the solution (Fortran `dgesl` with `job = 0`).
///
/// Panics if `a` is not square or `ipvt`/`b` do not fit it; see
/// [`dgesl_cols`] for the checked form over borrowed factors.
pub fn dgesl(a: &Matrix, ipvt: &[usize], b: &mut [f64]) {
    assert_eq!(a.rows(), a.cols());
    if let Err(e) = dgesl_cols(a.as_slice(), a.rows(), ipvt, b) {
        panic!("dgesl: {e}");
    }
}

/// Why [`dgesl_cols`] refused a system before touching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// Operand `what` holds `got` elements where order `n` needs `want`.
    Length {
        /// Which operand (`"A"`, `"ipvt"` or `"b"`).
        what: &'static str,
        /// Elements order `n` needs.
        want: usize,
        /// Elements supplied.
        got: usize,
    },
    /// `ipvt[k]` names row `row`, outside the system.
    Pivot {
        /// Elimination step.
        k: usize,
        /// The row it names.
        row: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::Length { what, want, got } => {
                write!(f, "{what} has {got} elements, order needs {want}")
            }
            ShapeError::Pivot { k, row } => write!(f, "ipvt[{k}] = {row} is outside the system"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// [`dgesl`] against factors borrowed as a column-major `n × n` slice — the
/// form an argument decoded from the wire (or shared from the arg store)
/// already has, so a solve never copies the matrix. Every length and pivot
/// is checked first: a mismatch is a [`ShapeError`], never a slice panic.
pub fn dgesl_cols(a: &[f64], n: usize, ipvt: &[usize], b: &mut [f64]) -> Result<(), ShapeError> {
    let fits = |what, want: Option<usize>, got| match want {
        Some(want) if want == got => Ok(()),
        want => Err(ShapeError::Length {
            what,
            want: want.unwrap_or(usize::MAX),
            got,
        }),
    };
    fits("A", n.checked_mul(n), a.len())?;
    fits("ipvt", Some(n), ipvt.len())?;
    fits("b", Some(n), b.len())?;
    if let Some((k, &row)) = ipvt.iter().enumerate().find(|&(_, &row)| row >= n) {
        return Err(ShapeError::Pivot { k, row });
    }
    if n == 0 {
        return Ok(());
    }
    let col = |k: usize| &a[k * n..(k + 1) * n];

    // Forward elimination: apply L^{-1} (and P) to b.
    for k in 0..n - 1 {
        let l = ipvt[k];
        let t = b[l];
        if l != k {
            b[l] = b[k];
            b[k] = t;
        }
        daxpy(t, &col(k)[k + 1..], &mut b[k + 1..]);
    }
    // Back substitution: solve U x = y.
    for k in (0..n).rev() {
        b[k] /= col(k)[k];
        let t = -b[k];
        daxpy(t, &col(k)[..k], &mut b[..k]);
    }
    Ok(())
}

/// Factor + solve in one call; returns the solution. This is the unit of one
/// benchmark `Ninf_call` (`linpack` in the registered IDL).
pub fn solve(a: &mut Matrix, b: &mut [f64]) -> Result<Vec<f64>, Singular> {
    let ipvt = dgefa(a)?;
    dgesl(a, &ipvt, b);
    Ok(b.to_vec())
}

/// The standard Linpack benchmark matrix generator (`matgen`): pseudo-random
/// entries from the historical `3125 mod 2^16` multiplicative congruential
/// generator, plus a right-hand side `b = A·ones`.
///
/// Faithful to the original, including its famous wart: the generator's
/// period is 16384, so once `n·n` exceeds one period with `n` a power of two
/// (n ≥ 256), whole columns repeat and the matrix is *exactly singular*.
/// Use [`random_matrix`] for arbitrary sizes.
pub fn matgen(n: usize) -> (Matrix, Vec<f64>) {
    let mut a = Matrix::zeros(n, n);
    let mut init: i64 = 1325;
    for j in 0..n {
        let col = a.col_mut(j);
        for v in col.iter_mut() {
            init = (3125 * init) % 65536;
            *v = (init as f64 - 32768.0) / 16384.0;
        }
    }
    // b = A * ones, so the true solution is all-ones.
    let b = a.matvec(&vec![1.0; n]);
    (a, b)
}

/// A robust random test system for arbitrary `n`: entries from the NAS
/// 46-bit generator in (-0.5, 0.5), right-hand side `b = A·ones`. Unlike
/// [`matgen`], non-singular (with overwhelming probability) at every size.
pub fn random_matrix(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut g = crate::ep::NasRng::new(seed | 1);
    let data: Vec<f64> = (0..n * n).map(|_| g.next_f64() - 0.5).collect();
    let a = Matrix::from_col_major(n, n, data);
    let b = a.matvec(&vec![1.0; n]);
    (a, b)
}

/// Normalized Linpack residual `‖A·x − b‖∞ / (‖A‖∞ · ‖x‖∞ · n · ε)`.
///
/// The benchmark accepts the solve if this is O(1) — a few units. `a_orig`
/// must be the matrix *before* factorization.
pub fn residual_check(a_orig: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a_orig.rows();
    let ax = a_orig.matvec(x);
    let resid = ax
        .iter()
        .zip(b)
        .fold(0.0f64, |acc, (axi, bi)| acc.max((axi - bi).abs()));
    let x_norm = x.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let a_norm = a_orig.inf_norm();
    resid / (a_norm * x_norm * n as f64 * f64::EPSILON).max(f64::MIN_POSITIVE)
}

/// Floating-point operation count of one Linpack solve of order `n`
/// (paper §3.1: `2/3·n³ + 2·n²`).
pub fn linpack_flops(n: u64) -> u64 {
    (2 * n * n * n) / 3 + 2 * n * n
}

/// Bytes shipped over the network per remote Linpack call of order `n`
/// (paper §3.1: `8n² + 20n`).
pub fn linpack_message_bytes(n: u64) -> u64 {
    8 * n * n + 20 * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_solve_matches_and_refuses_misfits() {
        let n = 12;
        let (mut a, b) = matgen(n);
        let ipvt = dgefa(&mut a).unwrap();
        let mut owned = b.clone();
        dgesl(&a, &ipvt, &mut owned);
        let mut borrowed = b.clone();
        dgesl_cols(a.as_slice(), n, &ipvt, &mut borrowed).unwrap();
        assert_eq!(owned, borrowed, "bit-identical to the owned solve");

        let short = &a.as_slice()[1..];
        assert_eq!(
            dgesl_cols(short, n, &ipvt, &mut b.clone()),
            Err(ShapeError::Length {
                what: "A",
                want: n * n,
                got: n * n - 1
            })
        );
        assert!(dgesl_cols(a.as_slice(), n, &ipvt[1..], &mut b.clone()).is_err());
        assert!(dgesl_cols(a.as_slice(), n, &ipvt, &mut b[1..].to_vec()).is_err());
        let mut wild = ipvt.clone();
        wild[3] = n;
        assert_eq!(
            dgesl_cols(a.as_slice(), n, &wild, &mut b.clone()),
            Err(ShapeError::Pivot { k: 3, row: n })
        );
        assert!(
            dgesl_cols(&[], usize::MAX, &[], &mut []).is_err(),
            "n·n overflows"
        );
    }

    #[test]
    fn factor_and_solve_known_system() {
        // A = [[4, 3], [6, 3]]; b = [10, 12] -> x = [1, 2]
        let mut a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let orig = a.clone();
        let mut b = vec![10.0, 12.0];
        let x = solve(&mut a, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!(residual_check(&orig, &x, &[10.0, 12.0]) < 10.0);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut b = vec![2.0, 3.0];
        let x = solve(&mut a, &mut b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(dgefa(&mut a), Err(Singular { .. })));
    }

    #[test]
    fn zero_matrix_singular_at_first_column() {
        let mut a = Matrix::zeros(3, 3);
        assert_eq!(dgefa(&mut a), Err(Singular { column: 0 }));
    }

    #[test]
    fn matgen_is_deterministic_and_bounded() {
        let (a1, b1) = matgen(50);
        let (a2, b2) = matgen(50);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.max_norm() <= 2.0);
    }

    #[test]
    fn benchmark_matrix_solves_to_ones() {
        let n = 100;
        let (orig, b) = matgen(n);
        let mut a = orig.clone();
        let mut rhs = b.clone();
        let x = solve(&mut a, &mut rhs).unwrap();
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8, "entry {xi} deviates from 1");
        }
        assert!(residual_check(&orig, &x, &b) < 50.0);
    }

    #[test]
    fn empty_system_is_ok() {
        let mut a = Matrix::zeros(0, 0);
        let mut b: Vec<f64> = vec![];
        assert!(solve(&mut a, &mut b).unwrap().is_empty());
    }

    #[test]
    fn one_by_one() {
        let mut a = Matrix::from_rows(&[&[4.0]]);
        let mut b = vec![8.0];
        assert_eq!(solve(&mut a, &mut b).unwrap(), vec![2.0]);
    }

    #[test]
    fn matgen_singular_at_power_of_two_as_documented() {
        // The historical generator's period (16384) makes n=256 exactly
        // singular: column 64 repeats column 0.
        let (mut a, _) = matgen(256);
        assert!(dgefa(&mut a).is_err());
        // ...while n=128 (exactly one period) is fine.
        let (mut a, _) = matgen(128);
        assert!(dgefa(&mut a).is_ok());
    }

    #[test]
    fn random_matrix_solves_at_awkward_sizes() {
        for n in [128usize, 256] {
            let (orig, b) = random_matrix(n, 7);
            let mut a = orig.clone();
            let mut rhs = b.clone();
            let x = solve(&mut a, &mut rhs).unwrap();
            assert!(residual_check(&orig, &x, &b) < 100.0, "n = {n}");
        }
    }

    #[test]
    fn flops_monotone_in_n() {
        let mut last = 0;
        for n in [100u64, 200, 600, 1000, 1400, 1600] {
            let f = linpack_flops(n);
            assert!(f > last);
            last = f;
        }
    }
}
