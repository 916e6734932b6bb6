//! Condition estimation — the Linpack `dgeco` companion to `dgefa`.
//!
//! `dgeco` factors a matrix and returns `rcond ≈ 1/κ₁(A)`, the reciprocal
//! 1-norm condition number, without ever forming `A⁻¹`. A user consults it
//! before trusting a remote solve (our `matrix/hilbert*` datasets exist to
//! fail this check). The estimator is Hager's algorithm (the one LAPACK's
//! `dgecon` also uses): a few solves with `A` and `Aᵀ` bound `‖A⁻¹‖₁` from
//! below, almost always tightly.

use crate::linpack::{dgesl, Singular};
use crate::matrix::Matrix;

/// Solve `Aᵀ·x = b` using the factors from any `dgefa*` variant (the
/// `job = 1` branch of the Fortran `dgesl`); `b` is overwritten.
pub fn dgesl_t(a: &Matrix, ipvt: &[usize], b: &mut [f64]) {
    let n = a.rows();
    assert_eq!(n, a.cols());
    assert_eq!(b.len(), n);
    assert_eq!(ipvt.len(), n);

    // Solve trans(U)·y = b: forward substitution down the columns of U.
    for k in 0..n {
        let col = a.col(k);
        let t: f64 = col[..k].iter().zip(&b[..k]).map(|(aik, bi)| aik * bi).sum();
        b[k] = (b[k] - t) / col[k];
    }
    // Solve trans(L)·x = y, applying the interchanges in reverse.
    for k in (0..n.saturating_sub(1)).rev() {
        let col = a.col(k);
        let t: f64 = col[k + 1..]
            .iter()
            .zip(&b[k + 1..])
            .map(|(aik, bi)| aik * bi)
            .sum();
        // Multipliers are stored negated, so trans(L) application adds.
        b[k] += t;
        let l = ipvt[k];
        if l != k {
            b.swap(l, k);
        }
    }
}

/// Factor `a` in place (with [`crate::dgefa_blocked_parallel`], so the
/// factorization splits over the ambient rayon budget and its factors equal
/// [`crate::linpack::dgefa`]'s bit for bit) and estimate the reciprocal
/// condition number `rcond = 1/(‖A‖₁·‖A⁻¹‖₁)`.
///
/// Returns `(ipvt, rcond)`. `rcond` near 1 means well-conditioned; if
/// `1.0 + rcond == 1.0` the matrix is singular to working precision (the
/// classic Linpack test).
pub fn dgeco(a: &mut Matrix) -> Result<(Vec<usize>, f64), Singular> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "dgeco requires a square matrix");
    if n == 0 {
        return Ok((Vec::new(), 1.0));
    }
    // ‖A‖₁ before factoring: max absolute column sum.
    let anorm = (0..n)
        .map(|j| a.col(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max);

    let ipvt = crate::blocked::dgefa_blocked_parallel(a, 0)?;
    let inv_norm = hager_inverse_norm(a, &ipvt);
    let rcond = if anorm > 0.0 && inv_norm > 0.0 {
        1.0 / (anorm * inv_norm)
    } else {
        0.0
    };
    Ok((ipvt, rcond))
}

/// Hager's lower-bound estimate of `‖A⁻¹‖₁` from factored `A`.
fn hager_inverse_norm(a: &Matrix, ipvt: &[usize]) -> f64 {
    let n = a.rows();
    let mut x = vec![1.0 / n as f64; n];
    let mut best = 0.0f64;

    for _ in 0..5 {
        // z = A⁻¹ x
        let mut z = x.clone();
        dgesl(a, ipvt, &mut z);
        let z_norm: f64 = z.iter().map(|v| v.abs()).sum();
        best = best.max(z_norm);

        // xi = sign(z); w = A⁻ᵀ xi
        let mut w: Vec<f64> = z
            .iter()
            .map(|v| if *v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        dgesl_t(a, ipvt, &mut w);

        // Converged when no coordinate of w beats the current functional.
        let (j_max, w_max) = w.iter().enumerate().fold((0, 0.0f64), |(bj, bv), (j, &v)| {
            if v.abs() > bv {
                (j, v.abs())
            } else {
                (bj, bv)
            }
        });
        let wx: f64 = w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum();
        if w_max <= wx.abs() + 1e-14 {
            break;
        }
        x = vec![0.0; n];
        x[j_max] = 1.0;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linpack::{dgefa, matgen, random_matrix};

    /// Direct ‖A⁻¹‖₁ by solving for every unit vector (test oracle).
    fn exact_inverse_norm(orig: &Matrix) -> f64 {
        let n = orig.rows();
        let mut fact = orig.clone();
        let ipvt = dgefa(&mut fact).unwrap();
        let mut best = 0.0f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            dgesl(&fact, &ipvt, &mut e);
            best = best.max(e.iter().map(|v| v.abs()).sum());
        }
        best
    }

    #[test]
    fn transpose_solve_inverts_transpose() {
        let (orig, _) = matgen(30);
        let mut fact = orig.clone();
        let ipvt = dgefa(&mut fact).unwrap();
        // Pick x, form b = Aᵀ x, recover x.
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut b = vec![0.0; 30];
        for (j, bj) in b.iter_mut().enumerate() {
            // (Aᵀ x)_j = Σ_i A[i][j]·x[i] = column j of A dotted with x.
            *bj = orig
                .col(j)
                .iter()
                .zip(&x_true)
                .map(|(aij, xi)| aij * xi)
                .sum();
        }
        dgesl_t(&fact, &ipvt, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn identity_is_perfectly_conditioned() {
        let mut a = Matrix::identity(12);
        let (_, rcond) = dgeco(&mut a).unwrap();
        assert!((rcond - 1.0).abs() < 1e-12, "rcond = {rcond}");
    }

    #[test]
    fn diagonal_condition_is_exact() {
        // diag(1, 1e-6): kappa_1 = 1e6 exactly.
        let mut a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-6]]);
        let (_, rcond) = dgeco(&mut a).unwrap();
        assert!((rcond - 1e-6).abs() < 1e-12, "rcond = {rcond}");
    }

    #[test]
    fn hilbert_flagged_as_nearly_singular() {
        let n = 10;
        let mut a = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let (_, rcond) = dgeco(&mut a).unwrap();
        assert!(
            rcond < 1e-10,
            "Hilbert 10 must look terrible, rcond = {rcond}"
        );
        assert!(rcond > 0.0);
    }

    #[test]
    fn estimate_close_to_exact_on_random_matrices() {
        for seed in [3u64, 17, 99] {
            let (orig, _) = random_matrix(24, seed);
            let exact = exact_inverse_norm(&orig);
            let mut a = orig.clone();
            let (_, rcond) = dgeco(&mut a).unwrap();
            let anorm = (0..24)
                .map(|j| orig.col(j).iter().map(|v| v.abs()).sum::<f64>())
                .fold(0.0f64, f64::max);
            let est = 1.0 / (rcond * anorm);
            // Hager is a lower bound, almost always within 3x of exact.
            assert!(
                est <= exact * 1.0001,
                "estimate above exact: {est} > {exact}"
            );
            assert!(est >= exact / 3.0, "estimate too loose: {est} vs {exact}");
        }
    }

    #[test]
    fn singular_matrix_propagates() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(dgeco(&mut a).is_err());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let mut a = Matrix::zeros(0, 0);
        let (ipvt, rcond) = dgeco(&mut a).unwrap();
        assert!(ipvt.is_empty());
        assert_eq!(rcond, 1.0);
    }
}
