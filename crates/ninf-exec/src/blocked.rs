//! Cache-blocked LU factorization — the paper's `glub4` analogue, and the
//! server's one LU kernel.
//!
//! The paper registers "glub4 and gslv4 routines which employ blocking
//! optimizations and could thus be executed efficiently on RISC-based
//! workstations" (§3.1), and on the J90 the 4-PE libSci `sgetrf`. Here the
//! blocked factorization defers the update of columns right of the current
//! panel until the panel is fully factored, so the panel stays resident in
//! cache during the rank-`nb` update, and applies that deferred update
//! across columns with rayon. How many threads share it is the ambient
//! rayon budget: on the server, the call's PE grant, so a 1-PE call runs
//! inline and an all-PE call (the 4-PE libSci stand-in) splits over the PEs
//! it holds.
//!
//! It performs *bitwise-identical arithmetic* to the unblocked
//! [`crate::linpack::dgefa`] — every column still receives its updates in
//! ascending pivot order — so its outputs (factors and pivots) are exactly
//! equal at any budget, which the tests assert. It returns the same storage
//! convention (negated multipliers, Linpack `ipvt`) and therefore works
//! with [`crate::linpack::dgesl`] unchanged.

use rayon::prelude::*;

use crate::linpack::{daxpy, idamax, Singular};
use crate::matrix::Matrix;

/// Default panel width. 32 keeps an n=1600 panel (~400 KiB) inside L2 on
/// modern hardware while amortizing the pass over the trailing matrix.
pub const DEFAULT_BLOCK: usize = 32;

/// Blocked LU with partial pivoting; the deferred panel update is applied to
/// trailing columns in parallel over the ambient rayon budget.
///
/// `nb` is the panel width; `nb = 0` falls back to [`DEFAULT_BLOCK`].
pub fn dgefa_blocked_parallel(a: &mut Matrix, nb: usize) -> Result<Vec<usize>, Singular> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "blocked dgefa requires a square matrix");
    let nb = if nb == 0 { DEFAULT_BLOCK } else { nb };
    let mut ipvt = vec![0usize; n];
    if n == 0 {
        return Ok(ipvt);
    }

    let mut k0 = 0;
    while k0 < n {
        let panel_width = nb.min(n - k0);
        let panel_end = k0 + panel_width;

        // --- Panel factorization (unblocked, updates stay inside the panel).
        for k in k0..panel_end {
            let col_k = a.col(k);
            let l = k + idamax(&col_k[k..]);
            ipvt[k] = l;
            if a[(l, k)] == 0.0 {
                // Leave the columns right of the panel as unblocked `dgefa`
                // leaves them: updated by every step before `k`.
                update_trailing(a, &ipvt[k0..k], k0, panel_end);
                return Err(Singular { column: k });
            }
            if l != k {
                a.col_mut(k).swap(l, k);
            }
            if k == n - 1 {
                break; // no multipliers below the last diagonal
            }
            let t = -1.0 / a[(k, k)];
            {
                let col = a.col_mut(k);
                for v in &mut col[k + 1..] {
                    *v *= t;
                }
            }
            // Update the remaining panel columns immediately.
            let (head, mut tail) = a.split_cols_mut(k + 1);
            let mults = &head.col(k)[k + 1..];
            let panel_cols_right = panel_end - (k + 1);
            for j in 0..panel_cols_right {
                let col = tail.col_mut(j);
                if l != k {
                    col.swap(l, k);
                }
                let (upper, lower) = col.split_at_mut(k + 1);
                daxpy(upper[k], mults, lower);
            }
        }

        // --- Deferred update of all columns right of the panel.
        update_trailing(a, &ipvt[k0..panel_end], k0, panel_end);

        k0 = panel_end;
    }

    // Match unblocked dgefa's final bookkeeping.
    ipvt[n - 1] = n - 1;
    if a[(n - 1, n - 1)] == 0.0 {
        return Err(Singular { column: n - 1 });
    }
    Ok(ipvt)
}

/// Apply elimination steps `k0..k0 + pivots.len()`, whose multipliers sit
/// in columns left of `from`, to every column from `from` on: one rayon task
/// per column, so the split follows the ambient budget.
fn update_trailing(a: &mut Matrix, pivots: &[usize], k0: usize, from: usize) {
    let n = a.rows();
    if from >= n {
        return;
    }
    let (panel, mut trailing) = a.split_cols_mut(from);
    trailing
        .as_mut_slice()
        .par_chunks_mut(n)
        .for_each(|col: &mut [f64]| {
            for (k, &l) in (k0..).zip(pivots) {
                if l != k {
                    col.swap(l, k);
                }
                let mults = &panel.col(k)[k + 1..];
                let (upper, lower) = col.split_at_mut(k + 1);
                daxpy(upper[k], mults, lower);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linpack::{dgefa, dgesl, matgen, residual_check};

    /// `dgefa_blocked_parallel` on a budget of `threads`.
    fn factor_on(threads: usize, a: &mut Matrix, nb: usize) -> Result<Vec<usize>, Singular> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| dgefa_blocked_parallel(a, nb))
    }

    #[test]
    fn blocked_equals_unblocked_bitwise() {
        for n in [1usize, 2, 3, 7, 17, 64, 65, 100] {
            let (orig, _) = matgen(n);
            let mut a_ref = orig.clone();
            let ip_ref = dgefa(&mut a_ref).unwrap();
            for nb in [1usize, 2, 8, 32, 1000] {
                let mut a_blk = orig.clone();
                let ip_blk = factor_on(1, &mut a_blk, nb).unwrap();
                assert_eq!(ip_blk, ip_ref, "pivots differ at n={n} nb={nb}");
                assert_eq!(
                    a_blk.as_slice(),
                    a_ref.as_slice(),
                    "factors differ at n={n} nb={nb}"
                );
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        for n in [33usize, 100, 150] {
            let (orig, _) = matgen(n);
            let mut a_seq = orig.clone();
            let ip_seq = factor_on(1, &mut a_seq, 16).unwrap();
            for threads in [2usize, 3] {
                let mut a_par = orig.clone();
                let ip_par = factor_on(threads, &mut a_par, 16).unwrap();
                assert_eq!(ip_par, ip_seq, "threads = {threads}");
                assert_eq!(a_par.as_slice(), a_seq.as_slice(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn blocked_factors_solve_correctly() {
        let n = 120;
        let (orig, b) = matgen(n);
        let mut a = orig.clone();
        let ipvt = dgefa_blocked_parallel(&mut a, DEFAULT_BLOCK).unwrap();
        let mut x = b.clone();
        dgesl(&a, &ipvt, &mut x);
        assert!(residual_check(&orig, &x, &b) < 50.0);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_detected_in_blocked() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(dgefa_blocked_parallel(&mut a, 8).is_err());
    }

    #[test]
    fn a_singular_matrix_is_left_as_unblocked_leaves_it() {
        // Column 5 is zero, so the pivot search fails there, inside the
        // panel [4, 8); columns 8 and 9 still owe that panel's step 4.
        let (mut orig, _) = matgen(10);
        orig.col_mut(5).fill(0.0);
        let mut a_ref = orig.clone();
        let err = dgefa(&mut a_ref).unwrap_err();
        assert_eq!(err, Singular { column: 5 });
        for threads in [1usize, 2] {
            let mut a_blk = orig.clone();
            assert_eq!(factor_on(threads, &mut a_blk, 4), Err(err));
            assert_eq!(a_blk.as_slice(), a_ref.as_slice(), "threads = {threads}");
        }
    }

    #[test]
    fn zero_sized_ok() {
        let mut a = Matrix::zeros(0, 0);
        assert!(dgefa_blocked_parallel(&mut a, 8).unwrap().is_empty());
    }

    #[test]
    fn nb_zero_uses_default() {
        let (orig, _) = matgen(50);
        let mut a1 = orig.clone();
        let mut a2 = orig.clone();
        let p1 = dgefa_blocked_parallel(&mut a1, 0).unwrap();
        let p2 = dgefa_blocked_parallel(&mut a2, DEFAULT_BLOCK).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(a1.as_slice(), a2.as_slice());
    }
}
