//! `dmmul` — double-precision matrix multiply, the running example of the
//! paper's §2 (`Ninf_call("dmmul", n, A, B, C)`).

use rayon::prelude::*;

use crate::matrix::Matrix;

/// Naive triple loop in column-major-friendly (j, k, i) order: the
/// reference [`dmmul_parallel`] is checked against, kept a separate loop
/// so the check compares two implementations.
pub fn dmmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        for k in 0..a.cols() {
            let bkj = b[(k, j)];
            if bkj != 0.0 {
                let col_a = a.col(k);
                let col_c = c.col_mut(j);
                for i in 0..a.rows() {
                    col_c[i] += col_a[i] * bkj;
                }
            }
        }
    }
    c
}

/// The server's multiply: output columns are computed independently,
/// split over the ambient rayon budget (a call's grant on the server; one
/// thread runs inline). Bitwise equal to [`dmmul`], since each column's
/// accumulation order is unchanged.
pub fn dmmul_parallel(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch");
    let m = a.rows();
    let mut c = Matrix::zeros(m, b.cols());
    c.as_mut_slice()
        .par_chunks_mut(m.max(1))
        .enumerate()
        .for_each(|(j, col_c)| {
            for k in 0..a.cols() {
                let bkj = b[(k, j)];
                if bkj != 0.0 {
                    for (ci, &aik) in col_c.iter_mut().zip(a.col(k)) {
                        *ci += aik * bkj;
                    }
                }
            }
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(rows: usize, cols: usize, seed: f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = ((i * 31 + j * 17) as f64 * seed).sin();
            }
        }
        m
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_matrix(6, 6, 0.7);
        let i = Matrix::identity(6);
        assert_eq!(dmmul(&a, &i), a);
        assert_eq!(dmmul(&i, &a), a);
    }

    #[test]
    fn parallel_matches_naive_bitwise() {
        let a = test_matrix(40, 40, 0.13);
        let b = test_matrix(40, 40, 0.77);
        let reference = dmmul(&a, &b);
        let inline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(inline.install(|| dmmul_parallel(&a, &b)), reference);
        assert_eq!(dmmul_parallel(&a, &b), reference);
    }

    #[test]
    fn rectangular_shapes() {
        let a = test_matrix(3, 5, 1.1);
        let b = test_matrix(5, 2, 0.4);
        let c = dmmul(&a, &b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        // spot check one entry against a manual dot product
        let mut expect = 0.0;
        for k in 0..5 {
            expect += a[(1, k)] * b[(k, 0)];
        }
        assert!((c[(1, 0)] - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_dims_panic() {
        let a = test_matrix(3, 4, 1.0);
        let b = test_matrix(5, 2, 1.0);
        let _ = dmmul_parallel(&a, &b);
    }
}
