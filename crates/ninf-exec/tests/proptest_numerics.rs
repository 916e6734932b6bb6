//! Property tests on the numerical kernels: LU correctness on random
//! well-conditioned systems, each server kernel bitwise equal to its
//! reference on one thread and on the default budget, EP stream
//! partitioning.

use ninf_exec::{
    dgefa, dgefa_blocked_parallel, dgesl, dmmul, dmmul_parallel, ep_segment, residual_check,
    Matrix, NasRng,
};
use proptest::prelude::*;

/// Run `op` on a one-thread rayon budget: the inline path a 1-PE call takes.
fn inline<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(op)
}

/// Random diagonally-dominant matrix (guaranteed non-singular) plus a
/// random solution vector.
fn arb_system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(move |(entries, x)| {
                let mut a = Matrix::from_col_major(n, n, entries);
                // Make strictly diagonally dominant.
                for i in 0..n {
                    let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
                    a[(i, i)] = row_sum + 1.0;
                }
                (a, x)
            })
    })
}

proptest! {
    /// Solving A·x = b with the factored routines recovers x.
    #[test]
    fn lu_solve_recovers_solution((a, x_true) in arb_system()) {
        let b = a.matvec(&x_true);
        let mut fact = a.clone();
        let ipvt = dgefa(&mut fact).unwrap();
        let mut x = b.clone();
        dgesl(&fact, &ipvt, &mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6 * (1.0 + ti.abs()), "{} vs {}", xi, ti);
        }
        prop_assert!(residual_check(&a, &x, &b) < 100.0);
    }

    /// The blocked factorization is bitwise equal to unblocked on arbitrary
    /// (well-conditioned) matrices, for arbitrary block sizes, inline and on
    /// the default budget.
    #[test]
    fn blocked_variants_bitwise_equal((a, _) in arb_system(), nb in 1usize..48) {
        let mut reference = a.clone();
        let ip_ref = dgefa(&mut reference).unwrap();

        let mut blocked = a.clone();
        let ip_blk = inline(|| dgefa_blocked_parallel(&mut blocked, nb)).unwrap();
        prop_assert_eq!(&ip_blk, &ip_ref);
        prop_assert_eq!(blocked.as_slice(), reference.as_slice());

        let mut parallel = a.clone();
        let ip_par = dgefa_blocked_parallel(&mut parallel, nb).unwrap();
        prop_assert_eq!(&ip_par, &ip_ref);
        prop_assert_eq!(parallel.as_slice(), reference.as_slice());
    }

    /// The server's multiply agrees bitwise with the reference, inline and
    /// on the default budget.
    #[test]
    fn matmul_kernels_agree(n in 1usize..24, seed in any::<u32>()) {
        let mut g = NasRng::new(seed as u64 | 1);
        let mut fill = |rows: usize, cols: usize| {
            let data: Vec<f64> = (0..rows * cols).map(|_| 2.0 * g.next_f64() - 1.0).collect();
            Matrix::from_col_major(rows, cols, data)
        };
        let a = fill(n, n);
        let b = fill(n, n);
        let reference = dmmul(&a, &b);
        prop_assert_eq!(&inline(|| dmmul_parallel(&a, &b)), &reference);
        prop_assert_eq!(&dmmul_parallel(&a, &b), &reference);
    }

    /// EP stream partitioning: any split of [0, total) into segments merges
    /// to the same counts as the whole run.
    #[test]
    fn ep_partitioning_is_exact(total in 64u64..2048, cut in 1u64..63) {
        let cut = (cut * total / 64).clamp(1, total - 1);
        let whole = ep_segment(NasRng::default(), 0, total, total);
        let first = ep_segment(NasRng::default(), 0, cut, total);
        let second = ep_segment(NasRng::default(), cut, total - cut, total);
        let merged = first.merge(&second);
        prop_assert_eq!(merged.counts, whole.counts);
        prop_assert_eq!(merged.accepted, whole.accepted);
        prop_assert!((merged.sx - whole.sx).abs() < 1e-9);
        prop_assert!((merged.sy - whole.sy).abs() < 1e-9);
    }

    /// Skip-ahead agrees with sequential stepping at arbitrary offsets.
    #[test]
    fn rng_skip_consistency(k in 0u64..10_000) {
        let mut stepped = NasRng::default();
        for _ in 0..k {
            stepped.next_raw();
        }
        prop_assert_eq!(NasRng::default().at_offset(k).state(), stepped.state());
    }
}
