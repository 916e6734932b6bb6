//! Built-in Ninf executables: the paper's workloads bound to the real
//! kernels of `ninf-exec`.

use std::sync::Arc;

use ninf_exec::{ep_kernel_parallel, Matrix};
use ninf_protocol::Value;

use crate::registry::{Handler, Registry};

/// Register every stdlib routine on `registry`.
///
/// `data_parallel` selects the library flavour for the LU-based routines:
/// `true` uses the rayon-parallel blocked factorization (the paper's 4-PE
/// libSci analogue), `false` the plain unblocked routines (1-PE task-parallel
/// flavour). EP always partitions its stream across rayon workers.
pub fn register_stdlib(registry: &mut Registry, data_parallel: bool) {
    let sources = ninf_idl::stdlib();
    registry
        .register(sources[0], dmmul_handler(data_parallel))
        .expect("dmmul IDL");
    registry
        .register(sources[1], dgefa_handler(data_parallel))
        .expect("dgefa IDL");
    registry
        .register(sources[2], dgesl_handler())
        .expect("dgesl IDL");
    registry
        .register(sources[3], linpack_handler(data_parallel))
        .expect("linpack IDL");
    registry.register(sources[4], ep_handler()).expect("ep IDL");
    registry
        .register(sources[5], dos_handler())
        .expect("dos IDL");
    registry
        .register(sources[6], dgeco_handler())
        .expect("dgeco IDL");
    registry
        .register(sources[7], nbody_handler())
        .expect("nbody IDL");
}

fn get_int(v: &Value, what: &str) -> Result<usize, String> {
    match v.as_scalar_i64() {
        Some(x) if x >= 0 => Ok(x as usize),
        _ => Err(format!("{what} must be a non-negative integer scalar")),
    }
}

fn get_doubles<'a>(v: &'a Value, what: &str) -> Result<&'a [f64], String> {
    match v {
        Value::DoubleArray(d) => Ok(d),
        _ => Err(format!("{what} must be a double array")),
    }
}

fn get_ints<'a>(v: &'a Value, what: &str) -> Result<&'a [i32], String> {
    match v {
        Value::IntArray(d) => Ok(d),
        _ => Err(format!("{what} must be an int array")),
    }
}

/// `dmmul(n, A, B) -> C` (matrix product, §2's running example).
pub fn dmmul_handler(parallel: bool) -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let a = Matrix::from_col_major(n, n, get_doubles(args[1], "A")?.to_vec());
        let b = Matrix::from_col_major(n, n, get_doubles(args[2], "B")?.to_vec());
        let c = if parallel {
            ninf_exec::dmmul_parallel(&a, &b)
        } else {
            ninf_exec::dmmul(&a, &b)
        };
        Ok(vec![Value::DoubleArray(c.into_vec())])
    })
}

/// `dgefa(n, A inout) -> (A, ipvt, info)` — LU factorization.
pub fn dgefa_handler(parallel: bool) -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let mut a = Matrix::from_col_major(n, n, get_doubles(args[1], "A")?.to_vec());
        let outcome = if parallel {
            ninf_exec::dgefa_blocked_parallel(&mut a, 0)
        } else {
            ninf_exec::dgefa(&mut a)
        };
        match outcome {
            Ok(ipvt) => Ok(vec![
                Value::DoubleArray(a.into_vec()),
                Value::IntArray(ipvt.into_iter().map(|p| p as i32).collect()),
                Value::IntArray(vec![0]),
            ]),
            Err(sing) => Ok(vec![
                Value::DoubleArray(a.into_vec()),
                Value::IntArray(vec![0; n]),
                // Linpack info convention: 1-based column of the zero pivot.
                Value::IntArray(vec![sing.column as i32 + 1]),
            ]),
        }
    })
}

/// `dgesl(n, A, ipvt, b inout) -> b` — solve with existing factors. `A`
/// is only read, so the solve runs on the argument itself (for a ref'd
/// matrix, the arg store's copy); only `b` is copied.
pub fn dgesl_handler() -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let a = get_doubles(args[1], "A")?;
        let ipvt: Vec<usize> = get_ints(args[2], "ipvt")?
            .iter()
            .map(|&p| usize::try_from(p).unwrap_or(usize::MAX))
            .collect();
        let mut b = get_doubles(args[3], "b")?.to_vec();
        ninf_exec::dgesl_cols(a, n, &ipvt, &mut b).map_err(|e| format!("dgesl: {e}"))?;
        Ok(vec![Value::DoubleArray(b)])
    })
}

/// `linpack(n, A, b) -> (x, ipvt)` — one benchmark `Ninf_call` (factor +
/// solve).
pub fn linpack_handler(parallel: bool) -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let mut a = Matrix::from_col_major(n, n, get_doubles(args[1], "A")?.to_vec());
        let mut b = get_doubles(args[2], "b")?.to_vec();
        let ipvt = if parallel {
            ninf_exec::dgefa_blocked_parallel(&mut a, 0).map_err(|e| e.to_string())?
        } else {
            ninf_exec::dgefa(&mut a).map_err(|e| e.to_string())?
        };
        ninf_exec::dgesl(&a, &ipvt, &mut b);
        Ok(vec![
            Value::DoubleArray(b),
            Value::IntArray(ipvt.into_iter().map(|p| p as i32).collect()),
        ])
    })
}

/// `ep(m) -> (sums[2], counts[10])` — NAS EP, `2^m` pair trials.
pub fn ep_handler() -> Handler {
    Arc::new(move |args: &[&Value]| {
        let m = get_int(args[0], "m")?;
        if m > 36 {
            return Err("ep: m > 36 would run for days".into());
        }
        let r = ep_kernel_parallel(m as u32, rayon::current_num_threads());
        Ok(vec![
            Value::DoubleArray(vec![r.sx, r.sy]),
            Value::DoubleArray(r.counts.iter().map(|&c| c as f64).collect()),
        ])
    })
}

/// `dgeco(n, A inout) -> (A, ipvt, rcond)` — factor + condition estimate.
pub fn dgeco_handler() -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let mut a = Matrix::from_col_major(n, n, get_doubles(args[1], "A")?.to_vec());
        match ninf_exec::dgeco(&mut a) {
            Ok((ipvt, rcond)) => Ok(vec![
                Value::DoubleArray(a.into_vec()),
                Value::IntArray(ipvt.into_iter().map(|p| p as i32).collect()),
                Value::DoubleArray(vec![rcond]),
            ]),
            Err(sing) => Err(sing.to_string()),
        }
    })
}

/// `nbody(n, step, masses, pos) -> diag[5]` — softened direct-summation
/// gravity of `n` fixed sources at the step's probe grid (the iterative
/// argument-cache workload: big unchanged inputs, O(1) output).
pub fn nbody_handler() -> Handler {
    Arc::new(move |args: &[&Value]| {
        let n = get_int(args[0], "n")?;
        let step = get_int(args[1], "step")?;
        let masses = get_doubles(args[2], "masses")?;
        let pos = get_doubles(args[3], "pos")?;
        if masses.len() != n || pos.len() != 3 * n {
            return Err("nbody: masses/pos length mismatch".into());
        }
        let diag = ninf_exec::nbody_kernel(masses, pos, step as u32);
        Ok(vec![Value::DoubleArray(diag.to_vec())])
    })
}

/// `dos(m, bins) -> hist[bins]` — density-of-states Monte-Carlo.
pub fn dos_handler() -> Handler {
    Arc::new(move |args: &[&Value]| {
        let m = get_int(args[0], "m")?;
        let bins = get_int(args[1], "bins")?;
        if m > 36 {
            return Err("dos: m > 36 would run for days".into());
        }
        if bins == 0 {
            return Err("dos: bins must be positive".into());
        }
        let r = ninf_exec::dos_histogram(m as u32, 8, bins);
        Ok(vec![Value::DoubleArray(
            r.histogram.iter().map(|&c| c as f64).collect(),
        )])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::validate_call_args;

    /// A handler's borrowed view of owned test arguments.
    fn refs(args: &[Value]) -> Vec<&Value> {
        args.iter().collect()
    }

    fn full_registry() -> Registry {
        let mut r = Registry::new();
        register_stdlib(&mut r, false);
        r
    }

    #[test]
    fn all_six_registered() {
        let r = full_registry();
        assert_eq!(
            r.names(),
            vec!["dgeco", "dgefa", "dgesl", "dmmul", "dos", "ep", "linpack", "nbody"]
        );
    }

    #[test]
    fn nbody_matches_local_kernel() {
        let r = full_registry();
        let exe = r.lookup("nbody").unwrap();
        let n = 64usize;
        let (masses, pos) = ninf_exec::nbody_particles(n);
        let args = vec![
            Value::Int(n as i32),
            Value::Int(3),
            Value::DoubleArray(masses.clone()),
            Value::DoubleArray(pos.clone()),
        ];
        validate_call_args(&exe.interface, &args).unwrap();
        let out = (exe.handler)(&refs(&args)).unwrap();
        let expected = ninf_exec::nbody_kernel(&masses, &pos, 3).to_vec();
        assert_eq!(out, vec![Value::DoubleArray(expected)]);
    }

    #[test]
    fn dmmul_multiplies() {
        let r = full_registry();
        let exe = r.lookup("dmmul").unwrap();
        // 2x2 identity times X = X (column-major).
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let args = vec![
            Value::Int(2),
            Value::DoubleArray(vec![1.0, 0.0, 0.0, 1.0]),
            Value::DoubleArray(x.clone()),
        ];
        validate_call_args(&exe.interface, &args).unwrap();
        let out = (exe.handler)(&refs(&args)).unwrap();
        assert_eq!(out, vec![Value::DoubleArray(x)]);
    }

    #[test]
    fn linpack_solves_benchmark_matrix() {
        let r = full_registry();
        let exe = r.lookup("linpack").unwrap();
        let n = 30usize;
        let (a, b) = ninf_exec::matgen(n);
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(a.as_slice().to_vec()),
            Value::DoubleArray(b),
        ];
        validate_call_args(&exe.interface, &args).unwrap();
        let out = (exe.handler)(&refs(&args)).unwrap();
        let Value::DoubleArray(x) = &out[0] else {
            panic!("expected x")
        };
        for xi in x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn dgefa_then_dgesl_round_trip() {
        let r = full_registry();
        let n = 16usize;
        let (a, b) = ninf_exec::matgen(n);
        let fa = (r.lookup("dgefa").unwrap().handler)(&refs(&[
            Value::Int(n as i32),
            Value::DoubleArray(a.as_slice().to_vec()),
        ]))
        .unwrap();
        let Value::IntArray(info) = &fa[2] else {
            panic!()
        };
        assert_eq!(info[0], 0, "benchmark matrix must be non-singular");
        let sl = (r.lookup("dgesl").unwrap().handler)(&refs(&[
            Value::Int(n as i32),
            fa[0].clone(),
            fa[1].clone(),
            Value::DoubleArray(b),
        ]))
        .unwrap();
        let Value::DoubleArray(x) = &sl[0] else {
            panic!()
        };
        for xi in x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn dgesl_with_a_misfit_matrix_is_an_error_not_a_panic() {
        let r = full_registry();
        let n = 8usize;
        let (mut a, b) = ninf_exec::matgen(n);
        let ipvt: Vec<i32> = ninf_exec::dgefa(&mut a)
            .unwrap()
            .into_iter()
            .map(|p| p as i32)
            .collect();
        let dgesl = &r.lookup("dgesl").unwrap().handler;
        let call = |a: &[f64], ipvt: &[i32]| {
            dgesl(&refs(&[
                Value::Int(n as i32),
                Value::DoubleArray(a.to_vec()),
                Value::IntArray(ipvt.to_vec()),
                Value::DoubleArray(b.clone()),
            ]))
        };
        assert!(call(a.as_slice(), &ipvt).is_ok());
        let err = call(&a.as_slice()[..n * n - 1], &ipvt).unwrap_err();
        assert!(err.contains("A has 63 elements"), "{err}");
        assert!(call(&[a.as_slice(), &[0.0]].concat(), &ipvt).is_err());
        let mut wild = ipvt.clone();
        wild[2] = -1;
        assert!(call(a.as_slice(), &wild).unwrap_err().contains("ipvt[2]"));
    }

    #[test]
    fn dgefa_reports_singularity_via_info() {
        let r = full_registry();
        let out = (r.lookup("dgefa").unwrap().handler)(&refs(&[
            Value::Int(2),
            Value::DoubleArray(vec![1.0, 2.0, 2.0, 4.0]), // rank 1
        ]))
        .unwrap();
        let Value::IntArray(info) = &out[2] else {
            panic!()
        };
        assert_ne!(info[0], 0);
    }

    #[test]
    fn ep_returns_sane_counts() {
        let r = full_registry();
        let out = (r.lookup("ep").unwrap().handler)(&refs(&[Value::Int(12)])).unwrap();
        let Value::DoubleArray(counts) = &out[1] else {
            panic!()
        };
        let total: f64 = counts.iter().sum();
        let rate = total / 4096.0;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.05);
    }

    #[test]
    fn ep_rejects_absurd_sizes() {
        let r = full_registry();
        assert!((r.lookup("ep").unwrap().handler)(&refs(&[Value::Int(60)])).is_err());
    }

    #[test]
    fn dos_histogram_sums_to_samples() {
        let r = full_registry();
        let out =
            (r.lookup("dos").unwrap().handler)(&refs(&[Value::Int(10), Value::Int(16)])).unwrap();
        let Value::DoubleArray(hist) = &out[0] else {
            panic!()
        };
        assert_eq!(hist.len(), 16);
        assert_eq!(hist.iter().sum::<f64>(), 1024.0);
    }

    #[test]
    fn dgeco_flags_ill_conditioning_remotely() {
        let r = full_registry();
        let n = 8usize;
        // Hilbert 8: terribly conditioned.
        let mut h = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                h[j * n + i] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let out = (r.lookup("dgeco").unwrap().handler)(&refs(&[
            Value::Int(n as i32),
            Value::DoubleArray(h),
        ]))
        .unwrap();
        let Value::DoubleArray(rcond) = &out[2] else {
            panic!()
        };
        assert!(rcond[0] < 1e-8, "rcond = {}", rcond[0]);

        // Identity: perfectly conditioned.
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let out = (r.lookup("dgeco").unwrap().handler)(&refs(&[
            Value::Int(n as i32),
            Value::DoubleArray(eye),
        ]))
        .unwrap();
        let Value::DoubleArray(rcond) = &out[2] else {
            panic!()
        };
        assert!((rcond[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_flavour_gives_same_linpack_answer() {
        let mut r1 = Registry::new();
        register_stdlib(&mut r1, false);
        let mut r2 = Registry::new();
        register_stdlib(&mut r2, true);
        let n = 24usize;
        let (a, b) = ninf_exec::matgen(n);
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(a.as_slice().to_vec()),
            Value::DoubleArray(b),
        ];
        let o1 = (r1.lookup("linpack").unwrap().handler)(&refs(&args)).unwrap();
        let o2 = (r2.lookup("linpack").unwrap().handler)(&refs(&args)).unwrap();
        assert_eq!(o1, o2, "blocked-parallel LU must match unblocked bitwise");
    }
}
