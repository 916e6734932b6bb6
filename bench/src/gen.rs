//! Seeded inputs, the in-place salt stream, and the local reference kernels
//! outputs are checked against. Everything here is a pure function of the
//! seed: the program under test only ever sees the generated values.

use ninf_exec::Matrix;
use ninf_protocol::Value;

use crate::spec::Workload;

/// Element overwritten by a salt: row 1 of column 0, off the diagonal, so a
/// factored matrix keeps finite pivots and a vector keeps its length.
pub const SALT_INDEX: usize = 1;

/// SplitMix64, the repo's seeded-stream idiom (`CallOptions::backoff_delay`).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (-0.5, 0.5), never exactly zero.
    pub fn next_salt(&mut self) -> f64 {
        let unit = ((self.next_u64() >> 11) | 1) as f64 * (1.0 / (1u64 << 53) as f64);
        unit - 0.5
    }
}

/// The salt stream of one client: call `k` of client `c` under `seed` always
/// draws the same values.
pub fn salter(seed: u64, client: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Overwrite [`SALT_INDEX`] of every salted position with `salts`.
pub fn apply_salts(args: &mut [Value], positions: &[usize], salts: &[f64]) {
    for (&pos, &salt) in positions.iter().zip(salts) {
        match &mut args[pos] {
            Value::DoubleArray(v) => v[SALT_INDEX] = salt,
            other => panic!("salted position {pos} is not a double array: {other:?}"),
        }
    }
}

/// The unsalted arguments of `w` under `seed`, shared by every client.
pub fn base_args(w: &Workload, seed: u64) -> Vec<Value> {
    let n = w.n;
    match w.routine {
        "dmmul" => {
            let (a, _) = ninf_exec::random_matrix(n, seed);
            let (b, _) = ninf_exec::random_matrix(n, seed.wrapping_add(1));
            vec![
                Value::Int(n as i32),
                Value::DoubleArray(a.into_vec()),
                Value::DoubleArray(b.into_vec()),
            ]
        }
        "linpack" => {
            let (a, b) = ninf_exec::random_matrix(n, seed);
            vec![
                Value::Int(n as i32),
                Value::DoubleArray(a.into_vec()),
                Value::DoubleArray(b),
            ]
        }
        "dgesl" => {
            let (mut a, b) = ninf_exec::random_matrix(n, seed);
            let ipvt = ninf_exec::dgefa_blocked_parallel(&mut a, 0)
                .expect("a seeded random matrix is non-singular");
            vec![
                Value::Int(n as i32),
                Value::DoubleArray(a.into_vec()),
                Value::IntArray(ipvt.into_iter().map(|p| p as i32).collect()),
                Value::DoubleArray(b),
            ]
        }
        other => panic!("no input generator for routine `{other}`"),
    }
}

fn doubles(v: &Value) -> &[f64] {
    match v {
        Value::DoubleArray(d) => d,
        other => panic!("expected a double array, got {other:?}"),
    }
}

/// What the server's stdlib handler computes for `args`, from `ninf-exec`
/// directly. `time` wraps exactly the kernel call (copies made to satisfy
/// the kernel's signature stay outside it), so the replay can time the
/// kernel alone while verification ignores the timer.
pub fn local_kernel(
    routine: &str,
    args: &[Value],
    time: &mut dyn FnMut(&mut dyn FnMut()),
) -> Vec<Value> {
    let n = args[0]
        .as_scalar_i64()
        .expect("first argument is the integer size") as usize;
    match routine {
        "dmmul" => {
            let a = Matrix::from_col_major(n, n, doubles(&args[1]).to_vec());
            let b = Matrix::from_col_major(n, n, doubles(&args[2]).to_vec());
            let mut c = None;
            time(&mut || c = Some(ninf_exec::dmmul(&a, &b)));
            vec![Value::DoubleArray(c.expect("kernel ran").into_vec())]
        }
        "dgesl" => {
            let a = Matrix::from_col_major(n, n, doubles(&args[1]).to_vec());
            let ipvt: Vec<usize> = match &args[2] {
                Value::IntArray(p) => p.iter().map(|&p| p as usize).collect(),
                other => panic!("ipvt must be an int array, got {other:?}"),
            };
            let mut b = doubles(&args[3]).to_vec();
            time(&mut || ninf_exec::dgesl(&a, &ipvt, &mut b));
            vec![Value::DoubleArray(b)]
        }
        "linpack" => {
            let mut a = Matrix::from_col_major(n, n, doubles(&args[1]).to_vec());
            let mut b = doubles(&args[2]).to_vec();
            let mut ipvt = Vec::new();
            time(&mut || {
                ipvt = ninf_exec::dgefa(&mut a).expect("salted random matrix stays non-singular");
                ninf_exec::dgesl(&a, &ipvt, &mut b);
            });
            vec![
                Value::DoubleArray(b),
                Value::IntArray(ipvt.into_iter().map(|p| p as i32).collect()),
            ]
        }
        other => panic!("no reference kernel for routine `{other}`"),
    }
}

/// [`local_kernel`] without a timer.
pub fn reference(routine: &str, args: &[Value]) -> Vec<Value> {
    local_kernel(routine, args, &mut |run| run())
}

/// Floating-point operations of one call.
pub fn flops(routine: &str, n: usize) -> f64 {
    match routine {
        "linpack" => ninf_exec::linpack_flops(n as u64) as f64,
        "dmmul" => 2.0 * (n * n * n) as f64,
        "dgesl" => 2.0 * (n * n) as f64,
        _ => 0.0,
    }
}

/// Bit-for-bit equality: `==` on `f64` would accept `-0.0 == 0.0` and
/// reject an (equal) NaN.
pub fn bits_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::DoubleArray(x), Value::DoubleArray(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (x, y) => x == y,
        })
}

/// Array bytes handed to plus returned by one `ninf_call` (scalars travel
/// in the header and are not counted — the paper's `T_comm` convention).
pub fn payload_bytes(args: &[Value], results: &[Value]) -> usize {
    args.iter()
        .chain(results)
        .filter(|v| !v.is_scalar())
        .map(Value::wire_bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_salts() {
        for w in WORKLOADS.iter().filter(|w| w.n <= 600) {
            assert!(bits_equal(&base_args(w, 7), &base_args(w, 7)), "{}", w.name);
            assert!(
                !bits_equal(&base_args(w, 7), &base_args(w, 8)),
                "{}",
                w.name
            );
        }
        let draw = |seed, client| {
            let mut s = salter(seed, client);
            (0..64).map(|_| s.next_salt().to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
        let mut s = salter(7, 0);
        assert!((0..10_000).all(|_| {
            let v = s.next_salt();
            v != 0.0 && v.abs() < 0.5
        }));
    }

    #[test]
    fn salts_land_in_place_and_change_the_result() {
        let w = crate::spec::workload("wan-bulk").unwrap();
        let mut args = base_args(w, 3);
        let before = reference(w.routine, &args);
        apply_salts(&mut args, w.salted, &[0.25, -0.125]);
        assert_eq!(doubles(&args[1])[SALT_INDEX], 0.25);
        assert_eq!(doubles(&args[2])[SALT_INDEX], -0.125);
        let after = reference(w.routine, &args);
        assert!(!bits_equal(&before, &after));
        assert!(bits_equal(&after, &reference(w.routine, &args)));
    }

    #[test]
    fn bits_equal_is_stricter_than_eq() {
        let pos = [Value::DoubleArray(vec![0.0])];
        let neg = [Value::DoubleArray(vec![-0.0])];
        assert_eq!(pos, neg);
        assert!(!bits_equal(&pos, &neg));
        let nan = [Value::DoubleArray(vec![f64::NAN])];
        assert!(bits_equal(&nan, &nan));
    }
}
