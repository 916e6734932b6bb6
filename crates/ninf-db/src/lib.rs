//! The Ninf numerical database server.
//!
//! Besides computational servers, "the client can make use of various
//! computing library and *database* resources via server processes" (paper
//! §2), through the `Ninf_query` client API (§2.2). This crate provides the
//! database side:
//!
//! * [`store::DataStore`] — named numerical datasets (scalars, vectors,
//!   column-major matrices) with descriptions;
//! * [`query`] — the tiny `Ninf_query` language: `GET name [SUB r0 r1 c0 c1]`,
//!   `LIST [prefix]`, `INFO name`, `DIMS name`;
//! * [`server::DbServer`] — a live TCP server answering
//!   [`ninf_protocol::Message::DbQuery`] on the `ninf-reactor` connection
//!   core (the §5.1 two-phase idea was first deployed for exactly these
//!   database queries); clients ask it through `NinfClient::ninf_query`;
//! * [`builtin_datasets`] — mathematical constants, test matrices, and the
//!   Linpack benchmark generator as a queryable dataset.
//!
//! ```
//! use ninf_db::{builtin_datasets, query::execute};
//!
//! let store = builtin_datasets();
//! let (desc, values) = execute(&store, "GET const/pi").unwrap();
//! assert!(desc.contains("scalar"));
//! # let _ = values;
//! ```

pub mod query;
pub mod server;
pub mod store;

pub use query::execute;
pub use server::DbServer;
pub use store::{DataSet, DataStore};

/// A store pre-loaded with useful numerical data: mathematical constants
/// under `const/`, classic test matrices under `matrix/`.
pub fn builtin_datasets() -> DataStore {
    let mut store = DataStore::new();
    store.insert(DataSet::scalar(
        "const/pi",
        "circle constant pi",
        std::f64::consts::PI,
    ));
    store.insert(DataSet::scalar(
        "const/e",
        "Euler's number",
        std::f64::consts::E,
    ));
    store.insert(DataSet::scalar(
        "const/sqrt2",
        "square root of two",
        std::f64::consts::SQRT_2,
    ));
    store.insert(DataSet::vector(
        "const/powers-of-two",
        "2^0 .. 2^15",
        (0..16).map(|i| (1u32 << i) as f64).collect(),
    ));

    // Hilbert matrices: famously ill-conditioned solve fodder.
    for n in [4usize, 8, 12] {
        let mut data = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                data[j * n + i] = 1.0 / ((i + j + 1) as f64);
            }
        }
        store.insert(DataSet::matrix(
            format!("matrix/hilbert{n}"),
            format!("{n}x{n} Hilbert matrix (ill-conditioned)"),
            n,
            n,
            data,
        ));
    }
    // The Linpack benchmark matrix at a handy size.
    let (a, b) = ninf_exec::matgen(100);
    store.insert(DataSet::matrix(
        "matrix/linpack100",
        "Linpack benchmark matrix, n=100 (matgen)",
        100,
        100,
        a.into_vec(),
    ));
    store.insert(DataSet::vector(
        "matrix/linpack100-rhs",
        "b = A*ones for linpack100",
        b,
    ));
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_store_is_queryable() {
        let store = builtin_datasets();
        assert!(store.get("const/pi").is_some());
        assert!(store.get("matrix/hilbert8").is_some());
        assert!(store.list("const/").len() >= 4);
    }

    #[test]
    fn hilbert_is_symmetric() {
        let store = builtin_datasets();
        let ds = store.get("matrix/hilbert8").unwrap();
        let (r, c) = (ds.rows, ds.cols);
        assert_eq!((r, c), (8, 8));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(ds.data[j * r + i], ds.data[i * r + j]);
            }
        }
    }
}
