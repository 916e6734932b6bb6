//! The `Ninf_query` language and executor.
//!
//! Queries are one-line commands:
//!
//! * `GET <name>` — fetch a dataset (dims as ints, payload as doubles);
//! * `GET <name> SUB <r0> <r1> <c0> <c1>` — fetch a sub-matrix (half-open
//!   ranges), so a client can pull a block without shipping the whole thing;
//! * `INFO <name>` — description and shape only, no payload;
//! * `DIMS <name>` — just the dimensions;
//! * `LIST [prefix]` — dataset names (encoded as a doc string).

use ninf_protocol::Value;

use crate::store::{DataSet, DataStore};

/// Execute a query against a store: `(description, values)` on success, a
/// human-readable error otherwise.
pub fn execute(store: &DataStore, query: &str) -> Result<(String, Vec<Value>), String> {
    let tokens: Vec<&str> = query.split_whitespace().collect();
    match tokens.as_slice() {
        ["GET", name] => {
            let ds = lookup(store, name)?;
            Ok((describe(ds), payload(ds)))
        }
        ["GET", name, "SUB", r0, r1, c0, c1] => {
            let ds = lookup(store, name)?;
            let (r0, r1, c0, c1) = (parse(r0)?, parse(r1)?, parse(c0)?, parse(c1)?);
            let sub = ds.submatrix(r0, r1, c0, c1).ok_or_else(|| {
                format!(
                    "range [{r0}..{r1}, {c0}..{c1}] out of bounds for {}",
                    ds.shape()
                )
            })?;
            Ok((describe(&sub), payload(&sub)))
        }
        ["INFO", name] => {
            let ds = lookup(store, name)?;
            Ok((describe(ds), vec![]))
        }
        ["DIMS", name] => {
            let ds = lookup(store, name)?;
            Ok((
                ds.shape(),
                vec![Value::IntArray(vec![ds.rows as i32, ds.cols as i32])],
            ))
        }
        ["LIST"] => Ok((
            store.list("").join("\n"),
            vec![Value::Int(store.len() as i32)],
        )),
        ["LIST", prefix] => {
            let names = store.list(prefix);
            Ok((names.join("\n"), vec![Value::Int(names.len() as i32)]))
        }
        [] => Err("empty query".into()),
        [verb, ..] => Err(format!(
            "unknown query `{verb}` (expected GET/INFO/DIMS/LIST)"
        )),
    }
}

fn lookup<'a>(store: &'a DataStore, name: &str) -> Result<&'a DataSet, String> {
    store
        .get(name)
        .ok_or_else(|| format!("no dataset `{name}` (try LIST)"))
}

fn parse(tok: &str) -> Result<usize, String> {
    tok.parse()
        .map_err(|_| format!("`{tok}` is not a valid index"))
}

fn describe(ds: &DataSet) -> String {
    format!("{} — {} ({})", ds.name, ds.description, ds.shape())
}

fn payload(ds: &DataSet) -> Vec<Value> {
    vec![
        Value::IntArray(vec![ds.rows as i32, ds.cols as i32]),
        Value::DoubleArray(ds.data.clone()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin_datasets;

    #[test]
    fn get_scalar() {
        let store = builtin_datasets();
        let (desc, values) = execute(&store, "GET const/pi").unwrap();
        assert!(desc.contains("pi"));
        assert_eq!(values[0], Value::IntArray(vec![1, 1]));
        let Value::DoubleArray(d) = &values[1] else {
            panic!()
        };
        assert_eq!(d[0], std::f64::consts::PI);
    }

    #[test]
    fn get_submatrix() {
        let store = builtin_datasets();
        let (_, values) = execute(&store, "GET matrix/hilbert8 SUB 0 2 0 2").unwrap();
        assert_eq!(values[0], Value::IntArray(vec![2, 2]));
        let Value::DoubleArray(d) = &values[1] else {
            panic!()
        };
        // top-left 2x2 of Hilbert: [1, 1/2; 1/2, 1/3] column-major
        assert_eq!(d, &vec![1.0, 0.5, 0.5, 1.0 / 3.0]);
    }

    #[test]
    fn info_has_no_payload() {
        let store = builtin_datasets();
        let (desc, values) = execute(&store, "INFO matrix/hilbert12").unwrap();
        assert!(desc.contains("matrix[12x12]"));
        assert!(values.is_empty());
    }

    #[test]
    fn dims_only() {
        let store = builtin_datasets();
        let (_, values) = execute(&store, "DIMS matrix/linpack100").unwrap();
        assert_eq!(values[0], Value::IntArray(vec![100, 100]));
    }

    #[test]
    fn list_with_prefix() {
        let store = builtin_datasets();
        let (names, count) = execute(&store, "LIST matrix/").unwrap();
        assert!(names.contains("matrix/hilbert4"));
        assert!(!names.contains("const/pi"));
        let Value::Int(n) = count[0] else { panic!() };
        assert!(n >= 4);
    }

    #[test]
    fn errors_are_helpful() {
        let store = builtin_datasets();
        assert!(execute(&store, "GET nope").unwrap_err().contains("LIST"));
        assert!(execute(&store, "FROB x")
            .unwrap_err()
            .contains("unknown query"));
        assert!(execute(&store, "").unwrap_err().contains("empty"));
        assert!(execute(&store, "GET matrix/hilbert4 SUB 0 9 0 9")
            .unwrap_err()
            .contains("out of bounds"));
        assert!(execute(&store, "GET matrix/hilbert4 SUB a b c d")
            .unwrap_err()
            .contains("not a valid"));
    }
}
