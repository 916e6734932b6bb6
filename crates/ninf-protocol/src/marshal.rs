//! Layout-directed argument validation — the client-side "interpretation" of
//! the compiled IDL, and the server-side defensive re-check. Both sides run
//! this one checker, so a call is refused for the same reason wherever it
//! is refused.
//!
//! `Ninf_call` "interprets the IDL code and marshalls the arguments" (§2.3):
//! scalar integer inputs bind the dimension variables, the size programs
//! yield each array's extent, and every supplied array must match exactly.

use std::borrow::Borrow;

use ninf_idl::compile::ParamLayout;
use ninf_idl::CompiledInterface;

use crate::value::Value;

/// Validate `args` — the `mode_in`/`mode_inout` values in declaration order,
/// owned (the client's) or borrowed (the server's) — against `interface`,
/// returning the resolved layout of *all* parameters.
pub fn validate_call_args<V: Borrow<Value>>(
    interface: &CompiledInterface,
    args: &[V],
) -> Result<Vec<ParamLayout>, String> {
    let send_params: Vec<_> = interface.params.iter().filter(|p| p.mode.sends()).collect();
    if send_params.len() != args.len() {
        return Err(format!(
            "{} takes {} input arguments, got {}",
            interface.name,
            send_params.len(),
            args.len()
        ));
    }
    // Bind scalar integer inputs to the interface's dimension variables.
    let mut scalars: Vec<(&str, i64)> = Vec::new();
    for (p, v) in send_params.iter().zip(args) {
        if p.is_scalar() && interface.scalar_table.iter().any(|s| s == &p.name) {
            match v.borrow().as_scalar_i64() {
                Some(x) => scalars.push((p.name.as_str(), x)),
                None => {
                    return Err(format!(
                        "scalar `{}` must be an integer to size dependent arrays",
                        p.name
                    ))
                }
            }
        }
    }
    let layout = interface.layout(&scalars).map_err(|e| e.to_string())?;

    let send_layout: Vec<_> = layout.iter().filter(|l| l.mode.sends()).collect();
    for ((l, v), p) in send_layout.iter().zip(args).zip(&send_params) {
        v.borrow()
            .conforms(l.base, l.count, p.is_scalar())
            .map_err(|e| e.to_string())?;
    }
    Ok(layout)
}

/// Validate server results against the layout the client computed: the
/// `mode_out`/`mode_inout` values in declaration order.
pub fn validate_results(
    interface: &CompiledInterface,
    layout: &[ParamLayout],
    results: &[Value],
) -> Result<(), String> {
    let recv: Vec<_> = interface
        .params
        .iter()
        .zip(layout)
        .filter(|(p, _)| p.mode.receives())
        .collect();
    if recv.len() != results.len() {
        return Err(format!(
            "{} returns {} values, server sent {}",
            interface.name,
            recv.len(),
            results.len()
        ));
    }
    for ((p, l), v) in recv.iter().zip(results) {
        v.conforms(l.base, l.count, p.is_scalar())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Array payload bytes of the request (client → server), per the layout.
pub fn request_payload_bytes(layout: &[ParamLayout]) -> usize {
    layout
        .iter()
        .filter(|l| l.mode.sends() && l.count > 1)
        .map(|l| l.bytes)
        .sum()
}

/// Array payload bytes of the reply (server → client), per the layout.
pub fn reply_payload_bytes(layout: &[ParamLayout]) -> usize {
    layout
        .iter()
        .filter(|l| l.mode.receives() && l.count > 1)
        .map(|l| l.bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linpack_iface() -> CompiledInterface {
        ninf_idl::stdlib_interfaces().remove(3)
    }

    #[test]
    fn accepts_well_formed_linpack_call() {
        let iface = linpack_iface();
        let n = 10usize;
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(vec![0.0; n * n]),
            Value::DoubleArray(vec![0.0; n]),
        ];
        let layout = validate_call_args(&iface, &args).unwrap();
        assert_eq!(layout.len(), 5);
        // x out (8n) + ipvt out (4n)
        assert_eq!(reply_payload_bytes(&layout), 12 * n);
        assert_eq!(request_payload_bytes(&layout), 8 * n * n + 8 * n);
    }

    #[test]
    fn rejects_arity_mismatch() {
        let iface = linpack_iface();
        assert!(validate_call_args(&iface, &[Value::Int(4)]).is_err());
    }

    #[test]
    fn rejects_extent_mismatch() {
        let iface = linpack_iface();
        let args = vec![
            Value::Int(4),
            Value::DoubleArray(vec![0.0; 15]),
            Value::DoubleArray(vec![0.0; 4]),
        ];
        assert!(validate_call_args(&iface, &args).is_err());
    }

    #[test]
    fn rejects_non_integer_dimension_scalar() {
        let iface = linpack_iface();
        let args = vec![
            Value::Double(4.0),
            Value::DoubleArray(vec![0.0; 16]),
            Value::DoubleArray(vec![0.0; 4]),
        ];
        assert!(validate_call_args(&iface, &args).is_err());
    }

    #[test]
    fn validates_results_shape() {
        let iface = linpack_iface();
        let n = 4usize;
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(vec![0.0; n * n]),
            Value::DoubleArray(vec![0.0; n]),
        ];
        let layout = validate_call_args(&iface, &args).unwrap();
        let good = vec![
            Value::DoubleArray(vec![0.0; n]),
            Value::IntArray(vec![0; n]),
        ];
        assert!(validate_results(&iface, &layout, &good).is_ok());
        let short = vec![Value::DoubleArray(vec![0.0; n])];
        assert!(validate_results(&iface, &layout, &short).is_err());
        let wrong = vec![
            Value::DoubleArray(vec![0.0; n + 1]),
            Value::IntArray(vec![0; n]),
        ];
        assert!(validate_results(&iface, &layout, &wrong).is_err());
    }
}
