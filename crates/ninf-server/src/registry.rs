//! The Ninf executable registry.
//!
//! Registration takes an IDL `Define` plus a handler closure — the moral
//! equivalent of the paper's stub generator binding a library symbol to the
//! RPC layer ("Binaries of computing libraries and applications are
//! registered on the server process as Ninf executables, which can be
//! semi-automatically generated with IDL descriptions", §2.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use ninf_idl::{CompiledInterface, IdlError, Mode};
use ninf_protocol::Value;

/// A handler receives the `mode_in`/`mode_inout` values (declaration order)
/// and returns the `mode_out`/`mode_inout` values (declaration order), or a
/// human-readable error shipped back to the client.
///
/// Inputs are borrowed: an argument the arg store resolved is the stored
/// value itself, shared with the store and any other call using it, so a
/// handler copies only what it must modify.
pub type Handler = Arc<dyn Fn(&[&Value]) -> Result<Vec<Value>, String> + Send + Sync>;

/// One registered routine.
#[derive(Clone)]
pub struct NinfExecutable {
    /// Compiled interface shipped to clients in RPC stage 1.
    pub interface: CompiledInterface,
    /// The computation.
    pub handler: Handler,
}

impl std::fmt::Debug for NinfExecutable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NinfExecutable")
            .field("interface", &self.interface.name)
            .finish()
    }
}

/// Name → executable map.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    entries: BTreeMap<String, NinfExecutable>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse `idl_src`, compile it, and register `handler` under the
    /// `Define`d name. Re-registering a name replaces the previous entry
    /// (mirroring server-side library upgrades).
    pub fn register(&mut self, idl_src: &str, handler: Handler) -> Result<(), IdlError> {
        let def = ninf_idl::parse_one(idl_src)?;
        let interface = CompiledInterface::compile(&def)?;
        self.entries
            .insert(def.name.clone(), NinfExecutable { interface, handler });
        Ok(())
    }

    /// Register an already-compiled interface.
    pub fn register_compiled(&mut self, interface: CompiledInterface, handler: Handler) {
        self.entries.insert(
            interface.name.clone(),
            NinfExecutable { interface, handler },
        );
    }

    /// Find an executable by routine name. Accepts bare names and
    /// `ninf://host/name` URLs (the paper's `Ninf_call("http://.../dmmul")`
    /// form) by taking the final path segment.
    pub fn lookup(&self, routine: &str) -> Option<&NinfExecutable> {
        let name = routine.rsplit('/').next().unwrap_or(routine);
        self.entries.get(name)
    }

    /// Registered routine names in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered executables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Validate `args` (the client's `mode_in`/`mode_inout` values) against the
/// interface and return the resolved per-parameter layout.
///
/// Scalar integer inputs are bound to the IDL dimension variables; every
/// array argument must then match its computed extent exactly.
pub fn validate_invoke(
    interface: &CompiledInterface,
    args: &[&Value],
) -> Result<Vec<ninf_idl::compile::ParamLayout>, String> {
    // Bind scalar inputs by walking sends() params against args.
    let send_params: Vec<_> = interface.params.iter().filter(|p| p.mode.sends()).collect();
    if send_params.len() != args.len() {
        return Err(format!(
            "{} takes {} input arguments, got {}",
            interface.name,
            send_params.len(),
            args.len()
        ));
    }
    let mut scalars: Vec<(&str, i64)> = Vec::new();
    for (p, v) in send_params.iter().zip(args) {
        if p.is_scalar() {
            let Some(x) = v.as_scalar_i64() else {
                if !matches!(p.mode, Mode::In | Mode::InOut) {
                    continue;
                }
                // Non-integer scalars are legal arguments but cannot size arrays.
                continue;
            };
            if interface.scalar_table.iter().any(|s| s == &p.name) {
                scalars.push((p.name.as_str(), x));
            }
        }
    }
    let layout = interface.layout(&scalars).map_err(|e| e.to_string())?;

    // Validate each input value against its layout slot.
    let send_layout: Vec<_> = layout.iter().filter(|l| l.mode.sends()).collect();
    for ((l, v), p) in send_layout.iter().zip(args).zip(&send_params) {
        v.conforms(l.base, l.count, p.is_scalar())
            .map_err(|e| e.to_string())?;
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_handler() -> Handler {
        Arc::new(|args: &[&Value]| Ok(args.iter().map(|&v| v.clone()).collect()))
    }

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        r.register(ninf_idl::stdlib()[0], echo_handler()).unwrap();
        assert!(r.lookup("dmmul").is_some());
        assert!(r.lookup("nope").is_none());
        assert_eq!(r.names(), vec!["dmmul"]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn url_form_resolves_to_name() {
        let mut r = Registry::new();
        r.register(ninf_idl::stdlib()[0], echo_handler()).unwrap();
        assert!(r.lookup("ninf://etl.go.jp/dmmul").is_some());
        assert!(r.lookup("http://phase.etl.go.jp/ninf/dmmul").is_some());
    }

    #[test]
    fn reregistration_replaces() {
        let mut r = Registry::new();
        r.register(ninf_idl::stdlib()[0], echo_handler()).unwrap();
        r.register(ninf_idl::stdlib()[0], echo_handler()).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn bad_idl_rejected() {
        let mut r = Registry::new();
        assert!(r.register("Defin oops(", echo_handler()).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn validate_accepts_conforming_args() {
        let iface = ninf_idl::stdlib_interfaces().remove(0); // dmmul
        let n = 4usize;
        let args = [
            Value::Int(n as i32),
            Value::DoubleArray(vec![1.0; n * n]),
            Value::DoubleArray(vec![2.0; n * n]),
        ];
        let layout = validate_invoke(&iface, &args.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(layout.len(), 4);
        assert_eq!(layout[3].count, n * n); // C out
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let iface = ninf_idl::stdlib_interfaces().remove(0);
        let err = validate_invoke(&iface, &[&Value::Int(4)]).unwrap_err();
        assert!(err.contains("input arguments"));
    }

    #[test]
    fn validate_rejects_wrong_extent() {
        let iface = ninf_idl::stdlib_interfaces().remove(0);
        let args = [
            Value::Int(4),
            Value::DoubleArray(vec![1.0; 16]),
            Value::DoubleArray(vec![2.0; 15]), // off by one
        ];
        assert!(validate_invoke(&iface, &args.iter().collect::<Vec<_>>()).is_err());
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let iface = ninf_idl::stdlib_interfaces().remove(0);
        let args = [
            Value::Int(2),
            Value::FloatArray(vec![1.0; 4]),
            Value::DoubleArray(vec![2.0; 4]),
        ];
        assert!(validate_invoke(&iface, &args.iter().collect::<Vec<_>>()).is_err());
    }
}
