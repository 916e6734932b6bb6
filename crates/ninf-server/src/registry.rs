//! The Ninf executable registry.
//!
//! Registration takes an IDL `Define` plus a handler closure — the moral
//! equivalent of the paper's stub generator binding a library symbol to the
//! RPC layer ("Binaries of computing libraries and applications are
//! registered on the server process as Ninf executables, which can be
//! semi-automatically generated with IDL descriptions", §2.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use ninf_idl::{CompiledInterface, IdlError};
use ninf_protocol::Value;

use crate::exec::ExecMode;

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
    /// The width the handler was built for: the PEs one call holds in the
    /// gate, and so the threads its kernel runs on.
    pub mode: ExecMode,
}

impl std::fmt::Debug for NinfExecutable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NinfExecutable")
            .field("interface", &self.interface.name)
            .field("mode", &self.mode)
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
    /// `Define`d name as a 1-PE executable. Re-registering a name replaces
    /// the previous entry (mirroring server-side library upgrades). The
    /// entry comes back so a handler built for all PEs can say so
    /// (`.mode = ExecMode::DataParallel`).
    pub fn register(
        &mut self,
        idl_src: &str,
        handler: Handler,
    ) -> Result<&mut NinfExecutable, IdlError> {
        let def = ninf_idl::parse_one(idl_src)?;
        let interface = CompiledInterface::compile(&def)?;
        let entry = NinfExecutable {
            interface,
            handler,
            mode: ExecMode::TaskParallel,
        };
        Ok(self.entries.entry(def.name).insert_entry(entry).into_mut())
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

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::validate_call_args;

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

    /// The server checks a call against the registered interface with the
    /// client's own checker, over the borrowed values the handler gets.
    fn validate(args: &[&Value]) -> Result<Vec<ninf_idl::compile::ParamLayout>, String> {
        let mut r = Registry::new();
        r.register(ninf_idl::stdlib()[0], echo_handler()).unwrap(); // dmmul
        validate_call_args(&r.lookup("dmmul").unwrap().interface, args)
    }

    #[test]
    fn validate_accepts_conforming_args() {
        let n = 4usize;
        let args = [
            Value::Int(n as i32),
            Value::DoubleArray(vec![1.0; n * n]),
            Value::DoubleArray(vec![2.0; n * n]),
        ];
        let layout = validate(&args.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(layout.len(), 4);
        assert_eq!(layout[3].count, n * n); // C out
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let err = validate(&[&Value::Int(4)]).unwrap_err();
        assert!(err.contains("input arguments"));
    }

    #[test]
    fn validate_rejects_wrong_extent() {
        let args = [
            Value::Int(4),
            Value::DoubleArray(vec![1.0; 16]),
            Value::DoubleArray(vec![2.0; 15]), // off by one
        ];
        assert!(validate(&args.iter().collect::<Vec<_>>()).is_err());
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let args = [
            Value::Int(2),
            Value::FloatArray(vec![1.0; 4]),
            Value::DoubleArray(vec![2.0; 4]),
        ];
        assert!(validate(&args.iter().collect::<Vec<_>>()).is_err());
    }
}
