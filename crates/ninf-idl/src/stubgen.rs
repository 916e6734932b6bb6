//! The Ninf stub generator.
//!
//! "Binaries of computing libraries and applications are registered on the
//! server process as Ninf executables, which can be semi-automatically
//! generated with IDL descriptions using the Ninf stub generator" (§2.1).
//! Given a parsed `Define`, [`generate_handler_stub`] emits the Rust handler
//! skeleton a library author completes, and [`print_idl`] re-emits canonical
//! IDL text (used for registry listings and round-trip testing).

use std::fmt::Write as _;

use crate::ast::{BaseType, Define, Mode, Param};
use crate::expr::SizeExpr;

/// Re-emit a `Define` as canonical IDL source. `parse(print_idl(d))`
/// reproduces the AST exactly (asserted by tests).
pub fn print_idl(def: &Define) -> String {
    let mut out = String::new();
    let params = def
        .params
        .iter()
        .map(print_param)
        .collect::<Vec<_>>()
        .join(",\n             ");
    let _ = write!(out, "Define {}({params})", def.name);
    if let Some(doc) = &def.doc {
        let _ = write!(out, "\n\"{doc}\",");
    }
    for req in &def.required {
        let _ = write!(out, "\nRequired \"{req}\"");
    }
    if let Some(calls) = &def.calls {
        let _ = write!(
            out,
            "\nCalls \"{}\" {}({})",
            calls.convention,
            calls.callee,
            calls.args.join(", ")
        );
    }
    out.push(';');
    out
}

fn print_param(p: &Param) -> String {
    let dims: String = p
        .dims
        .iter()
        .map(|d| format!("[{}]", print_expr(d)))
        .collect();
    format!("{} {} {}{dims}", p.mode.keyword(), p.base.keyword(), p.name)
}

/// Print an expression without the redundant outer parentheses `Display`
/// adds.
fn print_expr(e: &SizeExpr) -> String {
    match e {
        SizeExpr::Binary { .. } => {
            let s = e.to_string();
            s[1..s.len() - 1].to_string()
        }
        other => other.to_string(),
    }
}

/// Generate a Rust handler skeleton for a `Define`: argument unpacking with
/// the right types and extents, a `TODO` where the library call goes, and
/// correctly-shaped outputs.
pub fn generate_handler_stub(def: &Define) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/// Auto-generated Ninf stub for `{}`.", def.name);
    if let Some(doc) = &def.doc {
        let _ = writeln!(out, "/// {doc}");
    }
    let _ = writeln!(out, "/// IDL:");
    for line in print_idl(def).lines() {
        let _ = writeln!(out, "///     {line}");
    }
    let _ = writeln!(
        out,
        "pub fn {}_handler() -> ninf_server::Handler {{",
        def.name
    );
    let _ = writeln!(
        out,
        "    std::sync::Arc::new(move |args: &[&ninf_protocol::Value]| {{"
    );

    // Unpack inputs in declaration order of sends() params.
    let mut arg_idx = 0usize;
    for p in &def.params {
        if !p.mode.sends() {
            continue;
        }
        if p.is_scalar() {
            let _ = writeln!(
                out,
                "        // {} {} {}",
                p.mode.keyword(),
                p.base.keyword(),
                p.name
            );
            let _ = writeln!(
                out,
                "        let {} = args[{arg_idx}].as_scalar_i64().ok_or(\"{} must be an integer scalar\")?;",
                rust_ident(&p.name),
                p.name
            );
        } else {
            let (variant, ty) = value_variant(p.base);
            let _ = writeln!(out, "        // {}", print_param(p));
            let _ = writeln!(
                out,
                "        let {}: &[{ty}] = match args[{arg_idx}] {{",
                rust_ident(&p.name)
            );
            let _ = writeln!(out, "            ninf_protocol::Value::{variant}(v) => v,");
            let _ = writeln!(
                out,
                "            _ => return Err(\"{} must be a {ty} array\".into()),",
                p.name
            );
            let _ = writeln!(out, "        }};");
        }
        arg_idx += 1;
    }

    let callee = def
        .calls
        .as_ref()
        .map(|c| format!("{} via \"{}\"", c.callee, c.convention))
        .unwrap_or_else(|| "your library routine".to_string());
    let _ = writeln!(out, "        // TODO: call {callee} here.");

    // Produce outputs in declaration order of receives() params.
    let mut outputs = Vec::new();
    for p in &def.params {
        if !p.mode.receives() {
            continue;
        }
        let (variant, _ty) = value_variant(p.base);
        let extent = p
            .dims
            .iter()
            .map(print_expr)
            .collect::<Vec<_>>()
            .join(" * ");
        let ident = format!("out_{}", rust_ident(&p.name));
        if p.is_scalar() {
            let _ = writeln!(
                out,
                "        let {ident} = Default::default(); // scalar {}",
                p.name
            );
            outputs.push(format!(
                "ninf_protocol::Value::{}({ident})",
                scalar_variant(p.base)
            ));
        } else {
            let _ = writeln!(
                out,
                "        let {ident} = vec![Default::default(); ({extent}) as usize]; // {}",
                p.name
            );
            outputs.push(format!("ninf_protocol::Value::{variant}({ident})"));
        }
    }
    let _ = writeln!(out, "        Ok(vec![{}])", outputs.join(", "));
    let _ = writeln!(out, "    }})");
    let _ = writeln!(out, "}}");
    out
}

/// Generate the registration snippet binding the stub to a registry.
pub fn generate_registration(def: &Define) -> String {
    format!(
        "registry.register(r#\"{}\"#, {}_handler()).expect(\"{} IDL\");\n",
        print_idl(def),
        def.name,
        def.name
    )
}

fn value_variant(b: BaseType) -> (&'static str, &'static str) {
    match b {
        BaseType::Int => ("IntArray", "i32"),
        BaseType::Long => ("LongArray", "i64"),
        BaseType::Float => ("FloatArray", "f32"),
        BaseType::Double => ("DoubleArray", "f64"),
    }
}

fn scalar_variant(b: BaseType) -> &'static str {
    match b {
        BaseType::Int => "Int",
        BaseType::Long => "Long",
        BaseType::Float => "Float",
        BaseType::Double => "Double",
    }
}

/// Keep generated identifiers lowercase to satisfy Rust style.
fn rust_ident(name: &str) -> String {
    let lower = name.to_lowercase();
    if lower == name {
        lower
    } else {
        format!("{lower}_")
    }
}

/// Which modes contribute to request vs reply (re-exported for doc tables).
pub fn direction_of(mode: Mode) -> &'static str {
    match (mode.sends(), mode.receives()) {
        (true, true) => "in+out",
        (true, false) => "in",
        (false, true) => "out",
        (false, false) => "scratch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_one;

    #[test]
    fn print_parse_roundtrip_stdlib() {
        for src in crate::stdlib() {
            let def = parse_one(src).unwrap();
            let printed = print_idl(&def);
            let reparsed = parse_one(&printed)
                .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{printed}", def.name));
            assert_eq!(reparsed, def, "roundtrip mismatch for {}", def.name);
        }
    }

    #[test]
    fn stub_unpacks_all_inputs() {
        let def = parse_one(crate::stdlib()[0]).unwrap(); // dmmul
        let stub = generate_handler_stub(&def);
        assert!(stub.contains("pub fn dmmul_handler()"));
        assert!(stub.contains("let n = args[0]"));
        assert!(stub.contains("move |args: &[&ninf_protocol::Value]|"));
        assert!(stub.contains("let a_: &[f64] = match args[1]"));
        assert!(stub.contains("let b_: &[f64] = match args[2]"));
        assert!(stub.contains("TODO: call mmul via \"C\""));
        // C is mode_out: allocated with the IDL extent.
        assert!(stub.contains("let out_c_ = vec![Default::default(); (n * n) as usize]"));
        assert!(stub.contains("Ok(vec![ninf_protocol::Value::DoubleArray(out_c_)])"));
    }

    #[test]
    fn stub_handles_inout_params() {
        let def = parse_one(crate::stdlib()[1]).unwrap(); // dgefa: A is inout
        let stub = generate_handler_stub(&def);
        // A appears both as an unpacked input and as an output.
        assert!(stub.contains("let a_: &[f64]"));
        assert!(stub.contains("out_a_"));
        assert!(stub.contains("out_ipvt"));
        assert!(stub.contains("out_info"));
    }

    #[test]
    fn registration_snippet_embeds_idl() {
        let def = parse_one(crate::stdlib()[4]).unwrap(); // ep
        let snippet = generate_registration(&def);
        assert!(snippet.contains("registry.register"));
        assert!(snippet.contains("Define ep("));
        assert!(snippet.contains("ep_handler()"));
    }

    #[test]
    fn mixed_case_names_get_safe_idents() {
        assert_eq!(rust_ident("A"), "a_");
        assert_eq!(rust_ident("ipvt"), "ipvt");
    }

    #[test]
    fn direction_labels() {
        assert_eq!(direction_of(Mode::In), "in");
        assert_eq!(direction_of(Mode::Out), "out");
        assert_eq!(direction_of(Mode::InOut), "in+out");
        assert_eq!(direction_of(Mode::Work), "scratch");
    }

    #[test]
    fn printed_expressions_keep_precedence() {
        let def =
            parse_one("Define f(mode_in int n, mode_out double v[n*(n+1)/2]) \"tri\";").unwrap();
        let printed = print_idl(&def);
        let reparsed = parse_one(&printed).unwrap();
        // Semantics preserved: same extent at a probe value.
        let scalars = [("n", 10i64)].into_iter().collect();
        assert_eq!(
            reparsed.params[1].dims[0].eval(&scalars).unwrap(),
            def.params[1].dims[0].eval(&scalars).unwrap(),
        );
    }
}
