//! `repro` — regenerate every table and figure of the SC'97 Ninf paper.
//!
//! ```text
//! repro [--experiment <id>]... [--seed <u64>] [--json <path>] [--csv <dir>]
//!       [--live-check <addr>] [--list]
//! ```
//!
//! `--live-check` sanity-checks a live server through the process-wide
//! connection pool (two EP calls; the second must reuse the connection the
//! first gave back) before — or, with no `--experiment`, instead of — the
//! deterministic experiment suite.

use std::io::Write;

use ninf_bench::cli::{parse_args, CliError};

fn main() {
    let parsed = match parse_args(
        std::env::args().skip(1),
        &[
            "--experiment|-e",
            "--seed",
            "--json",
            "--csv",
            "--live-check",
        ],
        &["--list"],
    ) {
        Ok(p) => p,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    };
    if let Some(extra) = parsed.positionals.first() {
        usage(&format!("unexpected argument `{extra}`"));
    }

    if parsed.has("--list") {
        for id in ninf_sim::experiments::all_ids() {
            println!("{id}");
        }
        return;
    }

    let ids: Vec<String> = parsed
        .values("--experiment")
        .into_iter()
        .map(str::to_string)
        .collect();

    if let Some(addr) = parsed.value("--live-check") {
        live_check(addr);
        if ids.is_empty() {
            return;
        }
    }
    let seed: u64 = match parsed.parse("--seed") {
        Ok(v) => v.unwrap_or(1997),
        Err(CliError::Bad(msg)) => usage(&msg),
        Err(CliError::Help) => usage(""),
    };

    eprintln!("# seed = {seed} (results are a pure function of the seed)");
    let outs = if ids.is_empty() {
        ninf_bench::run_all(seed)
    } else {
        match ninf_bench::run_selected(&ids, seed) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    };

    for out in &outs {
        print!("{}", ninf_bench::render(out));
    }

    if let Some(dir) = parsed.value("--csv") {
        let dir = std::path::PathBuf::from(dir);
        let mut count = 0;
        for out in &outs {
            count += ninf_bench::write_csv(out, &dir).expect("write csv").len();
        }
        eprintln!("# wrote {count} CSV files to {}", dir.display());
    }

    if let Some(path) = parsed.value("--json") {
        let doc = ninf_bench::to_json(&outs, seed);
        let mut f = std::fs::File::create(path).expect("create json output");
        writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&doc).expect("serialize")
        )
        .expect("write json");
        eprintln!("# wrote {path}");
    }
}

/// Two pooled EP calls against a live server: the first checkout dials,
/// the second must reuse the connection the first gave back.
fn live_check(addr: &str) {
    use ninf_client::{CallOptions, NinfClient};
    use ninf_protocol::Value;
    let opts = CallOptions::with_deadline(std::time::Duration::from_secs(10));
    let pool = ninf_reactor::global_pool();
    for round in 0..2 {
        let mut client = NinfClient::connect_pooled(addr, opts, pool.clone()).unwrap_or_else(|e| {
            eprintln!("error: live-check cannot reach {addr}: {e}");
            std::process::exit(1);
        });
        if round > 0 && !client.stream_reused() {
            eprintln!("error: live-check checkout {round} did not reuse the pooled connection");
            std::process::exit(1);
        }
        if let Err(e) = client.ninf_call("ep", &[Value::Int(6)]) {
            eprintln!("error: live-check call {round} failed: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("# live-check {addr}: 2 EP calls ok over 1 pooled connection (stream_reused=true)");
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--experiment <id>]... [--seed <u64>] [--json <path>] [--csv <dir>]\n\
        \x20      [--live-check <addr>] [--list]\n\
         ids: {}",
        ninf_sim::experiments::all_ids().join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
