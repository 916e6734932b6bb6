//! `ninfd` — run a Ninf computational server (and optionally a database
//! server) from the command line.
//!
//! ```text
//! ninfd [--addr 0.0.0.0:5656] [--pes 4] [--mode task|data] \
//!       [--policy fcfs|sjf|fpfs|fpmpfs] [--workers N] \
//!       [--db-addr 0.0.0.0:5657] \
//!       [--trace] [--metrics-addr 0.0.0.0:9156] [--windows-ms 1000] \
//!       [--wan bw=4m,delay=20ms,loss=0.01]
//! ```
//!
//! Serves the stdlib routines (dmmul, dgefa, dgesl, linpack, ep, dos) until
//! killed. With `--db-addr`, also serves the builtin numerical datasets.
//! `--trace` arms the in-process flight recorder (same effect as setting
//! `NINF_TRACE=1`): spans are recorded for traced calls and served over the
//! `QueryTrace` protocol message. `--metrics-addr` exposes the server's
//! metrics registry as Prometheus text on a plain-TCP HTTP endpoint.
//! `--windows-ms` arms time-series telemetry: the registry captures a
//! metric window snapshot every N ms into a bounded ring, served over the
//! `QueryMetrics` protocol message (sweep controllers poll it). Without the
//! flag the window path is disarmed and costs nothing. `--wan <spec>`
//! shapes the server's reply direction through a shared emulated WAN link
//! (token-bucket bandwidth, propagation delay; see `LinkShape::parse` for
//! the grammar — a spec's loss and fault terms are accepted but only the
//! client side applies them). Each reply is paced on the worker thread that
//! produced it; `--workers` (floored at `pes + 4`) sizes that pool.

use ninf_bench::cli::{parse_args, CliError, Parsed};
use ninf_server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
};

fn main() {
    let parsed = match parse_args(
        std::env::args().skip(1),
        &[
            "--addr",
            "--db-addr",
            "--pes",
            "--mode",
            "--policy",
            "--workers",
            "--arg-cache-bytes",
            "--metrics-addr",
            "--windows-ms",
            "--wan",
        ],
        &["--trace"],
    ) {
        Ok(p) => p,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    };
    if let Some(extra) = parsed.positionals.first() {
        usage(&format!("unknown argument `{extra}`"));
    }
    let addr = parsed
        .value("--addr")
        .unwrap_or("127.0.0.1:5656")
        .to_string();
    let db_addr = parsed.value("--db-addr");
    let pes: usize = number(&parsed, "--pes", 4, "--pes needs a positive integer");
    let mode = match parsed.value("--mode") {
        None | Some("task") => ExecMode::TaskParallel,
        Some("data") => ExecMode::DataParallel,
        Some(_) => usage("--mode is task or data"),
    };
    let policy = match parsed.value("--policy") {
        None | Some("fcfs") => SchedPolicy::Fcfs,
        Some("sjf") => SchedPolicy::Sjf,
        Some("fpfs") => SchedPolicy::Fpfs,
        Some("fpmpfs") => SchedPolicy::Fpmpfs,
        Some(_) => usage("--policy is fcfs|sjf|fpfs|fpmpfs"),
    };
    let workers = number(
        &parsed,
        "--workers",
        8,
        "--workers needs a positive integer",
    );
    let trace = parsed.has("--trace");
    let arg_cache_bytes = number(
        &parsed,
        "--arg-cache-bytes",
        ninf_server::DEFAULT_ARG_CACHE_BYTES,
        "--arg-cache-bytes needs a byte count (0 disables)",
    );
    let metrics_addr = parsed.value("--metrics-addr");
    let windows_ms = match parsed.parse::<u64>("--windows-ms") {
        Ok(None) => None,
        Ok(Some(ms)) if ms > 0 => Some(ms),
        _ => usage("--windows-ms needs a positive millisecond count"),
    };
    let wan = parsed.value("--wan").map(|spec| {
        ninf_protocol::LinkShape::parse(spec).unwrap_or_else(|e| usage(&format!("--wan: {e}")))
    });

    if trace {
        ninf_obs::recorder::global().set_enabled(true);
    }
    let mut registry = Registry::new();
    register_stdlib(&mut registry, matches!(mode, ExecMode::DataParallel));
    let server = NinfServer::start(
        &addr,
        registry,
        ServerConfig {
            pes,
            mode,
            policy,
            workers,
            arg_cache_bytes,
            wan,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "ninfd: serving dmmul dgefa dgesl dgeco linpack ep dos at {} ({} PEs, {}, {})",
        server.addr(),
        pes,
        mode.name(),
        policy.name()
    );
    if let Some(shape) = wan {
        eprintln!("ninfd: reply direction shaped as a WAN link: {shape}");
    }

    if let Some(a) = metrics_addr {
        match ninf_obs::http::serve_metrics(server.metrics().registry().clone(), a) {
            Ok(bound) => eprintln!("ninfd: metrics at http://{bound}/metrics"),
            Err(e) => {
                eprintln!("cannot bind metrics on {a}: {e}");
                std::process::exit(1);
            }
        }
    }
    if trace || ninf_obs::recorder::global().enabled() {
        eprintln!("ninfd: flight recorder armed (QueryTrace serves spans)");
    }
    if let Some(ms) = windows_ms {
        server
            .metrics()
            .registry()
            .start_window_sampler(std::time::Duration::from_millis(ms));
        eprintln!("ninfd: metric windows armed at {ms} ms (QueryMetrics serves series)");
    }

    let _db = db_addr.map(|a| {
        let db = ninf_db::DbServer::start(a, ninf_db::builtin_datasets()).unwrap_or_else(|e| {
            eprintln!("cannot bind database on {a}: {e}");
            std::process::exit(1);
        });
        eprintln!("ninfd: database server at {}", db.addr());
        db
    });

    // Periodic one-line status, forever.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        let report = server.load_report();
        eprintln!(
            "ninfd: {} calls done, {} running, {} queued",
            server.stats().completed(),
            report.running,
            report.queued
        );
    }
}

/// `flag`'s number, `default` when absent; a malformed one is a usage error.
fn number<T: std::str::FromStr>(parsed: &Parsed, flag: &str, default: T, err: &str) -> T {
    parsed
        .parse(flag)
        .unwrap_or_else(|_| usage(err))
        .unwrap_or(default)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ninfd [--addr host:port] [--pes N] [--mode task|data] \
         [--policy fcfs|sjf|fpfs|fpmpfs] [--workers N] \
         [--db-addr host:port] [--trace] [--metrics-addr host:port] \
         [--arg-cache-bytes N] [--windows-ms N] [--wan spec]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
