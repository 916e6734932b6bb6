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

use ninf_server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
};

fn main() {
    let mut addr = "127.0.0.1:5656".to_string();
    let mut db_addr: Option<String> = None;
    let mut pes = 4usize;
    let mut mode = ExecMode::TaskParallel;
    let mut policy = SchedPolicy::Fcfs;
    let mut workers = 8usize;
    let mut trace = false;
    let mut metrics_addr: Option<String> = None;
    let mut arg_cache_bytes = ninf_server::DEFAULT_ARG_CACHE_BYTES;
    let mut windows_ms: Option<u64> = None;
    let mut wan: Option<ninf_protocol::LinkShape> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage("--addr needs a value")),
            "--db-addr" => {
                db_addr = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--db-addr needs a value")),
                )
            }
            "--pes" => {
                pes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--pes needs a positive integer"))
            }
            "--mode" => {
                mode = match args.next().as_deref() {
                    Some("task") => ExecMode::TaskParallel,
                    Some("data") => ExecMode::DataParallel,
                    _ => usage("--mode is task or data"),
                }
            }
            "--policy" => {
                policy = match args.next().as_deref() {
                    Some("fcfs") => SchedPolicy::Fcfs,
                    Some("sjf") => SchedPolicy::Sjf,
                    Some("fpfs") => SchedPolicy::Fpfs,
                    Some("fpmpfs") => SchedPolicy::Fpmpfs,
                    _ => usage("--policy is fcfs|sjf|fpfs|fpmpfs"),
                }
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a positive integer"))
            }
            "--trace" => trace = true,
            "--arg-cache-bytes" => {
                arg_cache_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--arg-cache-bytes needs a byte count (0 disables)"))
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--metrics-addr needs a value")),
                )
            }
            "--windows-ms" => {
                windows_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms| ms > 0)
                        .unwrap_or_else(|| {
                            usage("--windows-ms needs a positive millisecond count")
                        }),
                )
            }
            "--wan" => {
                let spec = args.next().unwrap_or_else(|| usage("--wan needs a spec"));
                wan = Some(ninf_protocol::LinkShape::parse(&spec).unwrap_or_else(|e| {
                    usage(&format!("--wan: {e}"));
                }));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

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
        match ninf_obs::http::serve_metrics(server.metrics().registry().clone(), &a) {
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
        let db = ninf_db::DbServer::start(&a, ninf_db::builtin_datasets()).unwrap_or_else(|e| {
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
