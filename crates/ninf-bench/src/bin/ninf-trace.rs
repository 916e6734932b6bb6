//! `ninf-trace` — join per-process flight-recorder spans into one
//! cross-process call tree and export Chrome `trace_event` JSON.
//!
//! ```text
//! ninf-trace demo  [--n 64] [--out trace.json]
//! ninf-trace fetch <addr>... [--trace <id>] [--merge <chrome.json>] [--out <path>]
//! ninf-trace check <chrome.json> [--slack-us 1000]
//! ninf-trace metrics <addr>
//! ninf-trace timeline <sweep.json> [--metric <name>] [--source <substr>]
//! ```
//!
//! * `demo` runs one metaserver-routed `Ninf_call` against an in-process
//!   fleet with tracing armed and prints the resulting call tree — the
//!   zero-setup way to see the span schema.
//! * `fetch` drains the flight recorder of live processes over the
//!   `QueryTrace` protocol message (`--trace` limits to one trace id, as
//!   printed by `ninf-load`'s CSV; ids parse as hex when `0x`-prefixed or
//!   16 digits wide, decimal otherwise) and joins them — `--merge` folds in
//!   spans already exported to a Chrome JSON file (e.g. by
//!   `ninf-load --trace-out`).
//! * `check` validates a Chrome trace file: it must parse, spans must nest
//!   within their parents, and every client call span must have matching
//!   server spans (CI uses this as the trace smoke test).
//! * `metrics` is the `curl`-equivalent read of a metrics endpoint.
//! * `timeline` renders the merged per-window fleet view from a sweep
//!   report (`ninf-load --sweep --json <path>`): client-side offered /
//!   issued / completed counts per window joined against one metric
//!   column per remote series, remote times already corrected onto the
//!   sweep clock by the controller's skew estimate.
//!
//! Output files load directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use ninf_bench::cli::{parse_args, CliError, Parsed};
use ninf_client::NinfClient;
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_obs::export::{
    chrome_trace_json, client_server_coverage, dedup, parse_chrome_trace, render_tree,
    validate_nesting,
};
use ninf_obs::{recorder, Span, TraceContext};
use ninf_protocol::Value;
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, SchedPolicy, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("a subcommand is required");
    };
    match cmd.as_str() {
        "demo" => demo(&args[1..]),
        "fetch" => fetch(&args[1..]),
        "check" => check(&args[1..]),
        "metrics" => metrics(&args[1..]),
        "timeline" => timeline(&args[1..]),
        "--help" | "-h" => usage(""),
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}

/// Parse a subcommand's `--flag value` pairs; the rest are positionals.
fn flags(args: &[String], value_flags: &[&str]) -> Parsed {
    match parse_args(args.iter().cloned(), value_flags, &[]) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    }
}

/// Trace ids print as 16 hex digits in the load generator's CSV; accept
/// that, `0x`-prefixed hex, or plain decimal.
fn parse_trace_id(raw: &str) -> u64 {
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else if raw.len() == 16 {
        u64::from_str_radix(raw, 16)
    } else {
        raw.parse()
    };
    parsed.unwrap_or_else(|_| usage(&format!("`{raw}` is not a trace id")))
}

fn write_or_print(spans: &[Span], out: Option<&str>) {
    match out {
        Some(path) => {
            std::fs::write(path, chrome_trace_json(spans)).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "# wrote {} span(s) to {path} (open in Perfetto)",
                spans.len()
            );
        }
        None => eprintln!(
            "# {} span(s); pass --out <path> for Chrome JSON",
            spans.len()
        ),
    }
}

/// One traced, metaserver-routed call against an in-process fleet.
fn demo(args: &[String]) {
    let parsed = flags(args, &["--n", "--out"]);
    if let Some(extra) = parsed.positionals.first() {
        usage(&format!("unexpected argument `{extra}`"));
    }
    let n: usize = parsed
        .value("--n")
        .map(|v| v.parse().unwrap_or_else(|_| usage("--n needs an integer")))
        .unwrap_or(64);

    recorder::global().set_enabled(true);
    let mut dir = Directory::new();
    let mut servers = Vec::new();
    for i in 0..2 {
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                policy: SchedPolicy::Fcfs,
                ..ServerConfig::default()
            },
        )
        .expect("start in-process server");
        dir.register(ServerEntry {
            name: format!("node{i}"),
            addr: server.addr().to_string(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        servers.push(server);
    }
    let meta = Metaserver::new(dir, Balancing::RoundRobin);

    // The client's own root span, parent of everything downstream.
    let ctx = TraceContext::root();
    let start = ninf_obs::now_us();
    let (a, b) = ninf_exec::matgen(n);
    let call_args = vec![
        Value::Int(n as i32),
        Value::DoubleArray(a.as_slice().to_vec()),
        Value::DoubleArray(b),
    ];
    let (outcome, trace_id) = meta.ninf_call_traced("linpack", &call_args, Some(ctx));
    recorder::global().record(
        Span::at(ctx, "call", "client", start)
            .with_detail(format!("routine=linpack n={n} ok={}", outcome.is_ok())),
    );
    outcome.expect("demo call succeeds");
    assert_eq!(trace_id, ctx.trace_id);

    // The server records its "reply" span just after the bytes go out, so
    // give its connection thread a beat before draining the recorder.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let spans = dedup(&recorder::global().snapshot(trace_id));
    println!("{}", render_tree(&spans));
    // Same-process clocks: the tree must nest and cover client → server.
    // The slack absorbs scheduling skew — the server stamps its "reply"
    // span end after `send` returns, which can trail the client's read.
    validate_nesting(&spans, 10_000).expect("spans nest");
    let covered = client_server_coverage(&spans).expect("client calls reach the server");
    eprintln!(
        "# trace {trace_id:016x}: {} span(s), {} client call(s) with server spans",
        spans.len(),
        covered
    );
    write_or_print(&spans, parsed.value("--out"));
    for s in servers {
        s.shutdown();
    }
}

/// Drain live processes' recorders over QueryTrace and join the spans.
fn fetch(args: &[String]) {
    let parsed = flags(args, &["--trace", "--merge", "--out", "--slack-us"]);
    let trace_id = parsed.value("--trace").map(parse_trace_id).unwrap_or(0);
    let mut spans: Vec<Span> = Vec::new();
    if let Some(path) = parsed.value("--merge") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let mut merged = parse_chrome_trace(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        if trace_id != 0 {
            merged.retain(|s| s.trace_id == trace_id);
        }
        eprintln!("# merged {} span(s) from {path}", merged.len());
        spans.append(&mut merged);
    }
    let addrs = &parsed.positionals;
    if addrs.is_empty() && spans.is_empty() {
        usage("fetch needs at least one <addr> or --merge <file>");
    }
    for addr in addrs {
        match NinfClient::connect(addr).and_then(|mut c| c.query_trace(trace_id)) {
            Ok((process, dropped, mut remote)) => {
                eprintln!(
                    "# {addr} ({process}): {} span(s), {dropped} dropped by the ring",
                    remote.len()
                );
                spans.append(&mut remote);
            }
            Err(e) => {
                eprintln!("error: cannot fetch spans from {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    let spans = dedup(&spans);
    println!("{}", render_tree(&spans));
    write_or_print(&spans, parsed.value("--out"));
}

/// Validate a Chrome trace file (parse, nesting, client↔server coverage).
fn check(args: &[String]) {
    let parsed = flags(args, &["--slack-us"]);
    let [path] = parsed.positionals.as_slice() else {
        usage("check needs exactly one <chrome.json> file");
    };
    let slack: u64 = parsed
        .value("--slack-us")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage("--slack-us needs an integer"))
        })
        .unwrap_or(1_000);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let spans = parse_chrome_trace(&text).unwrap_or_else(|e| {
        eprintln!("check failed: {path} does not parse: {e}");
        std::process::exit(1);
    });
    if spans.is_empty() {
        eprintln!("check failed: {path} contains no spans");
        std::process::exit(1);
    }
    if let Err(e) = validate_nesting(&spans, slack) {
        eprintln!("check failed: spans do not nest (slack {slack}µs): {e}");
        std::process::exit(1);
    }
    let covered = match client_server_coverage(&spans) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
    };
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    println!(
        "ok: {} span(s), {} trace(s), {} client call(s) with matching server spans",
        spans.len(),
        traces.len(),
        covered
    );
}

/// `curl`-equivalent read of a Prometheus metrics endpoint.
fn metrics(args: &[String]) {
    let addrs = flags(args, &[]).positionals;
    let [addr] = addrs.as_slice() else {
        usage("metrics needs exactly one <addr>");
    };
    match ninf_obs::http::fetch_metrics(addr) {
        Ok(body) => print!("{body}"),
        Err(e) => {
            eprintln!("error: cannot read metrics from {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Merged per-window fleet view of a `ninf-load --sweep` JSON report.
fn timeline(args: &[String]) {
    let parsed = flags(args, &["--metric", "--source"]);
    let [path] = parsed.positionals.as_slice() else {
        usage("timeline needs exactly one <sweep.json> file");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("timeline failed: {path} does not parse: {e}");
        std::process::exit(1);
    });
    match render_timeline(&doc, parsed.value("--metric"), parsed.value("--source")) {
        Ok(rendered) => print!("{rendered}"),
        Err(e) => {
            eprintln!("timeline failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Metric projected into the per-remote column when `--metric` is absent:
/// first one present in the series wins.
const TIMELINE_DEFAULT_METRICS: &[&str] = &[
    "ninf_server_inflight_calls",
    "ninf_server_calls_total",
    "ninf_meta_calls_total",
];

/// Render the sweep report's merged timeline as one table: client-side
/// windows on the left, one column per remote series on the right, all on
/// the controller's clock (remote `t`s arrive skew-corrected in the JSON).
fn render_timeline(
    doc: &serde_json::Value,
    metric: Option<&str>,
    source_filter: Option<&str>,
) -> Result<String, String> {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    if doc.get("benchmark").and_then(|v| v.as_str()) != Some("sweep") {
        return Err(
            "not a sweep report (expected top-level benchmark=\"sweep\"; \
                    produce one with `ninf-load --sweep --json <path>`)"
                .into(),
        );
    }
    let tl = doc
        .get("timeline")
        .ok_or("sweep report has no `timeline` object")?;
    let window_secs = tl
        .get("window_secs")
        .and_then(|v| v.as_f64())
        .filter(|w| *w > 0.0)
        .ok_or("timeline.window_secs is missing or non-positive")?;

    // Client-side buckets, keyed by window index.
    struct ClientRow {
        t: f64,
        offered: u64,
        issued: u64,
        ok: u64,
        errors: u64,
        latency_mean_s: f64,
    }
    let mut client: BTreeMap<u64, ClientRow> = BTreeMap::new();
    let num = |v: &serde_json::Value, key: &str| v.get(key).and_then(|x| x.as_f64());
    for w in tl
        .get("client")
        .and_then(|v| v.as_array())
        .map(|v| v.as_slice())
        .unwrap_or_default()
    {
        let Some(idx) = w.get("window").and_then(|v| v.as_u64()) else {
            continue;
        };
        client.insert(
            idx,
            ClientRow {
                t: num(w, "t").unwrap_or(idx as f64 * window_secs),
                offered: num(w, "offered").unwrap_or(0.0) as u64,
                issued: num(w, "issued").unwrap_or(0.0) as u64,
                ok: num(w, "ok").unwrap_or(0.0) as u64,
                errors: num(w, "errors").unwrap_or(0.0) as u64,
                latency_mean_s: num(w, "latency_mean_s").unwrap_or(0.0),
            },
        );
    }

    // Remote series → one (source, metric, bucket→value) column each.
    struct RemoteCol {
        source: String,
        metric: String,
        skew_s: f64,
        polls: u64,
        dropped: u64,
        cells: BTreeMap<u64, f64>,
    }
    let mut cols: Vec<RemoteCol> = Vec::new();
    for r in tl
        .get("remotes")
        .and_then(|v| v.as_array())
        .map(|v| v.as_slice())
        .unwrap_or_default()
    {
        let source = r
            .get("source")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        if let Some(want) = source_filter {
            if !source.contains(want) {
                continue;
            }
        }
        let frames = r
            .get("frames")
            .and_then(|v| v.as_array())
            .map(|v| v.as_slice())
            .unwrap_or_default();
        let has = |name: &str| {
            frames.iter().any(|f| {
                f.get("samples")
                    .and_then(|v| v.as_array())
                    .is_some_and(|ss| {
                        ss.iter()
                            .any(|s| s.get("name").and_then(|v| v.as_str()) == Some(name))
                    })
            })
        };
        // Resolve this series' metric: the explicit --metric, a preferred
        // default it actually exports, or its first exported name.
        let metric = match metric {
            Some(m) => m.to_string(),
            None => TIMELINE_DEFAULT_METRICS
                .iter()
                .find(|m| has(m))
                .map(|m| m.to_string())
                .or_else(|| {
                    frames.iter().find_map(|f| {
                        f.get("samples")
                            .and_then(|v| v.as_array())
                            .and_then(|ss| ss.first())
                            .and_then(|s| s.get("name"))
                            .and_then(|v| v.as_str())
                            .map(|s| s.to_string())
                    })
                })
                .unwrap_or_default(),
        };
        let mut cells = BTreeMap::new();
        for f in frames {
            // Bucket each frame by its (already skew-corrected) time onto
            // the client window grid; a later frame in the bucket wins.
            let Some(t) = num(f, "t").filter(|t| *t >= 0.0) else {
                continue;
            };
            let idx = (t / window_secs) as u64;
            let Some(samples) = f.get("samples").and_then(|v| v.as_array()) else {
                continue;
            };
            for s in samples {
                if s.get("name").and_then(|v| v.as_str()) == Some(metric.as_str()) {
                    if let Some(v) = num(s, "value") {
                        cells.insert(idx, v);
                    }
                }
            }
        }
        cols.push(RemoteCol {
            source,
            metric,
            skew_s: num(r, "clock_skew_s").unwrap_or(0.0),
            polls: r.get("polls").and_then(|v| v.as_u64()).unwrap_or(0),
            dropped: r.get("dropped").and_then(|v| v.as_u64()).unwrap_or(0),
            cells,
        });
    }
    if client.is_empty() && cols.iter().all(|c| c.cells.is_empty()) {
        return Err("timeline is empty: no client windows and no remote frames \
                    (remote series stay empty when the target registry was \
                    never armed — start ninfd with --windows-ms)"
            .into());
    }

    let mut out = String::new();
    let scenario = doc.get("scenario").and_then(|v| v.as_str()).unwrap_or("?");
    let clients = doc.get("clients").and_then(|v| v.as_u64()).unwrap_or(0);
    let seed = doc.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
    let points = doc
        .get("points")
        .and_then(|v| v.as_array())
        .map(|p| p.len())
        .unwrap_or(0);
    writeln!(
        out,
        "# sweep {scenario}: {clients} client(s), seed {seed}, {points} stage(s), \
         window {window_secs:.2}s"
    )
    .unwrap();
    match doc.get("knee") {
        Some(k) if !k.is_null() => {
            let saturated = k.get("saturated").and_then(|v| v.as_bool()) == Some(true);
            writeln!(
                out,
                "# knee: stage {} at {:.1} Hz offered, {:.1} Hz through, mean {:.1} ms — {}",
                k.get("stage").and_then(|v| v.as_u64()).unwrap_or(0),
                num(k, "offered_hz").unwrap_or(0.0),
                num(k, "throughput_hz").unwrap_or(0.0),
                num(k, "latency_mean_s").unwrap_or(0.0) * 1e3,
                if saturated {
                    "saturated"
                } else {
                    "unsaturated"
                },
            )
            .unwrap();
        }
        _ => writeln!(out, "# knee: not reached").unwrap(),
    }
    for (i, c) in cols.iter().enumerate() {
        writeln!(
            out,
            "# r{i} = {} {} (skew {:+.4}s, {} poll(s), {} dropped, {} window(s))",
            c.source,
            if c.metric.is_empty() {
                "<no samples>"
            } else {
                &c.metric
            },
            c.skew_s,
            c.polls,
            c.dropped,
            c.cells.len(),
        )
        .unwrap();
    }

    write!(
        out,
        "window       t  offered  issued      ok    errs  lat(ms)"
    )
    .unwrap();
    for i in 0..cols.len() {
        write!(out, "  {:>10}", format!("r{i}")).unwrap();
    }
    writeln!(out, "  ok/window").unwrap();

    let first = client
        .keys()
        .next()
        .copied()
        .into_iter()
        .chain(cols.iter().filter_map(|c| c.cells.keys().next().copied()))
        .min()
        .unwrap_or(0);
    let last = client
        .keys()
        .next_back()
        .copied()
        .into_iter()
        .chain(
            cols.iter()
                .filter_map(|c| c.cells.keys().next_back().copied()),
        )
        .max()
        .unwrap_or(0);
    let peak_ok = client.values().map(|r| r.ok).max().unwrap_or(0).max(1);
    for idx in first..=last {
        match client.get(&idx) {
            Some(r) => write!(
                out,
                "{idx:>6}  {:>6.2}  {:>7}  {:>6}  {:>6}  {:>6}  {:>7.1}",
                r.t,
                r.offered,
                r.issued,
                r.ok,
                r.errors,
                r.latency_mean_s * 1e3,
            )
            .unwrap(),
            None => write!(
                out,
                "{idx:>6}  {:>6.2}  {:>7}  {:>6}  {:>6}  {:>6}  {:>7}",
                idx as f64 * window_secs,
                "-",
                "-",
                "-",
                "-",
                "-",
            )
            .unwrap(),
        }
        for c in &cols {
            match c.cells.get(&idx) {
                Some(v) => write!(out, "  {v:>10.1}").unwrap(),
                None => write!(out, "  {:>10}", "-").unwrap(),
            }
        }
        let bar = client
            .get(&idx)
            .map(|r| (r.ok * 32).div_ceil(peak_ok) as usize)
            .unwrap_or(0);
        writeln!(out, "  {}", "#".repeat(bar)).unwrap();
    }
    Ok(out)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ninf-trace demo  [--n 64] [--out trace.json]\n\
        \x20      ninf-trace fetch <addr>... [--trace <id>] [--merge <chrome.json>] [--out <path>]\n\
        \x20      ninf-trace check <chrome.json> [--slack-us 1000]\n\
        \x20      ninf-trace metrics <addr>\n\
        \x20      ninf-trace timeline <sweep.json> [--metric <name>] [--source <substr>]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::render_timeline;

    const SWEEP_DOC: &str = r#"{
        "benchmark": "sweep", "scenario": "lan-ep", "clients": 2, "seed": 1997,
        "stage_secs": 1.0, "base_rate_hz": 10.0, "wall_secs": 2.0,
        "schedule_fnv": "0x0000000000000001",
        "points": [
            {"stage": 0, "offered_hz": 20.0, "throughput_hz": 19.0},
            {"stage": 1, "offered_hz": 40.0, "throughput_hz": 21.0}
        ],
        "knee": {"stage": 0, "offered_hz": 20.0, "throughput_hz": 19.0,
                 "latency_mean_s": 0.05, "saturated": true},
        "timeline": {
            "window_secs": 1.0,
            "client": [
                {"window": 0, "t": 0.0, "offered": 20, "issued": 20, "ok": 19,
                 "errors": 1, "latency_mean_s": 0.05},
                {"window": 1, "t": 1.0, "offered": 40, "issued": 38, "ok": 21,
                 "errors": 0, "latency_mean_s": 0.42}
            ],
            "remotes": [{
                "source": "server@127.0.0.1:9999", "clock_skew_s": -0.001,
                "interval_s": 1.0, "total": 2, "dropped": 0, "polls": 4,
                "frames": [
                    {"window": 0, "t": 0.4, "samples": [
                        {"name": "ninf_server_inflight_calls", "kind": "gauge",
                         "value": 3.0, "count": 0}]},
                    {"window": 1, "t": 1.4, "samples": [
                        {"name": "ninf_server_inflight_calls", "kind": "gauge",
                         "value": 7.0, "count": 0}]}
                ]
            }]
        }
    }"#;

    #[test]
    fn renders_merged_client_and_remote_rows() {
        let doc = serde_json::from_str(SWEEP_DOC).expect("fixture parses");
        let out = render_timeline(&doc, None, None).expect("renders");
        // Header names the knee and the remote column's resolved metric.
        assert!(out.contains("knee: stage 0 at 20.0 Hz offered"), "{out}");
        assert!(
            out.contains("r0 = server@127.0.0.1:9999 ninf_server_inflight_calls"),
            "{out}"
        );
        // Both windows appear with the client counts joined to the remote
        // gauge bucketed by its corrected time (0.4s -> window 0).
        let w0 = out.lines().find(|l| l.starts_with("     0")).unwrap();
        assert!(w0.contains("19") && w0.contains("3.0"), "{w0}");
        let w1 = out.lines().find(|l| l.starts_with("     1")).unwrap();
        assert!(w1.contains("21") && w1.contains("7.0"), "{w1}");
    }

    #[test]
    fn source_filter_and_missing_metric_leave_holes() {
        let doc = serde_json::from_str(SWEEP_DOC).expect("fixture parses");
        // A source filter that matches nothing drops the remote column but
        // keeps the client view.
        let out = render_timeline(&doc, None, Some("meta@")).expect("renders");
        assert!(!out.contains("r0 ="), "{out}");
        // Asking for a metric the series never exported leaves `-` cells.
        let out = render_timeline(&doc, Some("no_such_metric"), None).expect("renders");
        assert!(out.contains("-"), "{out}");
    }

    #[test]
    fn rejects_non_sweep_documents() {
        let doc = serde_json::from_str(r#"{"benchmark": "c10k"}"#).unwrap();
        let err = render_timeline(&doc, None, None).unwrap_err();
        assert!(err.contains("not a sweep report"), "{err}");
    }
}
