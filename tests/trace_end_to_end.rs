//! End-to-end tracing: one metaserver-routed `Ninf_call` must yield a
//! single connected trace spanning client, metaserver, and server, be
//! drainable over the `QueryTrace` wire message, export as valid Chrome
//! `trace_event` JSON, and agree with the Prometheus metrics exposition.
//!
//! All tests here share the process-global flight recorder, so they only
//! ever arm it (never disarm) and always filter snapshots by trace id.

use std::collections::BTreeSet;

use ninf::client::NinfClient;
use ninf::metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf::obs::export::{
    chrome_trace_json, client_server_coverage, dedup, parse_chrome_trace, validate_nesting,
};
use ninf::obs::{http, recorder, Span, TraceContext};
use ninf::protocol::Value;
use ninf::server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
};

fn start_server() -> NinfServer {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    NinfServer::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            pes: 2,
            mode: ExecMode::TaskParallel,
            policy: SchedPolicy::Fcfs,
            ..Default::default()
        },
    )
    .expect("server starts")
}

fn linpack_args(n: usize) -> Vec<Value> {
    let (a, b) = ninf::exec::matgen(n);
    vec![
        Value::Int(n as i32),
        Value::DoubleArray(a.as_slice().to_vec()),
        Value::DoubleArray(b),
    ]
}

/// Wait for the server's connection thread to record its trailing "reply"
/// span before draining the recorder.
fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(50));
}

#[test]
fn metaserver_routed_call_yields_one_connected_trace() {
    recorder::global().set_enabled(true);
    let server = start_server();
    let mut dir = Directory::new();
    dir.register(ServerEntry {
        name: "node0".into(),
        addr: server.addr().to_string(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    let meta = Metaserver::new(dir, Balancing::RoundRobin);

    // The client's own root span: everything downstream parents under it.
    let ctx = TraceContext::root();
    let start = ninf::obs::now_us();
    let (outcome, trace_id) = meta.ninf_call_traced("linpack", &linpack_args(32), Some(ctx));
    recorder::global().record(Span::at(ctx, "call", "client", start));
    outcome.expect("routed call succeeds");
    assert_eq!(
        trace_id, ctx.trace_id,
        "metaserver reports the joined trace id"
    );

    settle();
    let spans = dedup(&recorder::global().snapshot(trace_id));

    // One trace, all three processes represented.
    let traces: BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(traces, BTreeSet::from([trace_id]));
    let processes: BTreeSet<&str> = spans.iter().map(|s| s.process.as_str()).collect();
    assert!(
        processes.is_superset(&BTreeSet::from(["client", "metaserver", "server"])),
        "expected spans from every hop, got {processes:?}"
    );

    // Connected: every span's parent chain reaches the client root span,
    // children stay inside their parents (slack absorbs the server's
    // post-send "reply" stamp), and client calls have server-side spans.
    validate_nesting(&spans, 10_000).expect("spans nest into one tree");
    let covered = client_server_coverage(&spans).expect("coverage holds");
    assert_eq!(covered, 1, "exactly one client call with server spans");
    for name in [
        "call",
        "forward",
        "route",
        "rpc",
        "invoke",
        "queue_wait",
        "exec",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "span `{name}` missing from {spans:#?}"
        );
    }

    // The export round-trips through the Chrome trace_event format.
    let json = chrome_trace_json(&spans);
    let parsed = parse_chrome_trace(&json).expect("exported JSON parses");
    assert_eq!(parsed.len(), spans.len());

    server.shutdown();
}

#[test]
fn query_trace_drains_spans_over_the_wire() {
    recorder::global().set_enabled(true);
    let server = start_server();
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    client.ninf_call("linpack", &linpack_args(24)).unwrap();
    let trace_id = client.last_trace_id();
    assert_ne!(trace_id, 0, "tracing was armed, so the call got a trace id");

    settle();
    let (process, _dropped, spans) = client.query_trace(trace_id).unwrap();
    assert_eq!(process, "server");
    assert!(!spans.is_empty(), "server returned its spans for the trace");
    assert!(spans.iter().all(|s| s.trace_id == trace_id));
    // In-process fleet: the server answers from the shared recorder, so the
    // reply holds both sides' spans; the server-side ones must be there.
    for name in ["invoke", "queue_wait", "exec"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == name && s.process == "server"),
            "missing server span `{name}`"
        );
    }

    server.shutdown();
}

#[test]
fn metrics_exposition_agrees_with_call_count() {
    recorder::global().set_enabled(true);
    let server = start_server();
    let registry = server.metrics().registry().clone();
    let addr = http::serve_metrics(registry, "127.0.0.1:0").expect("metrics endpoint binds");

    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let calls = 3usize;
    for _ in 0..calls {
        client.ninf_call("linpack", &linpack_args(16)).unwrap();
    }

    let body = http::fetch_metrics(&addr.to_string()).expect("metrics endpoint answers");
    let count: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("ninf_server_calls_total "))
        .expect("counter exposed")
        .trim()
        .parse()
        .expect("counter is a number");
    assert!(
        count >= calls as u64,
        "exposition reports at least this client's {calls} calls, got {count}"
    );
    assert!(body.contains("ninf_server_call_seconds_count"));
    assert!(body.contains("ninf_server_queued"));

    server.shutdown();
}

/// A traced call's server spans and its `QueryStats` record are read from
/// the same four clock readings, so they agree to the microsecond:
/// `queue_wait` is `wait()`, `exec` is `service()`, and `invoke` is
/// `total()`, starting at T_submit (before the arguments resolve — a
/// 320 KB matrix here, so a span that started later would be short by its
/// digest).
#[test]
fn server_spans_equal_the_calls_stats_record() {
    recorder::global().set_enabled(true);
    let server = start_server();
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    client.ninf_call("linpack", &linpack_args(200)).unwrap();
    let trace_id = client.last_trace_id();
    assert_ne!(trace_id, 0);

    let (_, total, records) = client.query_stats(0).unwrap();
    assert_eq!(total, 1);
    let rec = &records[0];
    settle();
    let spans = recorder::global().snapshot(trace_id);
    let span = |name: &str| {
        let found: Vec<&Span> = spans
            .iter()
            .filter(|s| s.process == "server" && s.name == name)
            .collect();
        assert_eq!(found.len(), 1, "one server `{name}` span");
        found[0].clone()
    };
    let (invoke, wait, exec) = (span("invoke"), span("queue_wait"), span("exec"));
    let agree = |us: u64, secs: f64, what: &str| {
        let gap = us as f64 - secs * 1e6;
        assert!(gap.abs() <= 1.0, "{what}: span {us} µs, record {secs} s");
    };
    agree(wait.dur_us, rec.wait(), "queue_wait");
    agree(exec.dur_us, rec.service(), "exec");
    agree(invoke.dur_us, rec.total(), "invoke");
    agree(
        wait.start_us - invoke.start_us,
        rec.t_enqueue - rec.t_submit,
        "invoke start → T_enqueue",
    );
    agree(
        exec.start_us - invoke.start_us,
        rec.t_dequeue - rec.t_submit,
        "invoke start → T_dequeue",
    );
    server.shutdown();
}
