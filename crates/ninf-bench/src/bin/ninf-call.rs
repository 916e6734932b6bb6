//! `ninf-call` — command-line Ninf client.
//!
//! ```text
//! ninf-call [--deadline <secs>] [--retries <n>] [--json] <addr> <command>
//!
//! ninf-call <addr> list                     # routines the server exports
//! ninf-call <addr> interface <routine>      # show its compiled interface
//! ninf-call <addr> load                     # server load report
//! ninf-call <addr> ep <m>                   # run 2^m EP trials remotely
//! ninf-call <addr> linpack <n>              # generate + solve an n x n system
//! ninf-call <addr> query "<Ninf_query>"     # database query (GET/LIST/INFO/DIMS)
//! ```
//!
//! `--deadline` bounds every connect/read/write on the wire; a server that
//! accepts but never replies then fails with a typed timeout instead of
//! hanging the call. `--retries` re-checks-out with exponential backoff on
//! retryable (non-remote) errors. Connections come from the process-wide
//! connection pool — each client gives its connection back when done, and
//! the next one to the same server reuses it rather than dialing. `--json`
//! (for `ep` and `linpack`) emits the call's timing decomposition —
//! connect, interface fetch, marshal, server wall time, transfer, total —
//! plus `stream_reused` (whether the measured call rode an idle pooled
//! connection) and the argument-cache accounting — `bytes_sent` on the
//! wire, `args_refd` (argument slots shipped as digests), `args_refilled`
//! (slots the server asked back inline) — as one JSON object on stdout
//! instead of prose; the server-side wall time is joined from the server's
//! own §4.1 stats via `QueryStats`.

use std::time::Duration;

use ninf_bench::cli::{parse_args, CliError};
use ninf_client::{CallOptions, CallTiming, NinfClient};
use ninf_protocol::Value;
use ninf_reactor::global_pool;

fn main() {
    let parsed = match parse_args(
        std::env::args().skip(1),
        &["--deadline", "--retries"],
        &["--json"],
    ) {
        Ok(p) => p,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    };
    let mut options = CallOptions::default();
    match parsed.parse::<f64>("--deadline") {
        Ok(Some(secs)) => options.deadline = Some(Duration::from_secs_f64(secs)),
        Ok(None) => {}
        Err(_) => usage("--deadline needs seconds"),
    }
    match parsed.parse::<u32>("--retries") {
        Ok(Some(n)) => options.retries = n,
        Ok(None) => {}
        Err(_) => usage("--retries needs a count"),
    }
    let json = parsed.has("--json");
    let (addr, cmd, rest) = match parsed.positionals.as_slice() {
        [addr, cmd, rest @ ..] => (addr.clone(), cmd.clone(), rest.to_vec()),
        _ => usage("need <addr> and a command"),
    };
    if json && !matches!(cmd.as_str(), "ep" | "linpack") {
        usage("--json is supported for `ep` and `linpack`");
    }

    match cmd.as_str() {
        "list" => {
            let mut client = connect(&addr, options);
            for (name, doc) in client.list_routines().unwrap_or_else(die) {
                println!("{name:<10} {doc}");
            }
        }
        "interface" => {
            let routine = rest
                .first()
                .unwrap_or_else(|| usage("interface needs a routine"));
            let mut client = connect(&addr, options);
            let iface = client.query_interface(routine).unwrap_or_else(die).clone();
            println!("routine : {}", iface.name);
            println!("doc     : {}", iface.doc);
            println!("scalars : {:?}", iface.scalar_table);
            for p in &iface.params {
                println!(
                    "  {:<8} {:?} {} dim(s): {}",
                    p.name,
                    p.base,
                    p.mode.keyword(),
                    p.dims.len()
                );
            }
        }
        "load" => {
            let mut client = connect(&addr, options);
            let r = client.query_load().unwrap_or_else(die);
            println!(
                "pes={} running={} queued={} load={:.2} cpu={:.1}%",
                r.pes, r.running, r.queued, r.load_average, r.cpu_utilization
            );
        }
        "ep" => {
            let m: i32 = parse_num(rest.first(), "ep needs the trial exponent m");
            let timed = timed_call(&addr, options, "ep", vec![Value::Int(m)]);
            if json {
                print_json("ep", m as i64, None, &timed);
                return;
            }
            let (out, dt) = timed.expect_ok();
            let Value::DoubleArray(sums) = &out[0] else {
                unreachable!()
            };
            let Value::DoubleArray(counts) = &out[1] else {
                unreachable!()
            };
            let accepted: f64 = counts.iter().sum();
            println!(
                "2^{m} trials in {dt:.3}s: sx={:.3} sy={:.3} accepted={accepted} ({:.4} of trials)",
                sums[0],
                sums[1],
                accepted / 2f64.powi(m)
            );
        }
        "linpack" => {
            let n: usize = parse_num(rest.first(), "linpack needs the matrix order n");
            let (a, b) = ninf_exec::random_matrix(n, 1997);
            let timed = timed_call(
                &addr,
                options,
                "linpack",
                vec![
                    Value::Int(n as i32),
                    Value::DoubleArray(a.as_slice().to_vec()),
                    Value::DoubleArray(b.clone()),
                ],
            );
            if json {
                let flops = ninf_exec::linpack_flops(n as u64);
                print_json("linpack", n as i64, Some(flops), &timed);
                return;
            }
            let (out, dt) = timed.expect_ok();
            let Value::DoubleArray(x) = &out[0] else {
                unreachable!()
            };
            let resid = ninf_exec::residual_check(&a, x, &b);
            let mflops = ninf_exec::linpack_flops(n as u64) as f64 / dt / 1e6;
            println!(
                "solved {n}x{n} in {dt:.3}s ({mflops:.1} Mflops observed), residual check {resid:.2}"
            );
            println!(
                "moved {} bytes out / {} back (8n^2+20n = {})",
                timed.bytes_sent,
                timed.bytes_received,
                ninf_exec::linpack_message_bytes(n as u64)
            );
        }
        "query" => {
            let q = rest.join(" ");
            if q.is_empty() {
                usage("query needs a Ninf_query string");
            }
            let mut client = connect(&addr, options);
            let (desc, values) = client.ninf_query(&q).unwrap_or_else(die);
            println!("{desc}");
            for v in values {
                match v {
                    Value::DoubleArray(d) if d.len() > 12 => {
                        println!("  [{} doubles] {:?} ...", d.len(), &d[..8])
                    }
                    other => println!("  {other:?}"),
                }
            }
        }
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// One measured call: outcome, timing decomposition, and the server-side
/// wall time joined from `QueryStats`.
struct TimedCall {
    result: Result<Vec<Value>, ninf_protocol::ProtocolError>,
    /// Initial dial (the in-call `timing.connect` only counts redials).
    connect: f64,
    timing: CallTiming,
    /// Server-observed wall time of this call (`T_complete − T_submit` on
    /// the server clock), when the stats join succeeded.
    server_wall: Option<f64>,
    /// Whether the measured call's checkout reused an idle pooled
    /// connection.
    stream_reused: bool,
    bytes_sent: usize,
    bytes_received: usize,
}

impl TimedCall {
    fn expect_ok(&self) -> (&[Value], f64) {
        match &self.result {
            Ok(out) => (out, self.timing.total),
            Err(e) => die_ref(e),
        }
    }
}

/// Mark the server's stats cursor on one pooled checkout, issue the call
/// on another (which reuses the connection the cursor client dialed and
/// gave back), and join the server-side record for it.
fn timed_call(addr: &str, options: CallOptions, routine: &str, args: Vec<Value>) -> TimedCall {
    // The cursor client's checkout dials the pooled connection and gives it
    // back; the measured call below then checks it out again — a pool hit.
    let mut stats = connect(addr, options);
    let cursor = stats.query_stats(u64::MAX).map(|(_, total, _)| total).ok();
    stats.release();
    let t0 = std::time::Instant::now();
    let mut client = connect(addr, options);
    let connect = t0.elapsed().as_secs_f64();
    let stream_reused = client.stream_reused();
    let result = client.ninf_call(routine, &args);
    let timing = client.last_timing().unwrap_or_default();
    let server_wall = cursor.and_then(|since| {
        let (_, _, records) = stats.query_stats(since).ok()?;
        records
            .iter()
            .rev()
            .find(|r| r.routine == routine)
            .map(|r| r.total())
    });
    TimedCall {
        result,
        connect,
        timing,
        server_wall,
        stream_reused,
        bytes_sent: client.bytes_sent(),
        bytes_received: client.bytes_received(),
    }
}

/// Emit the per-call timing decomposition as one JSON object on stdout.
fn print_json(routine: &str, n: i64, flops: Option<u64>, timed: &TimedCall) {
    println!(
        "{}",
        serde_json::to_string_pretty(&call_json(routine, n, flops, timed)).expect("serialize")
    );
    if timed.result.is_err() {
        std::process::exit(1);
    }
}

/// The `--json` document. The key set is documented in
/// `docs/OBSERVABILITY.md` ("`ninf-call --json` schema") and a test below
/// holds the two in lockstep.
fn call_json(routine: &str, n: i64, flops: Option<u64>, timed: &TimedCall) -> serde_json::Value {
    let t = timed.timing;
    let mut timings = serde_json::Map::new();
    timings.insert(
        "connect".into(),
        serde_json::json!(timed.connect + t.connect),
    );
    timings.insert("interface".into(), serde_json::json!(t.interface));
    timings.insert("marshal".into(), serde_json::json!(t.marshal));
    timings.insert("roundtrip".into(), serde_json::json!(t.roundtrip));
    if let Some(wall) = timed.server_wall {
        timings.insert("server_wall".into(), serde_json::json!(wall));
        // Wire time: what the round trip spent outside the server. Clamped
        // at zero — client and server clocks are not synchronized, so the
        // raw difference can go (meaninglessly) negative; the raw value is
        // surfaced separately as `clock_skew` so skew stays observable.
        timings.insert(
            "transfer".into(),
            serde_json::json!((t.roundtrip - wall).max(0.0)),
        );
        timings.insert("clock_skew".into(), serde_json::json!(t.roundtrip - wall));
    }
    timings.insert("total".into(), serde_json::json!(t.total));
    let mut doc = serde_json::Map::new();
    doc.insert("routine".into(), serde_json::json!(routine));
    doc.insert("n".into(), serde_json::json!(n));
    doc.insert("ok".into(), serde_json::json!(timed.result.is_ok()));
    if let Err(e) = &timed.result {
        doc.insert("error".into(), serde_json::json!(e.to_string()));
    }
    doc.insert("timings".into(), serde_json::Value::Object(timings));
    doc.insert(
        "stream_reused".into(),
        serde_json::json!(timed.stream_reused),
    );
    doc.insert("attempts".into(), serde_json::json!(t.attempts));
    doc.insert(
        "request_bytes".into(),
        serde_json::json!(t.request_bytes as u64),
    );
    doc.insert(
        "reply_bytes".into(),
        serde_json::json!(t.reply_bytes as u64),
    );
    doc.insert(
        "bytes_sent".into(),
        serde_json::json!(timed.bytes_sent as u64),
    );
    doc.insert("args_refd".into(), serde_json::json!(t.args_refd));
    doc.insert("args_refilled".into(), serde_json::json!(t.args_refilled));
    if let (Some(flops), true) = (flops, timed.result.is_ok()) {
        doc.insert(
            "mflops".into(),
            serde_json::json!(flops as f64 / t.total / 1e6),
        );
    }
    serde_json::Value::Object(doc)
}

/// Check a pooled client out of the process-wide pool (dialing only when no
/// idle connection to `addr` is there). A refused or timed-out dial
/// is retried under `options` by the client itself.
fn connect(addr: &str, options: CallOptions) -> NinfClient {
    NinfClient::connect_pooled(addr, options, global_pool().clone()).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

fn parse_num<T: std::str::FromStr>(v: Option<&String>, msg: &str) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(msg))
}

fn die<T>(e: ninf_protocol::ProtocolError) -> T {
    die_ref(&e)
}

fn die_ref<T>(e: &ninf_protocol::ProtocolError) -> T {
    eprintln!("error: {e}");
    if let ninf_protocol::ProtocolError::UnsupportedVersion { got, want } = e {
        if *got < *want {
            eprintln!(
                "hint: the server speaks frame version {got}, this client needs v{want} \
                 (checksummed framing); upgrade the server — retrying will not help"
            );
        } else {
            eprintln!(
                "hint: the server speaks frame version {got}, newer than this client's \
                 v{want}; upgrade this client — retrying will not help"
            );
        }
    }
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ninf-call [--deadline <secs>] [--retries <n>] [--json] <addr> \
         <list | interface <routine> | load | ep <m> | linpack <n> | query \"...\">"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn timed(ok: bool) -> TimedCall {
        TimedCall {
            result: if ok {
                Ok(vec![])
            } else {
                Err(ninf_protocol::ProtocolError::Frame("boom".into()))
            },
            connect: 0.001,
            timing: CallTiming::default(),
            server_wall: Some(0.5),
            stream_reused: true,
            bytes_sent: 10,
            bytes_received: 10,
        }
    }

    /// Flatten a document's keys the way the doc table writes them:
    /// top-level names plus `timings.<name>` for the nested object.
    fn flat_keys(doc: &serde_json::Value, out: &mut BTreeSet<String>) {
        for (k, v) in doc.as_object().expect("object").iter() {
            if k == "timings" {
                for (tk, _) in v.as_object().expect("timings object").iter() {
                    out.insert(format!("timings.{tk}"));
                }
            } else {
                out.insert(k.clone());
            }
        }
    }

    /// The `--json` key set and the table in docs/OBSERVABILITY.md must
    /// not drift apart: every backticked key in the schema table appears
    /// in an emitted document and vice versa. The union of a successful
    /// call (with flops, with a stats join) and a failed one covers every
    /// optional key.
    #[test]
    fn json_schema_matches_documented_key_set() {
        let mut emitted = BTreeSet::new();
        flat_keys(
            &call_json("linpack", 600, Some(1_000_000), &timed(true)),
            &mut emitted,
        );
        flat_keys(&call_json("ep", 20, None, &timed(false)), &mut emitted);

        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/OBSERVABILITY.md"
        ))
        .expect("read docs/OBSERVABILITY.md");
        let section = doc
            .split("## `ninf-call --json` schema")
            .nth(1)
            .expect("doc has the `ninf-call --json` schema section")
            .split("\n## ")
            .next()
            .unwrap();
        let documented: BTreeSet<String> = section
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix("| `")?;
                Some(rest.split('`').next()?.to_string())
            })
            .collect();
        assert!(!documented.is_empty(), "schema table parsed empty");
        assert_eq!(
            documented, emitted,
            "docs/OBSERVABILITY.md schema table and call_json() disagree"
        );
    }
}
