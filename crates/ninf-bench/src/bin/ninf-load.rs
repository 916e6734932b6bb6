//! `ninf-load` — multi-client live load generator and measurement driver.
//!
//! ```text
//! ninf-load --scenario <name> [--clients <list>] [--seed <u64>]
//!           [--json <path>] [--csv <dir>] [--addr <host:port>]
//!           [--trace] [--trace-out <path>] [--no-arg-cache]
//!           [--assert-zero-errors] [--list]
//!
//! ninf-load --list                                  # scenario menu
//! ninf-load --scenario lan-linpack --clients 1,4,8  # Table 3-shaped sweep
//! ninf-load --scenario lan-ep --addr 127.0.0.1:5656 # against a live ninfd
//! ninf-load --scenario lan-ep --sweep               # coordinated rate ramp
//! ninf-load --scenario wan-upload --wan bw=4m,delay=20ms  # one windowed lane
//! ```
//!
//! Each client-count in `--clients` is one full live run: the scenario's
//! target is spawned (or dialed, with `--addr`), N real clients issue
//! `Ninf_call`s over TCP per the workload spec (a thread each when
//! closed-loop, one poller thread for all of them when open-loop), and the
//! run is reported with the §4.1 vocabulary — per-call Mflops, latency
//! percentiles, and the server-side `T_response`/`T_wait` decomposition.
//! `--trace` arms the
//! flight recorder for the whole sweep (every call carries trace context;
//! per-call trace ids land in the CSV/JSON); `--trace-out` additionally
//! writes every span this process recorded — for in-process targets that is
//! the client, metaserver, *and* server side — as Chrome `trace_event` JSON
//! loadable in Perfetto (merge spans fetched from external servers with
//! `ninf-trace fetch --merge`). The checked comparison of the live shape
//! with the simulator's is `ninf-chaos diff`.
//!
//! `--sweep` switches to the DiPerF-style coordinated saturation sweep: one
//! controller ramps the open-loop offered rate over `--sweep-stages` stages
//! of `--stage-secs` each (stage k offers k+1× the scenario's base rate),
//! polls every server's `QueryMetrics` window ring while the ramp runs, and
//! reports the throughput/latency-vs-offered-load curve with an automatic
//! latency-slope knee estimate plus the clock-skew-corrected merged
//! timeline. Each client sends a due call whatever it still has in flight,
//! up to 8 calls, and the `capped` column counts calls that found all 8
//! busy and waited. The client count is the single (first) `--clients`
//! value.
//! External targets (`--addr`) should run `ninfd --windows-ms` to serve
//! window series; a disarmed server yields an empty series, not an error.
//! With `--sweep`, `--json`/`--csv` emit the sweep report schema instead of
//! per-run reports.
//!
//! `--wan <spec>` installs the client-side link model (token-bucket bandwidth
//! cap, propagation delay, seeded loss, stalls and corruption — one grammar,
//! see `ninf_protocol::LinkShape::parse`) on the call connection and the
//! bulk lane; `off` clears a scenario's default. Each run's `--json`
//! document carries `bulk_bytes`, the image bytes its uploads shipped, so
//! `bulk_bytes / wall_secs` is that run's upload goodput.

use std::io::Write as _;

use ninf_bench::cli::{parse_args, parse_list, CliError};
use ninf_loadgen::{
    run_scenario, run_sweep, scenario, scenario_names, RunReport, SweepConfig, SweepReport, Target,
};

fn main() {
    let parsed = match parse_args(
        std::env::args().skip(1),
        &[
            "--scenario|-s",
            "--clients|-c",
            "--seed",
            "--json",
            "--csv",
            "--addr",
            "--trace-out",
            "--sweep-stages",
            "--stage-secs",
            "--window-ms",
            "--wan",
        ],
        &[
            "--list",
            "--assert-zero-errors",
            "--trace",
            "--no-arg-cache",
            "--sweep",
        ],
    ) {
        Ok(p) => p,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    };
    if let Some(extra) = parsed.positionals.first() {
        usage(&format!("unexpected argument `{extra}`"));
    }

    if parsed.has("--list") {
        for name in scenario_names() {
            let sc = scenario(name).expect("listed scenario exists");
            println!("{name:<14} {}", sc.about);
        }
        return;
    }

    let name = parsed
        .value("--scenario")
        .unwrap_or_else(|| usage("--scenario is required (or --list)"));
    let mut sc =
        scenario(name).unwrap_or_else(|| usage(&format!("unknown scenario `{name}` (try --list)")));
    if let Some(addr) = parsed.value("--addr") {
        sc.target = Target::External(addr.to_string());
    }
    if parsed.has("--no-arg-cache") {
        sc.spec.options.arg_cache = false;
    }
    if let Some(raw) = parsed.value("--wan") {
        if raw == "off" {
            sc.spec.options.wan = None;
        } else {
            match ninf_protocol::LinkShape::parse(raw) {
                Ok(shape) => sc.spec.options.wan = Some(shape),
                Err(e) => usage(&format!("--wan: {e}")),
            }
        }
    }
    let clients: Vec<usize> = match parsed.value("--clients") {
        Some(raw) => match parse_list(raw, "--clients") {
            Ok(v) if !v.is_empty() => v,
            Ok(_) => usage("--clients needs at least one count"),
            Err(CliError::Bad(msg)) => usage(&msg),
            Err(CliError::Help) => usage(""),
        },
        None => vec![4],
    };
    let seed: u64 = match parsed.parse("--seed") {
        Ok(v) => v.unwrap_or(1997),
        Err(CliError::Bad(msg)) => usage(&msg),
        Err(CliError::Help) => usage(""),
    };

    let trace_out = parsed.value("--trace-out");
    if parsed.has("--trace") || trace_out.is_some() {
        ninf_obs::recorder::global().set_enabled(true);
        eprintln!("# flight recorder armed");
    }

    if parsed.has("--sweep") {
        let mut cfg = SweepConfig::default();
        match parsed.parse::<usize>("--sweep-stages") {
            Ok(Some(n)) if n > 0 => cfg.stages = n,
            Ok(Some(_)) => usage("--sweep-stages needs a positive count"),
            Ok(None) => {}
            Err(CliError::Bad(msg)) => usage(&msg),
            Err(CliError::Help) => usage(""),
        }
        match parsed.parse::<f64>("--stage-secs") {
            Ok(Some(s)) if s > 0.0 => cfg.stage_secs = s,
            Ok(Some(_)) => usage("--stage-secs needs a positive duration"),
            Ok(None) => {}
            Err(CliError::Bad(msg)) => usage(&msg),
            Err(CliError::Help) => usage(""),
        }
        match parsed.parse::<u64>("--window-ms") {
            Ok(Some(ms)) if ms > 0 => cfg.window = std::time::Duration::from_millis(ms),
            Ok(Some(_)) => usage("--window-ms needs a positive millisecond count"),
            Ok(None) => {}
            Err(CliError::Bad(msg)) => usage(&msg),
            Err(CliError::Help) => usage(""),
        }
        let c = clients[0];
        eprintln!(
            "# sweep: scenario {name}, {c} client(s), seed {seed}, {} stage(s) x {:.1}s",
            cfg.stages, cfg.stage_secs
        );
        let report = match run_sweep(&sc, c, seed, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: sweep failed: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", render_live_sweep(&report));
        if let Some(dir) = parsed.value("--csv") {
            let dir = std::path::PathBuf::from(dir);
            let files = report.write_csv(&dir).expect("write sweep csv");
            eprintln!("# wrote {} CSV files to {}", files.len(), dir.display());
        }
        if let Some(path) = parsed.value("--json") {
            let mut f = std::fs::File::create(path).expect("create json output");
            writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&report.to_json()).expect("serialize")
            )
            .expect("write json");
            eprintln!("# wrote {path}");
        }
        if let Some(path) = trace_out {
            let rec = ninf_obs::recorder::global();
            let spans = ninf_obs::export::dedup(&rec.snapshot(0));
            let json = ninf_obs::export::chrome_trace_json(&spans);
            std::fs::write(path, json).expect("write trace output");
            eprintln!("# wrote {} span(s) to {path}", spans.len());
        }
        if parsed.has("--assert-zero-errors") {
            let errors: usize = report.points.iter().map(|p| p.errors).sum();
            if errors > 0 {
                eprintln!("error: {errors} call(s) failed across the sweep");
                std::process::exit(1);
            }
            eprintln!("# zero errors across {} stage(s)", report.points.len());
        }
        return;
    }

    eprintln!("# scenario {name}, seed {seed}: {}", sc.about);
    let mut reports = Vec::new();
    for &c in &clients {
        eprintln!("# running {c} client(s) ...");
        match run_scenario(&sc, c, seed) {
            Ok(report) => {
                print!("{}", render(&report));
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: run with {c} client(s) failed: {e}");
                std::process::exit(1);
            }
        }
    }

    print!("{}", render_sweep(&reports));
    // Process-wide argument-cache counters: how many argument slots this
    // sweep shipped as digests and how many the servers asked back inline.
    let (argref_sent, argref_refilled) = (
        ninf_client::argmem::argref_sent().get(),
        ninf_client::argmem::argref_refilled().get(),
    );
    eprintln!("# arg cache: {argref_sent} ref(s) sent, {argref_refilled} refilled inline");

    if let Some(dir) = parsed.value("--csv") {
        let dir = std::path::PathBuf::from(dir);
        let mut count = 0;
        for r in &reports {
            count += r.write_csv(&dir).expect("write csv").len();
        }
        eprintln!("# wrote {count} CSV files to {}", dir.display());
    }
    if let Some(path) = parsed.value("--json") {
        let doc = sweep_json(&reports, seed);
        let mut f = std::fs::File::create(path).expect("create json output");
        writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&doc).expect("serialize")
        )
        .expect("write json");
        eprintln!("# wrote {path}");
    }

    if let Some(path) = trace_out {
        let rec = ninf_obs::recorder::global();
        let spans = ninf_obs::export::dedup(&rec.snapshot(0));
        let json = ninf_obs::export::chrome_trace_json(&spans);
        std::fs::write(path, json).expect("write trace output");
        eprintln!(
            "# wrote {} span(s) to {path} ({} dropped by the ring)",
            spans.len(),
            rec.dropped()
        );
    }

    if parsed.has("--assert-zero-errors") {
        let errors: usize = reports.iter().map(|r| r.fleet.errors()).sum();
        if errors > 0 {
            eprintln!("error: {errors} call(s) failed across the sweep");
            std::process::exit(1);
        }
        eprintln!("# zero errors across {} run(s)", reports.len());
    }
}

/// One run, rendered in the paper's table vocabulary.
fn render(r: &RunReport) -> String {
    let mut s = format!(
        "-----------------------------------------------------------------\n\
         {} c={} seed={} ({})\n\
         -----------------------------------------------------------------\n",
        r.scenario, r.clients, r.seed, r.workload
    );
    s += &format!(
        "calls {} ok {} errors {} (remote {}, timeout {}, transport {}) retries {}\n",
        r.fleet.calls,
        r.fleet.ok,
        r.fleet.errors(),
        r.fleet.remote_errors,
        r.fleet.timeouts,
        r.fleet.transport_errors,
        r.fleet.retries
    );
    s += &format!(
        "latency  mean {:.4}s  p50 {:.4}s  p95 {:.4}s  p99 {:.4}s\n",
        r.fleet.latency.mean, r.fleet.p50, r.fleet.p95, r.fleet.p99
    );
    if r.fleet.perf_calls > 0 {
        s += &format!(
            "per-call Mflops  mean {:.2}  max {:.2}  min {:.2}",
            r.fleet.perf.mean, r.fleet.perf.max, r.fleet.perf.min
        );
        if let Some(agg) = r.aggregate_mflops() {
            s += &format!("  (aggregate {agg:.2})");
        }
        s.push('\n');
    }
    s += &format!(
        "throughput {:.2} calls/s over {:.2}s wall\n",
        r.fleet.calls_per_sec, r.wall_secs
    );
    let bulk = r.bulk_bytes();
    if bulk > 0 && r.wall_secs > 0.0 {
        s += &format!(
            "bulk upload {:.2} MiB = {:.3} MB/s over the wall time\n",
            bulk as f64 / (1024.0 * 1024.0),
            bulk as f64 / r.wall_secs / 1e6
        );
    }
    if let Some(server) = &r.server {
        s += &format!(
            "server (n={})  T_response mean {:.4}s max {:.4}s  T_wait mean {:.4}s max {:.4}s  service mean {:.4}s\n",
            server.records,
            server.response.mean,
            server.response.max,
            server.wait.mean,
            server.wait.max,
            server.service.mean
        );
    }
    s += "per-client:\n";
    for c in &r.per_client {
        s += &format!(
            "  client {:<3} calls {:<4} ok {:<4} err {:<3} mean {:.4}s p95 {:.4}s",
            c.client,
            c.calls,
            c.ok,
            c.errors(),
            c.latency.mean,
            c.p95
        );
        if c.perf_calls > 0 {
            s += &format!("  {:.2} Mflops", c.perf.mean);
        }
        s.push('\n');
    }
    s
}

/// The sweep summary: the Table 3/4 shape — one row per client count.
fn render_sweep(reports: &[RunReport]) -> String {
    let mut s = String::from(
        "=================================================================\n\
         scalability sweep (Table 3/4 shape)\n\
         =================================================================\n\
         clients  mean-Mflops  max      min      p95-lat   errors\n",
    );
    for r in reports {
        let perf = |v: f64| {
            if r.fleet.perf_calls > 0 {
                format!("{v:.2}")
            } else {
                "-".into()
            }
        };
        s += &format!(
            "{:<8} {:<12} {:<8} {:<8} {:<9.4} {}\n",
            r.clients,
            perf(r.fleet.perf.mean),
            perf(r.fleet.perf.max),
            perf(r.fleet.perf.min),
            r.fleet.p95,
            r.fleet.errors()
        );
    }
    s
}

/// The coordinated sweep: curve, knee, and merged-timeline summary.
fn render_live_sweep(r: &SweepReport) -> String {
    let mut s = format!(
        "=================================================================\n\
         coordinated saturation sweep: {} c={} seed={} (base {:.1} Hz/client)\n\
         =================================================================\n\
         stage  rate/client  offered-Hz  calls  ok     err  capped  tput-Hz  lat-mean   lat-p95\n",
        r.scenario, r.clients, r.seed, r.base_rate_hz
    );
    for p in &r.points {
        s += &format!(
            "{:<6} {:<12.1} {:<11.1} {:<6} {:<6} {:<4} {:<7} {:<8.2} {:<10.4} {:<10.4}\n",
            p.stage,
            p.rate_hz_per_client,
            p.offered_hz,
            p.calls,
            p.ok,
            p.errors,
            p.generator_capped,
            p.throughput_hz,
            p.latency.mean,
            p.latency_p95_s,
        );
    }
    match &r.knee {
        Some(k) if k.saturated => {
            s += &format!(
                "knee: stage {} at {:.1} Hz offered ({:.2} Hz delivered, {:.4}s mean latency) — saturated\n",
                k.stage, k.offered_hz, k.throughput_hz, k.latency_mean_s
            );
        }
        Some(k) => {
            s += &format!(
                "knee: not reached; highest measured {:.1} Hz offered ({:.2} Hz delivered) — ramp further\n",
                k.offered_hz, k.throughput_hz
            );
        }
        None => s += "knee: no data\n",
    }
    s += &format!(
        "timeline: {:.0} ms windows, {} client bucket(s)",
        r.timeline.window_secs * 1e3,
        r.timeline.client.len()
    );
    for remote in &r.timeline.remotes {
        s += &format!(
            "; {} {} window(s) (skew {:+.4}s, {} poll(s), {} dropped)",
            remote.source,
            remote.frames.len(),
            remote.clock_skew_s,
            remote.polls,
            remote.dropped
        );
    }
    s += &format!(
        "\nschedule fingerprint {:#018x} over {:.2}s wall\n",
        r.schedule_fnv, r.wall_secs
    );
    s
}

/// The whole sweep as one JSON document (experiments.json schema family).
fn sweep_json(reports: &[RunReport], seed: u64) -> serde_json::Value {
    let mut doc = serde_json::Map::new();
    doc.insert("seed".into(), serde_json::json!(seed));
    if let Some(first) = reports.first() {
        doc.insert(
            "scenario".into(),
            serde_json::json!(first.scenario.as_str()),
        );
        doc.insert(
            "workload".into(),
            serde_json::json!(first.workload.as_str()),
        );
    }
    doc.insert(
        "argref_sent".into(),
        serde_json::json!(ninf_client::argmem::argref_sent().get()),
    );
    doc.insert(
        "argref_refilled".into(),
        serde_json::json!(ninf_client::argmem::argref_refilled().get()),
    );
    doc.insert(
        "runs".into(),
        serde_json::Value::Array(reports.iter().map(|r| r.to_json()).collect()),
    );
    serde_json::Value::Object(doc)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ninf-load --scenario <name> [--clients <list>] [--seed <u64>]\n\
        \x20                [--json <path>] [--csv <dir>] [--addr <host:port>]\n\
        \x20                [--trace] [--trace-out <path>] [--no-arg-cache]\n\
        \x20                [--sweep] [--sweep-stages <n>] [--stage-secs <s>]\n\
        \x20                [--window-ms <ms>] [--wan <spec|off>]\n\
        \x20                [--assert-zero-errors] [--list]\n\
         scenarios: {}",
        scenario_names().join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
