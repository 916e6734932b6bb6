//! `ninf-load` — multi-client live load generator and measurement driver.
//!
//! ```text
//! ninf-load --scenario <name> [--clients <list>] [--seed <u64>]
//!           [--json <path>] [--csv <dir>] [--addr <host:port>]
//!           [--trace] [--trace-out <path>] [--no-arg-cache]
//!           [--compare-sim] [--assert-zero-errors] [--list]
//!
//! ninf-load --list                                  # scenario menu
//! ninf-load --scenario lan-linpack --clients 1,4,8  # Table 3-shaped sweep
//! ninf-load --scenario lan-ep --addr 127.0.0.1:5656 # against a live ninfd
//! ninf-load --scenario lan-ep --sweep               # coordinated rate ramp
//! ninf-load --scenario wan-streams --streams 1,2,4,8,16 \
//!           --wan bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997
//! ```
//!
//! Each client-count in `--clients` is one full live run: the scenario's
//! target is spawned (or dialed, with `--addr`), N real client threads issue
//! `Ninf_call`s over TCP per the workload spec, and the run is reported with
//! the §4.1 vocabulary — per-call Mflops, latency percentiles, and the
//! server-side `T_response`/`T_wait` decomposition. `--trace` arms the
//! flight recorder for the whole sweep (every call carries trace context;
//! per-call trace ids land in the CSV/JSON); `--trace-out` additionally
//! writes every span this process recorded — for in-process targets that is
//! the client, metaserver, *and* server side — as Chrome `trace_event` JSON
//! loadable in Perfetto (merge spans fetched from external servers with
//! `ninf-trace fetch --merge`). `--compare-sim` re-runs
//! the simulator's Table 3/4 experiment in-process at the same seed and
//! prints the live and simulated scalability shapes side by side.
//!
//! `--sweep` switches to the DiPerF-style coordinated saturation sweep: one
//! controller ramps the open-loop offered rate over `--sweep-stages` stages
//! of `--stage-secs` each (stage k offers k+1× the scenario's base rate),
//! polls every server's `QueryMetrics` window ring while the ramp runs, and
//! reports the throughput/latency-vs-offered-load curve with an automatic
//! latency-slope knee estimate plus the clock-skew-corrected merged
//! timeline. The client count is the single (first) `--clients` value.
//! External targets (`--addr`) should run `ninfd --windows-ms` to serve
//! window series; a disarmed server yields an empty series, not an error.
//! With `--sweep`, `--compare-sim` runs the simulator's `sweep-lan` client
//! ramp at the same seed and prints the two knee locations side by side,
//! and `--json`/`--csv` emit the sweep report schema instead of per-run
//! reports.
//!
//! `--wan <spec>` installs the client-side link model (token-bucket bandwidth
//! cap, propagation delay, seeded loss, stalls and corruption — one grammar,
//! see `ninf_protocol::LinkShape::parse`) on the call connection and every
//! bulk lane; `off` clears a scenario's
//! default. `--streams <list>` switches to the parallel-stream goodput
//! curve: one full run per stream count `N`, reporting bulk payload bytes
//! over wall time per point — the GridFTP-style throughput-vs-N shape
//! committed as `results/BENCH_wan.json`.

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
            "--streams",
        ],
        &[
            "--list",
            "--compare-sim",
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

    // `--streams`: the parallel-stream goodput curve (the GridFTP shape).
    // One full run per stream count; a run's goodput is its bulk-shipped
    // payload bytes over its wall time, so the curve directly answers "how
    // many parallel lanes does this link reward?".
    if let Some(raw) = parsed.value("--streams") {
        if parsed.has("--sweep") {
            usage("--streams and --sweep are mutually exclusive");
        }
        let list: Vec<u32> = match parse_list(raw, "--streams") {
            Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 1) => v,
            Ok(_) => usage("--streams needs a comma list of counts >= 1"),
            Err(CliError::Bad(msg)) => usage(&msg),
            Err(CliError::Help) => usage(""),
        };
        let c = clients[0];
        eprintln!("# goodput curve: scenario {name}, {c} client(s), seed {seed}, N in {list:?}");
        if let Some(shape) = &sc.spec.options.wan {
            eprintln!("# client-side link shape: {shape}");
        }
        let mut points = Vec::new();
        for &n in &list {
            sc.spec.options.streams = n;
            // Each curve point is an independent cold-start measurement. A
            // spawned target gets a fresh port per run, but an external
            // `--addr` is one destination across the whole curve — without
            // this, run N's pre-shipped digests turn run N+1's uploads
            // into refs and its goodput reads as zero.
            if let Target::External(addr) = &sc.target {
                ninf_client::argmem::forget_destination(addr);
            }
            eprintln!("# running N={n} stream(s) ...");
            match run_scenario(&sc, c, seed) {
                Ok(report) => points.push(wan_point(n, &report)),
                Err(e) => {
                    eprintln!("error: run with {n} stream(s) failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        print!("{}", render_wan_curve(&sc, seed, &points));
        if let Some(path) = parsed.value("--json") {
            let doc = wan_json(&sc, seed, c, &points);
            let mut f = std::fs::File::create(path).expect("create json output");
            writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&doc).expect("serialize")
            )
            .expect("write json");
            eprintln!("# wrote {path}");
        }
        if parsed.has("--assert-zero-errors") {
            let errors: usize = points.iter().map(|p| p.errors).sum();
            if errors > 0 {
                eprintln!("error: {errors} call(s) failed across the curve");
                std::process::exit(1);
            }
            eprintln!("# zero errors across {} point(s)", points.len());
        }
        return;
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
        if parsed.has("--compare-sim") {
            print!("{}", compare_sim_sweep(&report, seed));
        }
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
    if parsed.has("--compare-sim") {
        print!("{}", compare_sim(&reports, seed));
    }
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

/// One stream count's worth of the goodput curve.
struct WanPoint {
    streams: u32,
    /// Bulk payload bytes shipped over the lanes (retransmits excluded).
    bulk_bytes: u64,
    /// Chunk retransmits forced by losses.
    retransmits: u64,
    wall_secs: f64,
    /// `bulk_bytes / wall_secs`.
    goodput: f64,
    ok: usize,
    errors: usize,
    latency_mean_s: f64,
}

/// Fold one run into its curve point.
fn wan_point(streams: u32, r: &RunReport) -> WanPoint {
    let bulk_bytes: u64 = r.calls.iter().map(|c| c.timing.bulk_bytes as u64).sum();
    let retransmits: u64 = r
        .calls
        .iter()
        .map(|c| u64::from(c.timing.bulk_retransmits))
        .sum();
    WanPoint {
        streams,
        bulk_bytes,
        retransmits,
        wall_secs: r.wall_secs,
        goodput: if r.wall_secs > 0.0 {
            bulk_bytes as f64 / r.wall_secs
        } else {
            0.0
        },
        ok: r.fleet.ok,
        errors: r.fleet.errors(),
        latency_mean_s: r.fleet.latency.mean,
    }
}

/// The goodput-vs-streams table, with the best-N / N=1 ratio the WAN
/// acceptance gate checks.
fn render_wan_curve(sc: &ninf_loadgen::Scenario, seed: u64, points: &[WanPoint]) -> String {
    let mut s = format!(
        "=================================================================\n\
         parallel-stream goodput curve: {} seed={} wan={}\n\
         =================================================================\n\
         streams  bulk-MiB  wall-s   goodput-MiB/s  retx  ok     errors  lat-mean\n",
        sc.name,
        seed,
        sc.spec
            .options
            .wan
            .map(|w| w.to_string())
            .unwrap_or_else(|| "off".into()),
    );
    for p in points {
        s += &format!(
            "{:<8} {:<9.2} {:<8.2} {:<14.3} {:<5} {:<6} {:<7} {:.4}s\n",
            p.streams,
            p.bulk_bytes as f64 / (1024.0 * 1024.0),
            p.wall_secs,
            p.goodput / (1024.0 * 1024.0),
            p.retransmits,
            p.ok,
            p.errors,
            p.latency_mean_s,
        );
    }
    let base = points.iter().find(|p| p.streams == 1);
    let best = points.iter().max_by(|a, b| a.goodput.total_cmp(&b.goodput));
    if let (Some(base), Some(best)) = (base, best) {
        if base.goodput > 0.0 {
            s += &format!(
                "best: N={} at {:.3} MiB/s = {:.2}x the N=1 goodput\n",
                best.streams,
                best.goodput / (1024.0 * 1024.0),
                best.goodput / base.goodput
            );
        }
    }
    s
}

/// The committed `results/BENCH_wan.json` document.
fn wan_json(
    sc: &ninf_loadgen::Scenario,
    seed: u64,
    clients: usize,
    points: &[WanPoint],
) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "wan-streams",
        "scenario": sc.name,
        "seed": seed,
        "clients": clients as u64,
        "wan": sc.spec.options.wan.map(|w| w.to_string()),
        "chunk_bytes": sc.spec.options.chunk_bytes,
        "lane_deadline_ms": sc.spec.options.lane_deadline.map(|d| d.as_millis() as u64),
        "calls_per_client": sc.spec.calls_per_client as u64,
        "points": points.iter().map(|p| serde_json::json!({
            "streams": p.streams,
            "goodput_bytes_per_sec": p.goodput,
            "bulk_bytes": p.bulk_bytes,
            "retransmits": p.retransmits,
            "wall_secs": p.wall_secs,
            "ok": p.ok as u64,
            "errors": p.errors as u64,
            "latency_mean_s": p.latency_mean_s,
        })).collect::<Vec<_>>(),
    })
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

/// Live-vs-sim comparison: re-run the simulator's 1-PE LAN Linpack table
/// (Table 3) in-process at the same seed and set the two scalability shapes
/// side by side, each normalized to its own c=1 run.
///
/// Absolute numbers differ by design — the sim models the paper's J90 and
/// n∈{600,1000,1400}, the live run measures this host — so the comparable
/// signal is the *decline shape* of per-call Mflops as clients contend.
fn compare_sim(reports: &[RunReport], seed: u64) -> String {
    let sim = match ninf_sim::experiments::run("table3", seed) {
        Some(out) => out,
        None => return String::from("# --compare-sim: sim experiment table3 unavailable\n"),
    };
    // Pick the sim's smallest-n workload row set (closest to the live rig).
    let cells: Vec<&serde_json::Value> = match sim.json.as_array() {
        Some(cells) => cells
            .iter()
            .filter(|c| c["workload"].as_str().is_some_and(|w| w == "linpack n=600"))
            .collect(),
        None => Vec::new(),
    };
    let sim_at = |clients: usize| -> Option<(f64, f64, f64)> {
        let cell = cells
            .iter()
            .find(|c| c["clients"].as_u64() == Some(clients as u64))?;
        Some((
            cell["perf"]["mean"].as_f64()?,
            cell["response"]["mean"].as_f64()?,
            cell["wait"]["mean"].as_f64()?,
        ))
    };

    let mut s = String::from(
        "=================================================================\n\
         live vs sim (Table 3 shape, each normalized to its own c=1)\n\
         =================================================================\n\
         clients  live-Mflops  live-norm  sim-Mflops  sim-norm   sim-T_wait\n",
    );
    let live_base = reports
        .iter()
        .find(|r| r.clients == 1)
        .map(|r| r.fleet.perf.mean);
    let sim_base = sim_at(1).map(|(m, _, _)| m);
    for r in reports {
        let live_norm = match live_base {
            Some(b) if b > 0.0 => format!("{:.3}", r.fleet.perf.mean / b),
            _ => "-".into(),
        };
        let (sim_m, sim_norm, sim_wait) = match (sim_at(r.clients), sim_base) {
            (Some((m, _resp, wait)), Some(b)) if b > 0.0 => (
                format!("{m:.2}"),
                format!("{:.3}", m / b),
                format!("{wait:.3}s"),
            ),
            (Some((m, _resp, wait)), _) => (format!("{m:.2}"), "-".into(), format!("{wait:.3}s")),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        s += &format!(
            "{:<8} {:<12.2} {:<10} {:<11} {:<10} {}\n",
            r.clients, r.fleet.perf.mean, live_norm, sim_m, sim_norm, sim_wait
        );
    }
    s += "# sim rows: table3, linpack n=600 on the modeled J90; live rows: this host.\n\
          # the comparable signal is the normalized per-call decline, not absolutes.\n";
    s
}

/// The coordinated sweep: curve, knee, and merged-timeline summary.
fn render_live_sweep(r: &SweepReport) -> String {
    let mut s = format!(
        "=================================================================\n\
         coordinated saturation sweep: {} c={} seed={} (base {:.1} Hz/client)\n\
         =================================================================\n\
         stage  rate/client  offered-Hz  calls  ok     err  tput-Hz  lat-mean   lat-p95\n",
        r.scenario, r.clients, r.seed, r.base_rate_hz
    );
    for p in &r.points {
        s += &format!(
            "{:<6} {:<12.1} {:<11.1} {:<6} {:<6} {:<4} {:<8.2} {:<10.4} {:<10.4}\n",
            p.stage,
            p.rate_hz_per_client,
            p.offered_hz,
            p.calls,
            p.ok,
            p.errors,
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

/// Live-vs-sim knee comparison for `--sweep`: run the simulator's
/// `sweep-lan` client ramp at the same seed and put the two knees side by
/// side. The axes differ by design — the live ramp scales an open-loop
/// rate at fixed clients, the sim ramps closed-loop clients — so the live
/// knee is also restated in client-equivalents at the scenario's base
/// rate, the unit the sim knee uses.
fn compare_sim_sweep(r: &SweepReport, seed: u64) -> String {
    let sim = match ninf_sim::experiments::run("sweep-lan", seed) {
        Some(out) => out,
        None => return String::from("# --compare-sim: sim experiment sweep-lan unavailable\n"),
    };
    let mut s = String::from(
        "=================================================================\n\
         live vs sim saturation knee (sweep-lan cross-check)\n\
         =================================================================\n",
    );
    match &r.knee {
        Some(k) => {
            let client_equiv = if r.base_rate_hz > 0.0 {
                k.offered_hz / r.base_rate_hz
            } else {
                0.0
            };
            s += &format!(
                "live: knee at {:.1} Hz offered ≈ {client_equiv:.1} client-equivalents at {:.1} Hz each (saturated={})\n",
                k.offered_hz, r.base_rate_hz, k.saturated
            );
        }
        None => s += "live: no knee estimate\n",
    }
    let knee = &sim.json["knee"];
    match (knee["clients"].as_u64(), knee["latency_s"].as_f64()) {
        (Some(c), Some(lat)) => {
            s += &format!(
                "sim:  knee at c={c} clients ({:.3} Hz, {lat:.3}s mean latency, saturated={})\n",
                knee["throughput_hz"].as_f64().unwrap_or(0.0),
                knee["saturated"].as_bool().unwrap_or(false)
            );
        }
        _ => s += "sim:  no knee in sweep-lan output\n",
    }
    s += "# same latency-elasticity rule both sides; axes differ (rate ramp vs client ramp),\n\
          # so compare knee *existence and order of magnitude*, not absolutes.\n";
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
        \x20                [--window-ms <ms>]\n\
        \x20                [--wan <spec|off>] [--streams <list>]\n\
        \x20                [--compare-sim] [--assert-zero-errors] [--list]\n\
         scenarios: {}",
        scenario_names().join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
