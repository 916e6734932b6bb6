//! `ninf-perf`: the repo's benchmark.
//!
//! * `ninf-perf workload <name> --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints, as its last line, the result
//!   object `BENCHMARK.json` describes (the driver's entry point);
//! * `ninf-perf run [--seed N] [--quick] [--sets K]` re-executes itself once
//!   per workload, untraced then traced, prints every metric by name and
//!   writes `result.json`;
//! * `ninf-perf compare <a.json> <b.json>` gates one result file against
//!   another with the bounds of `spec::END_TO_END`.

mod compare;
mod gen;
mod live;
mod replay;
mod report;
mod run;
mod span;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde_json::{json, Value as Json};

use live::Rig;
use replay::Frames;
use span::Recorder;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1997;

/// Options shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    /// Short windows, one set-up, short replays: numbers not for comparison.
    pub quick: bool,
    pub sets: usize,
    /// Where span files and `result.json` go.
    pub out: PathBuf,
    /// Where `workload` writes everything it knows (the `run` parent reads it).
    pub detail: Option<PathBuf>,
    pub positional: Vec<String>,
}

impl Opts {
    /// Length of the untraced window: `--seconds`, else 3 s when quick, else
    /// the `run_seconds` of `BENCHMARK.json`.
    pub fn window_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            3.0
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
        out: PathBuf::from("bench/out"),
        detail: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--sets" => {
                o.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if o.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--workload" => o.positional.push(value("a workload name")?),
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--detail" => o.detail = Some(PathBuf::from(value("a file")?)),
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

const USAGE: &str = "usage:
  ninf-perf workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR] [--detail FILE]
  ninf-perf run [--seed N] [--seconds S] [--sets K] [--quick] [--out DIR]
  ninf-perf compare <a.json> <b.json>
  ninf-perf list | manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|o| match cmd.as_str() {
        "workload" => workload_cmd(&o),
        "run" => run::run(&o),
        "compare" => compare::compare_cmd(&o.positional),
        "manifest" => serde_json::to_string_pretty(&spec::manifest())
            .map(|text| {
                println!("{text}");
                true
            })
            .map_err(|e| e.to_string()),
        "list" => {
            for w in &spec::WORKLOADS {
                println!("{:<15} {}", w.name, w.why);
            }
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ninf-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload here and print the result line. The exit code is 0
/// whenever a result was printed: `correct` and `failed` carry the verdict.
fn workload_cmd(o: &Opts) -> Result<bool, String> {
    let [name] = o.positional.as_slice() else {
        return Err(format!("workload takes exactly one name\n{USAGE}"));
    };
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seconds = o.window_seconds();
    let detail = if o.trace {
        traced(w, o, seconds)?
    } else {
        untraced(w, o, seconds)?
    };
    if let Some(path) = &o.detail {
        write_json(path, &detail)?;
    }
    println!(
        "{}",
        json!({
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": detail["metrics"],
        })
    );
    Ok(true)
}

pub fn write_json(path: &std::path::Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The fields both kinds of run share: verdict, failure classes (over all
/// `windows`), and — from the first window the process ran — the latency
/// tail and the per-call ratios that must repeat exactly for a seed.
fn detail_json(
    w: &spec::Workload,
    o: &Opts,
    seconds: f64,
    frames: &Frames,
    windows: &[&live::Window],
    metrics: Json,
) -> Json {
    let (attempted, errors) = live::tally(windows);
    let first = windows[0];
    let n = first.latencies_ms.len();
    let tail = stats::supported_percentile(n).unwrap_or(50.0);
    json!({
        "workload": w.name,
        "seed": o.seed,
        "seconds": seconds,
        "trace": o.trace,
        "correct": errors.mismatch == 0,
        "attempted": attempted,
        "failed": errors.total(),
        "errors": {
            "remote": errors.remote,
            "timeout": errors.timeout,
            "transport": errors.transport,
            "mismatch": errors.mismatch,
        },
        "samples": n,
        "tail": {
            "percentile": tail,
            "value_ms": stats::percentile(&first.latencies_ms, tail),
            "beyond": stats::beyond(n, tail),
        },
        "ok_per_second": first.per_second,
        "repeatable": repeatable(w, frames, first),
        "metrics": metrics,
    })
}

/// The per-call ratios that must repeat exactly for a seed, over the first
/// [`live::REPEAT_PREFIX`] calls of every client (null if a client made
/// fewer), and the window's arg-store hit share.
fn repeatable(w: &spec::Workload, frames: &Frames, win: &live::Window) -> Json {
    let Some(prefix) = win.prefix else {
        return Json::Null;
    };
    let calls = (live::REPEAT_PREFIX * w.clients) as u64;
    let cacheable = frames.cacheable_args() as u64;
    json!({
        "wire_bytes_per_call": report::wire_bytes(frames, &prefix, calls) as f64 / calls as f64,
        "client.args_refd_share": prefix.args_refd as f64 / (calls * cacheable).max(1) as f64,
        "server.argcache_hit_share": win.server.hit_share(),
    })
}

fn untraced(w: &'static spec::Workload, o: &Opts, seconds: f64) -> Result<Json, String> {
    // Set up several times and report the median; the last rig is measured.
    // Cheap set-ups are repeated more often, within the same time budget.
    let (min_setups, budget_s) = if o.quick {
        (1, 0.0)
    } else {
        (spec::MIN_SETUPS, spec::SETUP_BUDGET_S)
    };
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    while setup_s.len() < min_setups || setup_s.iter().sum::<f64>() < budget_s {
        if let Some(old) = rig.take() {
            old.tear_down();
        }
        let fresh = Rig::set_up(w, o.seed)?;
        setup_s.push(fresh.setup_s);
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one set-up");
    let win = rig.measure(seconds, false);
    let base = rig.tear_down();
    // Read before the benchmark builds its own copies of the frames.
    let peak_rss = live::peak_rss_mib();
    let frames = Frames::build(w, base);
    let m = report::end_to_end(&frames, &win, stats::median(&setup_s), peak_rss);
    Ok(detail_json(
        w,
        o,
        seconds,
        &frames,
        &[&win],
        report::metrics_json(m, false),
    ))
}

fn traced(w: &'static spec::Workload, o: &Opts, seconds: f64) -> Result<Json, String> {
    let mut rig = Rig::set_up(w, o.seed)?;
    let setup_cold_s = rig.cold_s;
    // Half the window traced, between two untraced quarters: the difference
    // is what keeping a span per call costs, and any steady drift over the
    // run (the host's, or the server's own) falls on both sides alike.
    let before = rig.measure(seconds / 4.0, false);
    let (cursor, _) = rig.drain_stats(u64::MAX)?;
    let kept = rig.measure(seconds / 2.0, true);
    let (_, records) = rig.drain_stats(cursor)?;
    let after = rig.measure(seconds / 4.0, false);
    let clock_offset_s = rig.server_clock_offset_s()?;
    let base = rig.tear_down();

    let frames = Frames::build(w, base);
    let budget = Duration::from_millis(if o.quick { 100 } else { 400 });
    let mut rec = Recorder::default();
    let replay = replay::run(w, &frames, budget, &mut rec);
    let m = report::per_layer(
        &report::TracedRun {
            w,
            frames: &frames,
            untraced: [&before, &after],
            traced: &kept,
            records: &records,
            clock_offset_s,
            replay: &replay,
            setup_cold_s,
        },
        &mut rec,
    );
    write_json(
        &o.out.join(format!("trace-{}.json", w.name)),
        &rec.to_json(),
    )?;
    Ok(detail_json(
        w,
        o,
        seconds,
        &frames,
        &[&before, &kept, &after],
        report::metrics_json(m, true),
    ))
}
