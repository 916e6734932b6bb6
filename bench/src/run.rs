//! `ninf-perf run`: every workload, untraced then traced, each in a child
//! process of its own so pools, the digest memory, peak RSS and CPU time
//! start clean per workload.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::{json, Map, Value as Json};

use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::{stats, write_json, Opts};

/// Wall-clock budget of a full (one set, not quick) run on two cores.
const BUDGET_S: f64 = 240.0;

/// Window of the traced child in a full run (untraced quarter, traced half,
/// untraced quarter).
const TRACED_SECONDS: f64 = 10.0;

fn child(w: &Workload, o: &Opts, seconds: f64, trace: bool, detail: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("workload")
        .arg(w.name)
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .arg("--detail")
        .arg(detail)
        .stdout(Stdio::null());
    if o.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    if !status.success() {
        return Err(format!("{} child ({status})", w.name));
    }
    let text = std::fs::read_to_string(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn value_of(detail: &Json, metric: &str) -> f64 {
    detail["metrics"][metric]["value"]
        .as_f64()
        .unwrap_or(f64::NAN)
}

pub fn run(o: &Opts) -> Result<bool, String> {
    let started = Instant::now();
    let untraced_s = o.window_seconds();
    // Even a quick traced run must fit `REPEAT_PREFIX` wan-bulk calls
    // (≈0.15 s each) into its first, untraced quarter.
    let traced_s = if o.quick { 8.0 } else { TRACED_SECONDS };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "ninf-perf: seed {} | {} workloads | untraced {untraced_s} s x {} set(s), traced {traced_s} s | {nproc} cores | loopback{}",
        o.seed,
        spec::WORKLOADS.len(),
        o.sets,
        if o.quick { " | QUICK: numbers not for comparison" } else { "" },
    );
    let mut all_ok = true;
    let mut workloads = Map::new();
    for w in &spec::WORKLOADS {
        println!("\n== {} — {}", w.name, w.why);
        let mut sets = Vec::with_capacity(o.sets);
        for set in 0..o.sets {
            let path = o.out.join(format!("untraced-{}-{set}.json", w.name));
            sets.push(child(w, o, untraced_s, false, &path)?);
        }
        let traced = child(
            w,
            o,
            traced_s,
            true,
            &o.out.join(format!("traced-{}.json", w.name)),
        )?;

        let mut e2e = Map::new();
        for e in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|d| value_of(d, e.name)).collect();
            let value = stats::median(&values);
            let spread = stats::iqr_share(&values);
            println!(
                "  {:<28} {:>14.4} {:<6} ({} is better, bound {:.0}%{})",
                e.name,
                value,
                e.unit,
                e.better.as_str(),
                e.bound * 100.0,
                spread.map_or(String::new(), |s| format!(", spread {:.1}%", s * 100.0)),
            );
            e2e.insert(
                e.name.to_owned(),
                json!({
                    "value": value,
                    "unit": e.unit,
                    "values": values,
                    "spread": spread,
                }),
            );
        }
        let first = &sets[0];
        println!(
            "  call latency: p50 {:.4} ms, p{} {:.4} ms over {} samples ({} beyond it)",
            value_of(first, "call_p50_ms"),
            first["tail"]["percentile"],
            first["tail"]["value_ms"].as_f64().unwrap_or(f64::NAN),
            first["samples"],
            first["tail"]["beyond"],
        );
        println!("  -- per layer (traced run)");
        let mut layers = Map::new();
        for &(name, unit, _) in &PER_LAYER {
            let value = value_of(&traced, name);
            println!("  {name:<34} {value:>14.4} {unit}");
            layers.insert(name.to_owned(), json!({ "value": value, "unit": unit }));
        }
        println!(
            "  reconciliation: replay sum {:.1} us vs live p50 {:.1} us -> residual {:.1}%",
            value_of(&traced, "trace.replay_sum_us"),
            value_of(&traced, "client.call_p50_ms") * 1e3,
            value_of(&traced, "trace.residual_share") * 100.0,
        );

        // Verdict: every output checked, nothing failed, and the per-call
        // counts identical between the two same-seed children.
        let children = || sets.iter().chain([&traced]);
        let total = |key: &str| -> u64 { children().filter_map(|d| d[key].as_u64()).sum() };
        let (attempted, failed) = (total("attempted"), total("failed"));
        let correct = children().all(|d| d["correct"].as_bool() == Some(true));
        let repeats = sets
            .iter()
            .all(|d| d["repeatable"] == traced["repeatable"] && !d["repeatable"].is_null());
        // Quick windows are too short for a tail; only a full run insists.
        let supported = o.quick
            || first["tail"]["percentile"]
                .as_f64()
                .is_some_and(|p| p >= 90.0);
        let generator = value_of(&traced, "bench.generator_share");
        println!(
            "  attempted {attempted}, failed {failed}, outputs {}, same-seed counts {}, p90 {}, generator share {:.4}",
            if correct { "correct" } else { "WRONG" },
            if repeats { "repeat exactly" } else { "DIFFER" },
            if supported { "supported" } else { "UNSUPPORTED (<10 samples beyond)" },
            generator,
        );
        all_ok &= correct && failed == 0 && repeats && supported && generator < 0.02;
        workloads.insert(
            w.name.to_owned(),
            json!({
                "why": w.why,
                "attempted": attempted,
                "failed": failed,
                "correct": correct,
                "error_share": failed as f64 / attempted.max(1) as f64,
                "errors": first["errors"],
                "samples": first["samples"],
                "tail": first["tail"],
                "repeatable": first["repeatable"],
                "same_seed_counts_repeat": repeats,
                "end_to_end": Json::Object(e2e),
                "per_layer": Json::Object(layers),
            }),
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    let result = json!({
        "benchmark": "ninf-perf",
        "seed": o.seed,
        "quick": o.quick,
        "sets": o.sets,
        "cores": nproc,
        "link": "loopback",
        "untraced_seconds": untraced_s,
        "traced_seconds": traced_s,
        "wall_s": wall_s,
        "workloads": Json::Object(workloads),
    });
    let path = o.out.join("result.json");
    write_json(&path, &result)?;
    let within = o.quick || o.sets > 1 || wall_s <= BUDGET_S;
    println!(
        "\nwrote {} | wall clock {wall_s:.0} s{} | {}",
        path.display(),
        if o.quick || o.sets > 1 {
            String::new()
        } else {
            format!(
                " (budget {BUDGET_S:.0} s: {})",
                if within { "within" } else { "OVER" }
            )
        },
        if all_ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
    );
    Ok(all_ok && within)
}
