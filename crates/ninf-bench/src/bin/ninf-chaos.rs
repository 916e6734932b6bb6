//! `ninf-chaos` — deterministic chaos/conformance driver for the live stack.
//!
//! ```text
//! ninf-chaos list                                    # scenario menu
//! ninf-chaos run    --scenario <name> --seed <u64>   # one run, print transcript
//! ninf-chaos replay --scenario <name> --seed <u64>   # reproduce a hunt finding
//! ninf-chaos hunt   [--scenario <name>] --seeds A..B # sweep seeds, report violations
//! ninf-chaos diff   [--clients 1,4,8] [--seed <u64>]
//! ```
//!
//! Every run is a pure function of `(scenario, seed)`: the same pair prints a
//! byte-identical transcript, so a `hunt` finding is fully reproduced by the
//! `replay` line it prints — no logs, cores, or timing archaeology needed.
//! `diff` runs the live `lan-linpack` scalability sweep against the matched
//! simulator scenario and compares normalized shapes within the one fixed
//! tolerance, `ninf_testkit::TOLERANCE` (policy in docs/TESTING.md).

use ninf_bench::cli::{parse_args, parse_list, CliError};
use ninf_testkit::{chaos, chaos_names, live_vs_sim, run_chaos, ChaosRun, Inject, TOLERANCE};

fn main() {
    let parsed = match parse_args(
        std::env::args().skip(1),
        &["--scenario|-s", "--seed", "--seeds", "--clients"],
        // --violate-exactly-once is deliberately undocumented: it plants a
        // duplicate completion record so CI can prove the checkers bite.
        &["--violate-exactly-once"],
    ) {
        Ok(p) => p,
        Err(CliError::Help) => usage(""),
        Err(CliError::Bad(msg)) => usage(&msg),
    };
    let inject = if parsed.has("--violate-exactly-once") {
        Inject::DuplicateCompletion
    } else {
        Inject::None
    };
    let cmd = parsed
        .positionals
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage("a command is required"));
    if parsed.positionals.len() > 1 {
        usage(&format!("unexpected argument `{}`", parsed.positionals[1]));
    }
    match cmd {
        "list" => {
            for name in chaos_names() {
                let spec = chaos(name).expect("listed scenario exists");
                println!("{name:<12} fp={:#018x}  {}", spec.fingerprint(), spec.about);
            }
        }
        // `replay` is `run` under a name that states intent: the argument
        // pair IS the reproducer, so replaying a finding is just re-running.
        "run" | "replay" => {
            let scenario = parsed
                .value("--scenario")
                .unwrap_or_else(|| usage("--scenario is required (try list)"))
                .to_string();
            let seed = seed_of(&parsed);
            let run = run_or_die(&scenario, seed, inject);
            print!("{}", run.transcript);
            if !run.pass() {
                eprintln!("{}", reproducer(&scenario, seed));
                std::process::exit(1);
            }
        }
        "hunt" => {
            let seeds = match parsed.value("--seeds") {
                Some(raw) => parse_seed_range(raw),
                None => usage("hunt needs --seeds A..B"),
            };
            let scenarios: Vec<String> = match parsed.value("--scenario") {
                Some(name) => vec![name.to_string()],
                None => chaos_names().iter().map(|s| s.to_string()).collect(),
            };
            let mut violations = 0usize;
            let mut runs = 0usize;
            for name in &scenarios {
                for seed in seeds.clone() {
                    let run = run_or_die(name, seed, inject);
                    runs += 1;
                    if run.pass() {
                        continue;
                    }
                    violations += 1;
                    println!(
                        "VIOLATION scenario={name} seed={seed} fingerprint={:#018x}",
                        run.fingerprint
                    );
                    for line in run.violations() {
                        println!("  {line}");
                    }
                    println!("  reproduce: {}", reproducer(name, seed));
                }
            }
            println!(
                "HUNT {}: {} violation(s) in {} run(s), scenarios=[{}], seeds={}..{}",
                if violations == 0 { "CLEAN" } else { "FAIL" },
                violations,
                runs,
                scenarios.join(","),
                seeds.start,
                seeds.end
            );
            if violations > 0 {
                std::process::exit(1);
            }
        }
        "diff" => {
            let clients: Vec<usize> = match parsed.value("--clients") {
                Some(raw) => match parse_list(raw, "--clients") {
                    Ok(v) if !v.is_empty() => v,
                    Ok(_) => usage("--clients needs at least one count"),
                    Err(CliError::Bad(msg)) => usage(&msg),
                    Err(CliError::Help) => usage(""),
                },
                None => vec![1, 4, 8],
            };
            match live_vs_sim(&clients, seed_of(&parsed)) {
                Ok(report) => {
                    print!("{}", report.render());
                    if !report.pass() {
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("error: differential failed to run: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn seed_of(parsed: &ninf_bench::cli::Parsed) -> u64 {
    match parsed.parse("--seed") {
        Ok(v) => v.unwrap_or(1997),
        Err(CliError::Bad(msg)) => usage(&msg),
        Err(CliError::Help) => usage(""),
    }
}

fn run_or_die(name: &str, seed: u64, inject: Inject) -> ChaosRun {
    let spec =
        chaos(name).unwrap_or_else(|| usage(&format!("unknown scenario `{name}` (try list)")));
    run_chaos(&spec, seed, inject).unwrap_or_else(|e| {
        eprintln!("error: scenario {name} seed {seed} failed to run: {e}");
        std::process::exit(1);
    })
}

/// The exact command line that reproduces a finding.
fn reproducer(scenario: &str, seed: u64) -> String {
    format!(
        "cargo run --release -p ninf-bench --bin ninf-chaos -- replay --scenario {scenario} --seed {seed}"
    )
}

/// Parse `A..B` (half-open, like a Rust range) into a seed range.
fn parse_seed_range(raw: &str) -> std::ops::Range<u64> {
    let parse_half = |s: &str| -> u64 {
        s.trim()
            .parse()
            .unwrap_or_else(|_| usage(&format!("invalid seed `{s}` in --seeds (want A..B)")))
    };
    let (a, b) = raw
        .split_once("..")
        .unwrap_or_else(|| usage("--seeds wants a range A..B"));
    let (start, end) = (parse_half(a), parse_half(b));
    if start >= end {
        usage(&format!("empty seed range {start}..{end}"));
    }
    start..end
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ninf-chaos <command> [flags]\n\
        \x20 list                                      scenario menu\n\
        \x20 run    --scenario <name> [--seed <u64>]   one seeded run, print transcript\n\
        \x20 replay --scenario <name> --seed <u64>     reproduce a hunt finding exactly\n\
        \x20 hunt   [--scenario <name>] --seeds A..B   sweep seeds; print reproducers, exit 1 on violation\n\
        \x20 diff   [--clients <list>] [--seed <u64>]  live-vs-sim differential, tolerance {TOLERANCE}\n\
         scenarios: {}",
        chaos_names().join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
