//! Live end-to-end tests: real client threads against real in-process
//! servers over loopback TCP.

use std::time::Duration;

use ninf_client::CallOptions;
use ninf_loadgen::{
    run_scenario, scenario, Arrival, MixEntry, Outcome, Phases, Routine, Scenario, Target,
    WorkloadSpec,
};
use ninf_server::SchedPolicy;

/// A fast closed-loop Linpack scenario for debug-build test runtimes: same
/// shape as `lan-linpack`, smaller order and budget.
fn small_linpack(calls_per_client: usize, n: usize) -> Scenario {
    Scenario {
        name: "test-linpack",
        about: "test",
        spec: WorkloadSpec {
            mix: vec![MixEntry {
                routine: Routine::Linpack { n },
                weight: 1,
            }],
            arrival: Arrival::Closed {
                think: Duration::ZERO,
            },
            phases: Phases::none(),
            calls_per_client,
            unique_args: false,
            options: CallOptions::default(),
        },
        target: Target::Spawn {
            pes: 1,
            policy: SchedPolicy::Fcfs,
        },
    }
}

#[test]
fn closed_loop_run_completes_with_zero_errors_and_server_join() {
    let sc = small_linpack(4, 64);
    let report = run_scenario(&sc, 2, 1997).unwrap();

    assert_eq!(report.clients, 2);
    assert_eq!(report.calls.len(), 8);
    assert_eq!(report.fleet.ok, 8);
    assert_eq!(report.fleet.errors(), 0);
    assert!(report.wall_secs > 0.0);

    // Every call has a full client-side decomposition and §4.1-consistent
    // ordering.
    for c in &report.calls {
        assert_eq!(c.outcome, Outcome::Ok);
        assert!(c.timing.total > 0.0);
        assert!(c.timing.roundtrip > 0.0);
        assert!(c.timing.total + 1e-9 >= c.timing.roundtrip);
        assert!(c.t_complete >= c.t_submit);
        assert!(c.mflops().unwrap() > 0.0);
    }

    // The server's own §4.1 records were joined and cover every call.
    let server = report.server.as_ref().expect("stats query succeeded");
    assert_eq!(server.records, 8);
    assert!(server.response.mean >= 0.0);
    assert!(server.wait.mean >= 0.0);
    assert!(server.service.mean > 0.0);

    // Percentiles are populated and ordered.
    assert!(report.fleet.p50 > 0.0);
    assert!(report.fleet.p50 <= report.fleet.p95);
    assert!(report.fleet.p95 <= report.fleet.p99);

    // The JSON document has the experiments.json family shape.
    let doc = report.to_json();
    assert_eq!(doc["cells"].as_array().unwrap().len(), 2);
    assert!(doc["fleet"]["perf"]["mean"].as_f64().unwrap() > 0.0);
    assert!(doc["server"]["records"].as_u64().unwrap() == 8);
}

#[test]
fn per_call_mflops_decreases_under_client_contention() {
    // Closed loop, think 0, one PE: with c clients the gate serializes the
    // fleet, so mean per-call time grows ~c× and per-call Mflops must fall —
    // Table 3's structural shape.
    let sc = small_linpack(6, 96);
    let solo = run_scenario(&sc, 1, 1997).unwrap();
    let packed = run_scenario(&sc, 4, 1997).unwrap();
    assert_eq!(solo.fleet.errors(), 0);
    assert_eq!(packed.fleet.errors(), 0);
    let m1 = solo.fleet.perf.mean;
    let m4 = packed.fleet.perf.mean;
    assert!(
        m4 < m1,
        "per-call Mflops should fall under contention: c=1 {m1:.2}, c=4 {m4:.2}"
    );
}

#[test]
fn open_loop_run_is_schedule_faithful_and_seed_reproducible() {
    let sc = Scenario {
        name: "test-open",
        about: "test",
        spec: WorkloadSpec {
            mix: vec![MixEntry {
                routine: Routine::Ep { m: 8 },
                weight: 1,
            }],
            arrival: Arrival::Open { rate_hz: 25.0 },
            phases: Phases {
                ramp_up: 0.2,
                steady: 0.8,
                ramp_down: 0.2,
            },
            calls_per_client: 0,
            unique_args: false,
            options: CallOptions::default(),
        },
        target: Target::Spawn {
            pes: 2,
            policy: SchedPolicy::Fcfs,
        },
    };
    let a = run_scenario(&sc, 2, 42).unwrap();
    assert_eq!(a.fleet.errors(), 0);
    assert!(a.fleet.ok > 0);
    // One call per scheduled arrival, issued no earlier than scheduled.
    let planned: usize = (0..2)
        .map(|c| sc.spec.arrival_schedule(42, c, 2).len())
        .sum();
    assert_eq!(a.calls.len(), planned);
    for c in &a.calls {
        assert!(c.t_submit + 1e-3 >= c.scheduled, "issued before schedule");
    }
    // Same seed → byte-identical offered load across whole runs.
    let b = run_scenario(&sc, 2, 42).unwrap();
    assert_eq!(a.schedule_fnv, b.schedule_fnv);
    assert_eq!(a.schedules, b.schedules);
    // Different seed → different offered load.
    let c = run_scenario(&sc, 2, 43).unwrap();
    assert_ne!(a.schedule_fnv, c.schedule_fnv);
}

#[test]
fn metaserver_fleet_scenario_runs_clean() {
    let mut sc = scenario("metaserver-ft").expect("library scenario");
    // Trim the budget for test runtime; the shape stays the same.
    sc.spec.calls_per_client = 3;
    let report = run_scenario(&sc, 3, 7).unwrap();
    assert_eq!(report.calls.len(), 9);
    assert_eq!(report.fleet.errors(), 0);
    // Fleet stats joined from both servers cover every call.
    let server = report.server.as_ref().expect("fleet stats join");
    assert_eq!(server.records, 9);
    // Mixed workload: EP calls have no Mflops, Linpack calls do; the mix is
    // seeded so at least the dominant EP side must appear.
    assert!(report.calls.iter().any(|c| c.routine == "ep"));
}

#[test]
fn unreachable_server_yields_transport_errors_not_hangs() {
    let sc = Scenario {
        target: Target::External("127.0.0.1:1".into()), // reserved port, refused
        ..small_linpack(3, 32)
    };
    let report = run_scenario(&sc, 2, 1).unwrap();
    assert_eq!(report.calls.len(), 6);
    assert_eq!(report.fleet.transport_errors, 6);
    assert_eq!(report.fleet.ok, 0);
    assert!(report.server.is_none());
}
