//! The scenario library: named, ready-to-run workload + target bundles
//! mirroring the paper's experiment shapes.

use std::time::Duration;

use ninf_client::CallOptions;
use ninf_server::SchedPolicy;

use crate::runner::Target;
use crate::spec::{Arrival, MixEntry, Phases, Routine, WorkloadSpec};

/// A named workload + target bundle.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The workload.
    pub spec: WorkloadSpec,
    /// What to run it against (the CLI may override with an external
    /// address).
    pub target: Target,
}

/// Names of every built-in scenario, in menu order.
pub fn scenario_names() -> Vec<&'static str> {
    vec![
        "lan-linpack",
        "lan-ep",
        "lan-c10k",
        "metaserver-ft",
        "wan-iterative",
        "wan-streams",
    ]
}

/// Look up a built-in scenario by name.
pub fn scenario(name: &str) -> Option<Scenario> {
    match name {
        // The paper's §4.1 LAN rig: N closed-loop clients hammering one
        // server with Linpack, no think time — per-call Mflops must fall as
        // clients contend for the single gate (Table 3's shape).
        "lan-linpack" => Some(Scenario {
            name: "lan-linpack",
            about: "closed-loop Linpack n=256 against a 1-PE server (Table 3 shape)",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Linpack { n: 256 },
                    weight: 1,
                }],
                arrival: Arrival::Closed {
                    think: Duration::ZERO,
                },
                phases: Phases::none(),
                calls_per_client: 12,
                unique_args: false,
                options: CallOptions::default(),
            },
            target: Target::Spawn {
                pes: 1,
                policy: SchedPolicy::Fcfs,
            },
        }),
        // Open-loop EP at a fixed offered rate with ramp phases: the
        // DiPerF-style rig. Small kernel, call-rate bound, deadline set so
        // a wedged server surfaces as timeouts rather than a hang.
        "lan-ep" => Some(Scenario {
            name: "lan-ep",
            about: "open-loop EP 2^14 at 40 Hz/client with ramp phases against a 4-PE server",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Ep { m: 14 },
                    weight: 1,
                }],
                arrival: Arrival::Open { rate_hz: 40.0 },
                phases: Phases {
                    ramp_up: 0.5,
                    steady: 2.0,
                    ramp_down: 0.5,
                },
                calls_per_client: 0,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(5)),
                    ..CallOptions::default()
                },
            },
            target: Target::Spawn {
                pes: 4,
                policy: SchedPolicy::Fcfs,
            },
        }),
        // The C10k rig: thousands of multiplexed connections from one
        // open-loop driver thread, tiny EP payloads so the measurement is
        // connection-scaling, not compute. `--clients` is the connection
        // count (c ∈ {256, 1024, 4096, 10000} in the committed benchmark);
        // the per-connection rate scales to an aggregate schedule.
        "lan-c10k" => Some(Scenario {
            name: "lan-c10k",
            about: "open-loop tiny-EP over --clients multiplexed connections (reactor core)",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Ep { m: 4 },
                    weight: 1,
                }],
                arrival: Arrival::Open { rate_hz: 1.0 },
                phases: Phases {
                    ramp_up: 0.0,
                    steady: 5.0,
                    ramp_down: 0.0,
                },
                calls_per_client: 0,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(10)),
                    ..CallOptions::default()
                },
            },
            target: Target::Spawn {
                pes: 4,
                policy: SchedPolicy::Fcfs,
            },
        }),
        // A two-server fleet behind the metaserver with a mixed workload
        // and a retrying reliability policy — the fault-tolerant routing
        // path under multi-client load.
        "metaserver-ft" => Some(Scenario {
            name: "metaserver-ft",
            about: "mixed EP+Linpack through a metaserver-fronted 2-server fleet, retrying policy",
            spec: WorkloadSpec {
                mix: vec![
                    MixEntry {
                        routine: Routine::Ep { m: 12 },
                        weight: 3,
                    },
                    MixEntry {
                        routine: Routine::Linpack { n: 64 },
                        weight: 1,
                    },
                ],
                arrival: Arrival::Closed {
                    think: Duration::from_millis(5),
                },
                phases: Phases::none(),
                calls_per_client: 10,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(5)),
                    retries: 2,
                    backoff: Duration::from_millis(50),
                    ..CallOptions::default()
                },
            },
            target: Target::SpawnFleet { servers: 2, pes: 2 },
        }),
        // The iterative WAN rig: each client runs a closed-loop N-body
        // sweep whose O(n) particle arrays repeat verbatim call after call
        // — on the simulated FluidNet WAN link the first (cold) iteration
        // is bandwidth-bound and every warm iteration ships only digests,
        // so this is the scenario that measures the argument cache. Run it
        // with `--no-arg-cache` for the every-call-pays-full-freight
        // baseline.
        "wan-iterative" => Some(Scenario {
            name: "wan-iterative",
            about: "closed-loop iterative N-body n=16384; warm calls ship arg digests, not arrays",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Nbody { n: 16384 },
                    weight: 1,
                }],
                arrival: Arrival::Closed {
                    think: Duration::ZERO,
                },
                phases: Phases::none(),
                calls_per_client: 16,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(30)),
                    ..CallOptions::default()
                },
            },
            target: Target::Spawn {
                pes: 2,
                policy: SchedPolicy::Fcfs,
            },
        }),
        // The GridFTP-shaped parallel-stream rig: every call ships a fresh
        // (salted, so never cached) 512 KiB Linpack matrix, pre-shipped as
        // chunks over `options.streams` bulk lanes. Sweep the stream count
        // with `ninf-load --streams 1,2,4,8,16 --wan <spec>` to measure
        // goodput-vs-N on a shaped link: goodput rises while lanes pipeline
        // through each other's propagation gaps, knees when the link
        // saturates, and degrades at high N as the congestion term drives
        // up the effective loss rate.
        "wan-streams" => Some(Scenario {
            name: "wan-streams",
            about: "parallel-stream bulk upload of unique 512 KiB matrices over a shaped link",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Linpack { n: 256 },
                    weight: 1,
                }],
                arrival: Arrival::Closed {
                    think: Duration::ZERO,
                },
                phases: Phases::none(),
                calls_per_client: 6,
                unique_args: true,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(60)),
                    // Loss recovery budget per chunk, not per call: a few
                    // shaped round trips (worst case ~86 ms with 16 lanes
                    // queued on a 4 MB/s link), so a lost 16 KiB chunk
                    // stalls its lane for ~0.15 s instead of the whole
                    // call deadline.
                    lane_deadline: Some(Duration::from_millis(150)),
                    streams: 4,
                    ..CallOptions::default()
                },
            },
            target: Target::Spawn {
                pes: 2,
                policy: SchedPolicy::Fcfs,
            },
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for name in scenario_names() {
            let sc = scenario(name).expect("listed scenario exists");
            assert_eq!(sc.name, name);
            assert!(!sc.spec.mix.is_empty());
        }
        assert!(scenario("no-such").is_none());
    }

    #[test]
    fn lan_linpack_is_the_papers_closed_loop_rig() {
        let sc = scenario("lan-linpack").unwrap();
        assert!(matches!(
            sc.spec.arrival,
            Arrival::Closed { think } if think == Duration::ZERO
        ));
        assert!(matches!(sc.target, Target::Spawn { pes: 1, .. }));
        assert!(sc.spec.calls_per_client > 0);
        // Linpack-only mix so per-call Mflops is defined for every call.
        assert!(sc
            .spec
            .mix
            .iter()
            .all(|e| matches!(e.routine, Routine::Linpack { .. })));
    }

    #[test]
    fn lan_ep_is_open_loop_with_ramps_and_deadline() {
        let sc = scenario("lan-ep").unwrap();
        assert!(matches!(sc.spec.arrival, Arrival::Open { rate_hz } if rate_hz > 0.0));
        assert!(sc.spec.phases.ramp_up > 0.0 && sc.spec.phases.ramp_down > 0.0);
        assert!(sc.spec.options.deadline.is_some());
    }

    #[test]
    fn lan_c10k_spawns_its_own_server_open_loop() {
        let sc = scenario("lan-c10k").unwrap();
        assert!(matches!(sc.target, Target::Spawn { .. }));
        assert!(matches!(sc.spec.arrival, Arrival::Open { rate_hz } if rate_hz > 0.0));
        assert!(sc.spec.options.deadline.is_some());
    }

    #[test]
    fn wan_iterative_repeats_one_nbody_size_closed_loop() {
        let sc = scenario("wan-iterative").unwrap();
        // One size, closed loop, many iterations: every call after the
        // first carries byte-identical particle arrays — the cache's case.
        assert_eq!(sc.spec.mix.len(), 1);
        assert!(matches!(sc.spec.mix[0].routine, Routine::Nbody { .. }));
        assert!(matches!(sc.spec.arrival, Arrival::Closed { .. }));
        assert!(sc.spec.calls_per_client >= 8);
        assert!(sc.spec.options.arg_cache);
    }

    #[test]
    fn metaserver_ft_routes_through_a_fleet_with_retries() {
        let sc = scenario("metaserver-ft").unwrap();
        assert!(matches!(sc.target, Target::SpawnFleet { servers: 2, .. }));
        assert!(sc.spec.options.retries > 0);
        assert!(sc.spec.mix.len() > 1);
    }
}
