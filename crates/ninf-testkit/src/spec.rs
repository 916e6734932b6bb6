//! Declarative chaos scenarios: a workload (reusing
//! [`ninf_loadgen::WorkloadSpec`]), a fleet shape, and a faulty link, plus a
//! canonical fingerprint so a reproducer command pins *exactly* what ran.

use std::time::Duration;

use ninf_client::CallOptions;
use ninf_loadgen::{fnv1a, Arrival, MixEntry, Phases, Routine, WorkloadSpec};
use ninf_protocol::LinkShape;
use ninf_server::DEFAULT_ARG_CACHE_BYTES;

/// Everything one chaos run needs besides the seed.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Concurrent live clients in the call leg.
    pub clients: usize,
    /// What each client calls and under which reliability policy.
    pub workload: WorkloadSpec,
    /// The faulty link every non-bulk client sends through (its loss, stall,
    /// truncate and garble terms are the fault plan). A template: the
    /// per-client seed is derived from the run seed, everything else is
    /// taken verbatim.
    pub faults: LinkShape,
    /// Live in-process servers to spawn.
    pub servers: usize,
    /// PEs per server.
    pub pes: usize,
    /// Unreachable addresses additionally registered with the metaserver
    /// (transaction leg only) to force failure accounting.
    pub dead_servers: usize,
    /// Calls in the metaserver transaction leg; 0 skips the leg.
    pub tx_calls: usize,
    /// Server argument-cache budget in bytes. Undersizing it below one
    /// call's cacheable payload forces a `NeedArg` → inline-refill round on
    /// every warm call, pushing the refill leg through the fault injector.
    /// Excluded from the fingerprint: it shapes the server, not the load.
    pub arg_cache_bytes: usize,
}

/// A ppm rate as the fraction transcripts and fingerprints print.
pub(crate) fn fraction(ppm: u32) -> f64 {
    f64::from(ppm) / 1e6
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl ChaosSpec {
    /// Canonical byte encoding of every load-shaping field. The fault
    /// seed is *excluded*: it is derived from the run seed, so one
    /// fingerprint covers the whole seed range of `hunt`.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.name.as_bytes());
        push_u64(&mut out, self.clients as u64);
        push_u64(&mut out, self.servers as u64);
        push_u64(&mut out, self.pes as u64);
        push_u64(&mut out, self.dead_servers as u64);
        push_u64(&mut out, self.tx_calls as u64);
        for e in &self.workload.mix {
            out.extend_from_slice(e.routine.name().as_bytes());
            push_u64(&mut out, e.routine.scalar() as u64);
            push_u64(&mut out, u64::from(e.weight));
        }
        match self.workload.arrival {
            Arrival::Closed { think } => {
                out.push(0);
                push_f64(&mut out, think.as_secs_f64());
            }
            Arrival::Open { rate_hz } => {
                out.push(1);
                push_f64(&mut out, rate_hz);
            }
        }
        push_f64(&mut out, self.workload.phases.ramp_up);
        push_f64(&mut out, self.workload.phases.steady);
        push_f64(&mut out, self.workload.phases.ramp_down);
        push_u64(&mut out, self.workload.calls_per_client as u64);
        push_f64(
            &mut out,
            self.workload
                .options
                .deadline
                .map_or(-1.0, |d| d.as_secs_f64()),
        );
        push_u64(&mut out, u64::from(self.workload.options.retries));
        push_f64(&mut out, self.workload.options.backoff.as_secs_f64());
        // Rates as fractions and the stall as seconds: the encoding the
        // fingerprint has always used, so pre-`LinkShape` transcripts of
        // these scenarios still name the same spec.
        push_f64(&mut out, fraction(self.faults.loss_ppm));
        push_f64(&mut out, fraction(self.faults.stall_ppm));
        push_f64(&mut out, self.faults.stall_us as f64 / 1e6);
        push_f64(&mut out, fraction(self.faults.truncate_ppm));
        push_f64(&mut out, fraction(self.faults.garble_ppm));
        // Bulk-transfer and WAN-shaping knobs shape the offered load just
        // like the fault probabilities do, so they are pinned too. The
        // shape's *seed* is excluded for the same reason the fault seed
        // is: it is derived from the run seed.
        out.push(u8::from(self.workload.unique_args));
        push_u64(&mut out, u64::from(self.workload.options.streams));
        push_u64(&mut out, u64::from(self.workload.options.chunk_bytes));
        push_f64(
            &mut out,
            self.workload
                .options
                .lane_deadline
                .map_or(-1.0, |d| d.as_secs_f64()),
        );
        match self.workload.options.wan {
            None => out.push(0),
            Some(shape) => {
                out.push(1);
                push_u64(&mut out, shape.bytes_per_sec);
                push_u64(&mut out, shape.delay_us);
                push_u64(&mut out, u64::from(shape.loss_ppm));
                push_u64(&mut out, u64::from(shape.congestion_ppm));
            }
        }
        out
    }

    /// Stable spec fingerprint, printed in every transcript and reproducer.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.canonical_bytes())
    }

    /// Faulty link of `client` in a run seeded with `seed`: the template
    /// with a decorrelated per-client RNG seed (same constants the
    /// workload spec uses for its per-client streams).
    pub fn client_faults(&self, seed: u64, client: usize) -> LinkShape {
        LinkShape {
            seed: seed
                ^ 0x000c_4a05_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            ..self.faults
        }
    }

    /// Link shape of a run seeded with `seed`, if the scenario shapes the
    /// WAN: the template with a run-derived RNG seed, shared by *every*
    /// client so all of one destination's lanes contend for one emulated
    /// bottleneck with one deterministic loss schedule.
    pub fn link_shape(&self, seed: u64) -> Option<LinkShape> {
        self.workload.options.wan.map(|shape| LinkShape {
            seed: seed ^ 0x0014_ad1e_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..shape
        })
    }

    /// Whether this scenario drives the bulk upload path (and the harness
    /// therefore records a per-call bulk ledger).
    pub fn bulk_leg(&self) -> bool {
        self.workload.options.streams >= 1
    }
}

/// Names of every built-in chaos scenario, in menu order.
pub fn chaos_names() -> Vec<&'static str> {
    vec![
        "clean",
        "drop-delay",
        "corrupt",
        "meta-ft",
        "argcache-refill",
        "wan-partition",
    ]
}

/// A built-in scenario's link, in the one grammar `--wan` takes.
fn link(spec: &str) -> LinkShape {
    LinkShape::parse(spec).expect("built-in link spec parses")
}

fn ep_workload(calls: usize, deadline_ms: u64) -> WorkloadSpec {
    WorkloadSpec {
        mix: vec![MixEntry {
            routine: Routine::Ep { m: 8 },
            weight: 1,
        }],
        arrival: Arrival::Closed {
            think: Duration::ZERO,
        },
        phases: Phases::none(),
        calls_per_client: calls,
        unique_args: false,
        options: CallOptions {
            deadline: Some(Duration::from_millis(deadline_ms)),
            retries: 0,
            backoff: Duration::from_millis(10),
            ..CallOptions::default()
        },
    }
}

/// Look up a built-in chaos scenario by name.
pub fn chaos(name: &str) -> Option<ChaosSpec> {
    match name {
        // Fault-free control: every invariant must hold trivially, every
        // call must succeed, and every trace must be connected.
        "clean" => Some(ChaosSpec {
            name: "clean",
            about: "fault-free control run: all calls succeed, all invariants hold",
            clients: 2,
            workload: ep_workload(6, 2000),
            faults: LinkShape::default(),
            servers: 1,
            pes: 2,
            dead_servers: 0,
            tx_calls: 0,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
        }),
        // Lost and stalled messages: drops surface as client deadline
        // expiries, delays complete inside the deadline. Conservation must
        // hold exactly; the fault schedule is pinned by the seed.
        "drop-delay" => Some(ChaosSpec {
            name: "drop-delay",
            about: "seeded drops (timeout) and sub-deadline delays on the client send path",
            clients: 3,
            workload: ep_workload(8, 600),
            faults: link("loss=0.12,stall=0.10:30ms"),
            servers: 1,
            pes: 2,
            dead_servers: 0,
            tx_calls: 0,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
        }),
        // On-the-wire corruption: the payload CRC must reject every
        // truncated/garbled frame with a typed error — zero frames decode
        // after corruption, and no call on a corrupted stream succeeds.
        "corrupt" => Some(ChaosSpec {
            name: "corrupt",
            about: "seeded frame truncation/garbling; checksummed framing rejects every one",
            clients: 3,
            workload: ep_workload(8, 600),
            faults: link("truncate=0.08,garble=0.08"),
            servers: 1,
            pes: 2,
            dead_servers: 0,
            tx_calls: 0,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
        }),
        // The fault-tolerant routing path: a transaction through a
        // metaserver whose directory includes an unreachable server, so
        // retries, quarantine, and the health-event log are all exercised.
        "meta-ft" => Some(ChaosSpec {
            name: "meta-ft",
            about:
                "metaserver transaction over a fleet with a dead member: quarantine + exactly-once",
            clients: 2,
            workload: WorkloadSpec {
                options: CallOptions {
                    deadline: Some(Duration::from_secs(2)),
                    retries: 1,
                    backoff: Duration::from_millis(20),
                    ..CallOptions::default()
                },
                ..ep_workload(4, 2000)
            },
            faults: LinkShape::default(),
            servers: 2,
            pes: 2,
            dead_servers: 1,
            // 9 round-robin picks over 3 directory entries hand the dead
            // member 3 first attempts — exactly the quarantine threshold.
            tx_calls: 9,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
        }),
        // The argument-cache refill leg under fire: an iterative N-body
        // workload whose repeat arrays the clients ship as digests, against
        // a server whose arg store is budgeted *below* one call's cacheable
        // payload — so (nearly) every warm call draws a `NeedArg` and an
        // inline refill, and that extra leg runs through the same seeded
        // fault injector as everything else. Exactly-once and conservation
        // must hold whether the drop/garble lands on the ref send, the
        // NeedArg reply, or the refill itself.
        "argcache-refill" => Some(ChaosSpec {
            name: "argcache-refill",
            about:
                "iterative N-body refs against an undersized arg store: NeedArg refill under faults",
            clients: 3,
            workload: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Nbody { n: 256 },
                    weight: 1,
                }],
                arrival: Arrival::Closed {
                    think: Duration::ZERO,
                },
                phases: Phases::none(),
                calls_per_client: 8,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_millis(800)),
                    retries: 0,
                    backoff: Duration::from_millis(10),
                    ..CallOptions::default()
                },
            },
            faults: link("loss=0.06,stall=0.06:20ms,truncate=0.04,garble=0.04"),
            servers: 1,
            pes: 2,
            dead_servers: 0,
            tx_calls: 0,
            // masses (2 KiB) fits, pos (6 KiB) can never be retained:
            // every warm call misses on pos and must refill inline.
            arg_cache_bytes: 4096,
        }),
        // The bulk upload path over a lossy shaped link: every call
        // pre-ships a fresh (salted) Linpack matrix as chunks over one
        // windowed lane, and the link's seeded loss schedule lands
        // mid-transfer bursts on it — retransmits, a dead connection, one
        // redial that resends only the un-acked chunks, or a typed error,
        // all *inside* the upload. The bulk invariants then assert the
        // blast radius: uploads are all-or-nothing in the ledger, an `Ok`
        // call's solution proves the server computed on exactly the
        // shipped bytes, and pure loss can only delay or time a call out,
        // never corrupt it.
        "wan-partition" => Some(ChaosSpec {
            name: "wan-partition",
            about: "windowed chunk upload over a lossy shaped link: one redial resends only the un-acked",
            clients: 2,
            workload: WorkloadSpec {
                mix: vec![MixEntry {
                    // 96x96 doubles = 72 KiB: above the chunk threshold,
                    // while the 768-byte b vector stays inline — exactly
                    // one bulk image per call.
                    routine: Routine::Linpack { n: 96 },
                    weight: 1,
                }],
                arrival: Arrival::Closed {
                    think: Duration::ZERO,
                },
                phases: Phases::none(),
                calls_per_client: 2,
                // Salted arrays: no two calls ship the same digest, so
                // every call re-runs the whole upload under fresh loss
                // draws instead of hitting the argument cache.
                unique_args: true,
                options: CallOptions {
                    // The per-op deadline only expires on a genuinely lost
                    // control frame (queueing tops out near 5 ms), so a
                    // timeout is evidence of loss, and retries absorb it.
                    deadline: Some(Duration::from_millis(1500)),
                    retries: 2,
                    backoff: Duration::from_millis(20),
                    streams: 1,
                    chunk_bytes: 8192,
                    // A few shaped round trips: a lost chunk is resent
                    // after 60 ms, and four straight losses on one chunk
                    // fail the upload (the call then ships it inline).
                    lane_deadline: Some(Duration::from_millis(60)),
                    // The seed is replaced per run via `link_shape(seed)`.
                    wan: Some(link("bw=32m,delay=2ms,loss=0.03,congestion=0.005,seed=0")),
                    ..CallOptions::default()
                },
            },
            faults: LinkShape::default(),
            servers: 1,
            pes: 2,
            dead_servers: 0,
            tx_calls: 0,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for name in chaos_names() {
            let spec = chaos(name).expect("listed scenario exists");
            assert_eq!(spec.name, name);
            assert!(spec.clients > 0 && spec.servers > 0);
            // Any plan that can silence a message must pair with a client
            // deadline, or a dropped send would hang the harness.
            if spec.faults.loss_ppm > 0 {
                assert!(spec.workload.options.deadline.is_some());
            }
        }
        assert!(chaos("no-such").is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_seed_independent() {
        let a = chaos("drop-delay").unwrap();
        let b = chaos("drop-delay").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Distinct scenarios fingerprint differently.
        assert_ne!(a.fingerprint(), chaos("clean").unwrap().fingerprint());
        // The per-run fault seed does not enter the fingerprint.
        let mut c = a.clone();
        c.faults.seed = 999;
        assert_eq!(c.fingerprint(), a.fingerprint());
        // Nor does the server's arg-cache budget — it shapes the server,
        // not the offered load, so pre-cache transcripts stay pinned.
        let mut d = a.clone();
        d.arg_cache_bytes = 0;
        assert_eq!(d.fingerprint(), a.fingerprint());
    }

    #[test]
    fn argcache_refill_is_shaped_to_force_refills() {
        let spec = chaos("argcache-refill").unwrap();
        assert!(spec
            .workload
            .mix
            .iter()
            .all(|e| matches!(e.routine, Routine::Nbody { .. })));
        assert!(spec.workload.options.arg_cache);
        // The budget must sit below one call's cacheable payload (masses
        // 8n + pos 24n bytes) so warm calls keep drawing NeedArg.
        let Routine::Nbody { n } = spec.workload.mix[0].routine else {
            unreachable!()
        };
        assert!(spec.arg_cache_bytes < 32 * n);
        // And the plan must be able to hit every leg of the refill.
        assert!(spec.faults.loss_ppm > 0 && spec.faults.garble_ppm > 0);
        assert!(spec.workload.options.deadline.is_some());
    }

    #[test]
    fn wan_partition_is_shaped_to_stress_the_bulk_lanes() {
        let spec = chaos("wan-partition").unwrap();
        assert!(spec.bulk_leg());
        assert!(
            spec.workload.unique_args,
            "repeat digests would skip the upload"
        );
        assert_eq!(spec.workload.options.streams, 1, "one windowed lane");
        let shape = spec.workload.options.wan.expect("shaped link");
        assert!(
            shape.loss_ppm > 0,
            "lossless links cannot burst mid-transfer"
        );
        // The lane deadline must sit far below the call deadline, or a
        // lost chunk would eat the whole call budget instead of
        // retransmitting.
        let lane = spec.workload.options.lane_deadline.unwrap();
        assert!(lane < spec.workload.options.deadline.unwrap() / 10);
        // And the matrix must clear the chunk threshold or nothing bulks.
        let Routine::Linpack { n } = spec.workload.mix[0].routine else {
            unreachable!()
        };
        assert!(8 * n * n >= ninf_protocol::CHUNK_THRESHOLD);
    }

    #[test]
    fn link_shape_is_run_derived_and_shared_by_clients() {
        let spec = chaos("wan-partition").unwrap();
        let a = spec.link_shape(7).unwrap();
        let b = spec.link_shape(7).unwrap();
        assert_eq!(a, b, "same run seed, same schedule");
        assert_ne!(a.seed, spec.link_shape(8).unwrap().seed);
        // Everything but the seed comes verbatim from the template.
        let template = spec.workload.options.wan.unwrap();
        assert_eq!(a.bytes_per_sec, template.bytes_per_sec);
        assert_eq!(a.loss_ppm, template.loss_ppm);
        // Unshaped scenarios have no link at any seed.
        assert!(chaos("clean").unwrap().link_shape(7).is_none());
    }

    #[test]
    fn fingerprint_pins_the_wan_and_bulk_knobs() {
        let base = chaos("wan-partition").unwrap();
        let mut streams = base.clone();
        streams.workload.options.streams += 1;
        assert_ne!(streams.fingerprint(), base.fingerprint());
        let mut chunk = base.clone();
        chunk.workload.options.chunk_bytes *= 2;
        assert_ne!(chunk.fingerprint(), base.fingerprint());
        let mut loss = base.clone();
        loss.workload.options.wan.as_mut().unwrap().loss_ppm += 1;
        assert_ne!(loss.fingerprint(), base.fingerprint());
        // The shape seed is run-derived, so (like the fault seed) it must
        // NOT enter the fingerprint.
        let mut seeded = base.clone();
        seeded.workload.options.wan.as_mut().unwrap().seed = 999;
        assert_eq!(seeded.fingerprint(), base.fingerprint());
    }

    #[test]
    fn client_fault_plans_are_decorrelated() {
        let spec = chaos("drop-delay").unwrap();
        let p0 = spec.client_faults(7, 0);
        let p1 = spec.client_faults(7, 1);
        assert_ne!(p0.seed, p1.seed);
        assert_eq!(p0.loss_ppm, spec.faults.loss_ppm);
        // Same (seed, client) → same plan seed.
        assert_eq!(p0.seed, spec.client_faults(7, 0).seed);
    }
}
