//! Declarative workload specification: what the client fleet calls, how
//! arrivals are generated, and how the run ramps.
//!
//! Everything that shapes load is a pure function of `(spec, seed, client
//! index, client count)` — in particular the open-loop arrival schedule is
//! deterministic and byte-identical across runs with the same seed, so two
//! measurements of the same scenario differ only in what the system under
//! test did, never in what was offered to it.

use std::time::Duration;

use ninf_client::CallOptions;
use ninf_protocol::SplitMix64;

/// One routine+size the mix can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    /// `linpack(n)`: generate-and-solve an `n × n` system server-side.
    Linpack {
        /// Matrix order.
        n: usize,
    },
    /// `ep(m)`: `2^m` embarrassingly-parallel trials.
    Ep {
        /// Trial exponent.
        m: i32,
    },
    /// `nbody(n, step, …)`: evaluate the field of `n` fixed particles at the
    /// per-iteration probe grid. The particle arrays repeat verbatim across
    /// calls, so this is the argument-cache workload: only `step` changes.
    Nbody {
        /// Source particle count.
        n: usize,
    },
}

impl Routine {
    /// Wire name of the routine.
    pub fn name(&self) -> &'static str {
        match self {
            Routine::Linpack { .. } => "linpack",
            Routine::Ep { .. } => "ep",
            Routine::Nbody { .. } => "nbody",
        }
    }

    /// The first scalar argument (`n` / `m`) — the paper's table-row key.
    pub fn scalar(&self) -> i64 {
        match self {
            Routine::Linpack { n } => *n as i64,
            Routine::Ep { m } => *m as i64,
            Routine::Nbody { n } => *n as i64,
        }
    }

    /// Floating-point operations one call performs, when the kernel has a
    /// standard count (Linpack's `2n³/3 + 2n²`); `None` where the paper
    /// reports no Mflops (EP throughput is calls/s).
    pub fn flops(&self) -> Option<u64> {
        match self {
            Routine::Linpack { n } => Some(ninf_exec::linpack_flops(*n as u64)),
            Routine::Ep { .. } => None,
            Routine::Nbody { n } => Some(ninf_exec::nbody_flops(*n) as u64),
        }
    }
}

/// A weighted mix entry: `weight` parts of the per-client call stream are
/// `routine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixEntry {
    /// What to call.
    pub routine: Routine,
    /// Relative weight (0 = never).
    pub weight: u32,
}

/// How a client decides when to issue its next call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed loop (the paper's §4.1 rig: "each client repeatedly issues
    /// Ninf_call"): the next call starts `think` after the previous one
    /// completes.
    Closed {
        /// Think time between completion and next submission.
        think: Duration,
    },
    /// Open loop: calls come due at pre-computed, seeded exponential
    /// inter-arrival offsets, and each goes out when due whatever the
    /// client still has in flight, up to [`crate::OPEN_INFLIGHT_CAP`]
    /// calls; one due with every slot busy waits for a slot and is counted
    /// as `generator_capped`. No call is skipped.
    Open {
        /// Mean arrival rate per client, in calls/second.
        rate_hz: f64,
    },
}

/// Run phases, in seconds: clients start staggered across `ramp_up`, all run
/// during `steady`, and stop staggered across `ramp_down`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Window over which client starts are staggered.
    pub ramp_up: f64,
    /// Full-fleet window.
    pub steady: f64,
    /// Window over which client stops are staggered.
    pub ramp_down: f64,
}

impl Phases {
    /// No ramping: everyone starts at 0 and runs to their call budget.
    pub fn none() -> Self {
        Phases {
            ramp_up: 0.0,
            ramp_down: 0.0,
            steady: 0.0,
        }
    }

    /// Total scheduled run length.
    pub fn total(&self) -> f64 {
        self.ramp_up + self.steady + self.ramp_down
    }

    /// Active `[start, end)` window (seconds from run start) of `client`
    /// among `clients`: client `i` starts at `ramp_up·i/c` and ends at
    /// `total − ramp_down·(c−1−i)/c`.
    pub fn window(&self, client: usize, clients: usize) -> (f64, f64) {
        let c = clients.max(1) as f64;
        let i = client as f64;
        let start = self.ramp_up * i / c;
        let end = self.total() - self.ramp_down * (c - 1.0 - i) / c;
        (start, end.max(start))
    }
}

/// The full declarative workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Weighted routine+size mix each client draws from.
    pub mix: Vec<MixEntry>,
    /// Arrival process.
    pub arrival: Arrival,
    /// Ramp phases (govern open-loop schedules and closed-loop start
    /// staggering).
    pub phases: Phases,
    /// Closed-loop call budget per client (open loop derives its count from
    /// the schedule instead).
    pub calls_per_client: usize,
    /// Salt every array argument with the `(client, seq)` pair so no two
    /// calls ever ship byte-identical payloads. This defeats the argument
    /// cache *by construction* — exactly what a transfer benchmark wants:
    /// with repeats collapsed to digests, only the first call would
    /// measure the network.
    pub unique_args: bool,
    /// Reliability policy each live client runs under.
    pub options: CallOptions,
}

/// Canonical little-endian serialization of a schedule, the unit of the
/// "byte-identical across runs" guarantee.
pub fn schedule_bytes(schedule: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(schedule.len() * 8);
    for t in schedule {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

impl WorkloadSpec {
    /// Per-client RNG stream for purpose `salt`, decorrelated across
    /// clients.
    fn stream(seed: u64, client: usize, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        )
    }

    /// The open-loop arrival offsets (seconds from run start) of `client`
    /// among `clients` under `seed`. Pure: same inputs, same bytes. Closed
    /// loops return an empty schedule — their arrivals are completion-driven.
    pub fn arrival_schedule(&self, seed: u64, client: usize, clients: usize) -> Vec<f64> {
        match self.arrival {
            Arrival::Closed { .. } => Vec::new(),
            Arrival::Open { rate_hz } => {
                let (start, end) = self.phases.window(client, clients);
                let mut rng = Self::stream(seed, client, 0x5ced);
                let mut out = Vec::new();
                let mut t = start;
                loop {
                    t += rng.next_exp(rate_hz);
                    if t >= end {
                        return out;
                    }
                    out.push(t);
                }
            }
        }
    }

    /// Routine of call number `seq` for `client`: a weighted draw from an
    /// independent deterministic stream, so the mix is reproducible and
    /// independent of arrival timing.
    pub fn pick_routine(&self, seed: u64, client: usize, seq: usize) -> Routine {
        let total: u64 = self.mix.iter().map(|e| u64::from(e.weight)).sum();
        if total == 0 {
            return self
                .mix
                .first()
                .map(|e| e.routine)
                .unwrap_or(Routine::Ep { m: 8 });
        }
        let mut rng = Self::stream(seed, client, 0x316e);
        // Burn to `seq` so picks are stable under replay from any index.
        let mut draw = 0u64;
        for _ in 0..=seq {
            draw = rng.next_u64() % total;
        }
        let mut acc = 0u64;
        for e in &self.mix {
            acc += u64::from(e.weight);
            if draw < acc {
                return e.routine;
            }
        }
        self.mix.last().expect("non-empty mix").routine
    }

    /// Number of calls `client` will issue in a `clients`-wide run.
    pub fn planned_calls(&self, seed: u64, client: usize, clients: usize) -> usize {
        match self.arrival {
            Arrival::Closed { .. } => self.calls_per_client,
            Arrival::Open { .. } => self.arrival_schedule(seed, client, clients).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_spec() -> WorkloadSpec {
        WorkloadSpec {
            mix: vec![
                MixEntry {
                    routine: Routine::Ep { m: 10 },
                    weight: 3,
                },
                MixEntry {
                    routine: Routine::Linpack { n: 64 },
                    weight: 1,
                },
            ],
            arrival: Arrival::Open { rate_hz: 50.0 },
            phases: Phases {
                ramp_up: 1.0,
                steady: 4.0,
                ramp_down: 1.0,
            },
            calls_per_client: 0,
            unique_args: false,
            options: CallOptions::default(),
        }
    }

    #[test]
    fn open_loop_schedule_is_byte_identical_across_runs() {
        let spec = open_spec();
        for client in 0..4 {
            let a = spec.arrival_schedule(1997, client, 4);
            let b = spec.arrival_schedule(1997, client, 4);
            assert!(!a.is_empty());
            assert_eq!(schedule_bytes(&a), schedule_bytes(&b));
        }
    }

    #[test]
    fn schedules_differ_across_seeds_and_clients() {
        let spec = open_spec();
        assert_ne!(
            schedule_bytes(&spec.arrival_schedule(1, 0, 2)),
            schedule_bytes(&spec.arrival_schedule(2, 0, 2))
        );
        assert_ne!(
            schedule_bytes(&spec.arrival_schedule(1, 0, 2)),
            schedule_bytes(&spec.arrival_schedule(1, 1, 2))
        );
    }

    #[test]
    fn schedule_respects_phase_window() {
        let spec = open_spec();
        let clients = 4;
        for client in 0..clients {
            let (start, end) = spec.phases.window(client, clients);
            let sched = spec.arrival_schedule(7, client, clients);
            assert!(sched.iter().all(|&t| t >= start && t < end));
            // Sorted: arrivals are cumulative sums of positive increments.
            assert!(sched.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn schedule_rate_is_roughly_honored() {
        let spec = open_spec();
        // One client, window = 6 s at 50 Hz → ~300 arrivals; Poisson noise
        // stays well within ±40%.
        let sched = spec.arrival_schedule(1997, 0, 1);
        assert!(
            (180..=420).contains(&sched.len()),
            "got {} arrivals",
            sched.len()
        );
    }

    #[test]
    fn closed_loop_has_no_precomputed_schedule() {
        let mut spec = open_spec();
        spec.arrival = Arrival::Closed {
            think: Duration::from_millis(5),
        };
        spec.calls_per_client = 9;
        assert!(spec.arrival_schedule(1, 0, 2).is_empty());
        assert_eq!(spec.planned_calls(1, 0, 2), 9);
    }

    #[test]
    fn ramp_windows_are_staggered_and_ordered() {
        let p = Phases {
            ramp_up: 2.0,
            steady: 10.0,
            ramp_down: 2.0,
        };
        let c = 4;
        let windows: Vec<_> = (0..c).map(|i| p.window(i, c)).collect();
        for w in windows.windows(2) {
            assert!(w[0].0 < w[1].0, "starts stagger");
            assert!(w[0].1 < w[1].1, "ends stagger");
        }
        // Everyone is active during steady state.
        for (s, e) in windows {
            assert!(s <= p.ramp_up && e >= p.ramp_up + p.steady);
        }
    }

    #[test]
    fn mix_is_deterministic_and_weighted() {
        let spec = open_spec();
        let picks: Vec<Routine> = (0..400).map(|s| spec.pick_routine(3, 0, s)).collect();
        let again: Vec<Routine> = (0..400).map(|s| spec.pick_routine(3, 0, s)).collect();
        assert_eq!(picks, again);
        let eps = picks
            .iter()
            .filter(|r| matches!(r, Routine::Ep { .. }))
            .count();
        // Weight 3:1 → expect ~300 of 400; allow generous noise.
        assert!((220..=380).contains(&eps), "eps = {eps}");
    }

    #[test]
    fn single_entry_mix_always_picked() {
        let mut spec = open_spec();
        spec.mix = vec![MixEntry {
            routine: Routine::Linpack { n: 100 },
            weight: 1,
        }];
        for s in 0..20 {
            assert_eq!(spec.pick_routine(9, 1, s), Routine::Linpack { n: 100 });
        }
    }

    #[test]
    fn routine_metadata() {
        let lp = Routine::Linpack { n: 100 };
        assert_eq!(lp.name(), "linpack");
        assert_eq!(lp.scalar(), 100);
        assert_eq!(lp.flops(), Some(ninf_exec::linpack_flops(100)));
        let ep = Routine::Ep { m: 20 };
        assert_eq!(ep.name(), "ep");
        assert_eq!(ep.scalar(), 20);
        assert_eq!(ep.flops(), None);
        let nb = Routine::Nbody { n: 4096 };
        assert_eq!(nb.name(), "nbody");
        assert_eq!(nb.scalar(), 4096);
        assert_eq!(nb.flops(), Some(ninf_exec::nbody_flops(4096) as u64));
    }
}
