//! Live execution: materialize a target, fan out client threads over real
//! TCP, drive them from the workload spec, and join client- and server-side
//! measurements into a [`RunReport`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninf_client::{CallOptions, CallTiming, NinfClient};
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_protocol::{CallStat, Message, ProtocolError, ProtocolResult, Value};
use ninf_reactor::{run_open_loop, DriverConfig};
use ninf_server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
    DEFAULT_ARG_CACHE_BYTES,
};

use crate::report::{CallResult, Outcome, RunReport, ServerView};
use crate::scenario::Scenario;
use crate::spec::{Arrival, Routine, WorkloadSpec};

/// What the client fleet talks to.
#[derive(Debug, Clone)]
pub enum Target {
    /// An already-running server at this address (e.g. a `ninfd` spawned by
    /// CI); nothing is started or stopped by the harness.
    External(String),
    /// Spawn one in-process server on a loopback ephemeral port.
    Spawn {
        /// PEs behind the gate.
        pes: usize,
        /// Admission policy.
        policy: SchedPolicy,
    },
    /// Spawn a fleet fronted by an in-process metaserver; clients route
    /// through `Metaserver::ninf_call`.
    SpawnFleet {
        /// Fleet size.
        servers: usize,
        /// PEs per server.
        pes: usize,
    },
}

/// Backend the client threads actually call through.
pub(crate) enum Backend {
    /// Each client dials one of these addresses directly.
    Direct(Vec<String>),
    /// Calls go through a shared in-process metaserver.
    Meta(Arc<Metaserver>),
}

/// Spawned servers (shut down when the run ends) plus every queryable
/// address.
pub(crate) struct LiveTarget {
    pub(crate) spawned: Vec<NinfServer>,
    pub(crate) addrs: Vec<String>,
    pub(crate) backend: Backend,
}

/// An in-process task-parallel `ninfd` on an ephemeral loopback port,
/// serving the standard library under `policy` with an argument store of
/// `arg_cache_bytes`.
pub fn spawn_server(
    pes: usize,
    policy: SchedPolicy,
    arg_cache_bytes: usize,
) -> ProtocolResult<NinfServer> {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    NinfServer::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            pes,
            mode: ExecMode::TaskParallel,
            policy,
            arg_cache_bytes,
            ..ServerConfig::default()
        },
    )
}

pub(crate) fn materialize(target: &Target, spec: &WorkloadSpec) -> ProtocolResult<LiveTarget> {
    match target {
        Target::External(addr) => Ok(LiveTarget {
            spawned: Vec::new(),
            addrs: vec![addr.clone()],
            backend: Backend::Direct(vec![addr.clone()]),
        }),
        Target::Spawn { pes, policy } => {
            let server = spawn_server(*pes, *policy, DEFAULT_ARG_CACHE_BYTES)?;
            let addr = server.addr().to_string();
            Ok(LiveTarget {
                spawned: vec![server],
                addrs: vec![addr.clone()],
                backend: Backend::Direct(vec![addr]),
            })
        }
        Target::SpawnFleet { servers, pes } => {
            let mut dir = Directory::new();
            let mut spawned = Vec::new();
            let mut addrs = Vec::new();
            for i in 0..*servers {
                let server = spawn_server(*pes, SchedPolicy::Fcfs, DEFAULT_ARG_CACHE_BYTES)?;
                let addr = server.addr().to_string();
                dir.register(ServerEntry {
                    name: format!("node{i}"),
                    addr: addr.clone(),
                    bandwidth_bytes_per_sec: 10e6,
                    linpack_mflops: 100.0,
                });
                addrs.push(addr);
                spawned.push(server);
            }
            let meta = Metaserver::with_options(
                dir,
                Balancing::RoundRobin,
                spec.options,
                Some(Duration::from_secs(1)),
            );
            Ok(LiveTarget {
                spawned,
                addrs,
                backend: Backend::Meta(Arc::new(meta)),
            })
        }
    }
}

/// Pre-generated call inputs, shared read-only across the fleet so argument
/// generation never sits on the measured path.
pub(crate) struct Inputs {
    /// `n → (A, b)` for every distinct Linpack order in the mix.
    linpack: HashMap<usize, (Vec<f64>, Vec<f64>)>,
    /// `n → (masses, pos)` for every distinct N-body size in the mix. The
    /// arrays are bitwise-stable across calls and clients — exactly the
    /// repeat payload the argument cache collapses to a digest.
    nbody: HashMap<usize, (Vec<f64>, Vec<f64>)>,
    /// Salt arrays per `(client, seq)` so no call repeats a payload
    /// (transfer benchmarks; see [`WorkloadSpec::unique_args`]).
    unique: bool,
}

impl Inputs {
    pub(crate) fn prepare(spec: &WorkloadSpec, seed: u64) -> Self {
        let mut linpack = HashMap::new();
        let mut nbody = HashMap::new();
        for entry in &spec.mix {
            match entry.routine {
                Routine::Linpack { n } => {
                    linpack.entry(n).or_insert_with(|| {
                        let (a, b) = ninf_exec::random_matrix(n, seed);
                        (a.as_slice().to_vec(), b)
                    });
                }
                Routine::Nbody { n } => {
                    nbody
                        .entry(n)
                        .or_insert_with(|| ninf_exec::nbody_particles(n));
                }
                Routine::Ep { .. } => {}
            }
        }
        Inputs {
            linpack,
            nbody,
            unique: spec.unique_args,
        }
    }

    /// Under `unique_args`, perturb one trailing element so the array's
    /// digest differs per `(client, seq)` without changing its size or
    /// the problem's conditioning (the solver never pivots on the last
    /// entry alone).
    fn salted(&self, base: &[f64], client: usize, seq: usize) -> Vec<f64> {
        let mut out = base.to_vec();
        if self.unique {
            if let Some(last) = out.last_mut() {
                *last += 1.0 + (client as f64) * 1_000_003.0 + seq as f64;
            }
        }
        out
    }

    /// Arguments of call number `seq` from `client`; the indices feed the
    /// per-iteration scalars (N-body's `step`) and, under `unique_args`,
    /// the array salt — never the array shapes.
    fn args(&self, routine: Routine, client: usize, seq: usize) -> Vec<Value> {
        match routine {
            Routine::Linpack { n } => {
                let (a, b) = &self.linpack[&n];
                vec![
                    Value::Int(n as i32),
                    Value::DoubleArray(self.salted(a, client, seq)),
                    Value::DoubleArray(self.salted(b, client, seq)),
                ]
            }
            Routine::Ep { m } => vec![Value::Int(m)],
            Routine::Nbody { n } => {
                let (masses, pos) = &self.nbody[&n];
                vec![
                    Value::Int(n as i32),
                    Value::Int(seq as i32),
                    Value::DoubleArray(self.salted(masses, client, seq)),
                    Value::DoubleArray(self.salted(pos, client, seq)),
                ]
            }
        }
    }
}

/// The outcome class of a failed call: refused by the server, out of
/// time, or lost in transport.
pub fn classify(err: &ProtocolError) -> Outcome {
    match err {
        ProtocolError::Remote(_) => Outcome::Remote,
        ProtocolError::Timeout { .. } => Outcome::Timeout,
        _ => Outcome::Transport,
    }
}

pub(crate) fn sleep_until(epoch: Instant, offset: f64) {
    if offset <= 0.0 {
        return;
    }
    let target = epoch + Duration::from_secs_f64(offset);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// One client thread's whole life: issue every scheduled call, measure each.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_client(
    spec: &WorkloadSpec,
    backend: &Backend,
    inputs: &Inputs,
    epoch: Instant,
    seed: u64,
    client: usize,
    clients: usize,
) -> Vec<CallResult> {
    let schedule = spec.arrival_schedule(seed, client, clients);
    let planned = spec.planned_calls(seed, client, clients);
    let mut results = Vec::with_capacity(planned);

    // Direct backends hold one long-lived connection per client, like the
    // paper's clients; the reliability policy re-dials inside the call.
    let mut direct = match backend {
        Backend::Direct(addrs) => {
            let addr = &addrs[client % addrs.len()];
            match NinfClient::connect_with(addr, spec.options) {
                Ok(c) => Some(c),
                Err(_) => {
                    // Server unreachable at start: every planned call is a
                    // transport failure, not a silent no-show.
                    for seq in 0..planned {
                        let routine = spec.pick_routine(seed, client, seq);
                        let t = epoch.elapsed().as_secs_f64();
                        results.push(CallResult {
                            client,
                            seq,
                            routine: routine.name(),
                            n: routine.scalar(),
                            scheduled: t,
                            t_submit: t,
                            t_complete: t,
                            timing: CallTiming {
                                attempts: 1,
                                ..CallTiming::default()
                            },
                            outcome: Outcome::Transport,
                            flops: routine.flops(),
                            trace_id: 0,
                        });
                    }
                    return results;
                }
            }
        }
        Backend::Meta(_) => None,
    };

    let (start, _end) = spec.phases.window(client, clients);
    match spec.arrival {
        Arrival::Closed { think } => {
            sleep_until(epoch, start);
            for seq in 0..spec.calls_per_client {
                let scheduled = epoch.elapsed().as_secs_f64();
                results.push(issue(
                    spec,
                    backend,
                    &mut direct,
                    inputs,
                    epoch,
                    seed,
                    client,
                    seq,
                    scheduled,
                ));
                if think > Duration::ZERO && seq + 1 < spec.calls_per_client {
                    std::thread::sleep(think);
                }
            }
        }
        Arrival::Open { .. } => {
            for (seq, &offset) in schedule.iter().enumerate() {
                // Late calls are issued immediately, never skipped: the
                // offered load is exactly the schedule.
                sleep_until(epoch, offset);
                results.push(issue(
                    spec,
                    backend,
                    &mut direct,
                    inputs,
                    epoch,
                    seed,
                    client,
                    seq,
                    offset,
                ));
            }
        }
    }
    results
}

/// Issue and measure one call.
#[allow(clippy::too_many_arguments)]
fn issue(
    spec: &WorkloadSpec,
    backend: &Backend,
    direct: &mut Option<NinfClient>,
    inputs: &Inputs,
    epoch: Instant,
    seed: u64,
    client: usize,
    seq: usize,
    scheduled: f64,
) -> CallResult {
    let routine = spec.pick_routine(seed, client, seq);
    let args = inputs.args(routine, client, seq);
    let t_submit = epoch.elapsed().as_secs_f64();
    let (timing, outcome, trace_id) = match (backend, direct.as_mut()) {
        (_, Some(c)) => {
            let outcome = match c.ninf_call(routine.name(), &args) {
                Ok(_) => Outcome::Ok,
                Err(e) => classify(&e),
            };
            (
                c.last_timing().unwrap_or_default(),
                outcome,
                c.last_trace_id(),
            )
        }
        (Backend::Meta(meta), _) => {
            // The metaserver path has no per-segment decomposition; wall
            // total only.
            let t0 = Instant::now();
            let (result, trace_id) = meta.ninf_call_traced(routine.name(), &args, None);
            let outcome = match result {
                Ok(_) => Outcome::Ok,
                Err(e) => classify(&e),
            };
            (
                CallTiming {
                    total: t0.elapsed().as_secs_f64(),
                    attempts: 1,
                    ..CallTiming::default()
                },
                outcome,
                trace_id,
            )
        }
        (Backend::Direct(_), None) => unreachable!("direct backend always has a client"),
    };
    let t_complete = epoch.elapsed().as_secs_f64();
    CallResult {
        client,
        seq,
        routine: routine.name(),
        n: routine.scalar(),
        scheduled,
        t_submit,
        t_complete,
        timing,
        outcome,
        flops: routine.flops(),
        trace_id,
    }
}

/// Options for the harness's own measurement connections — stats queries
/// and window polls: a deadline and nothing else. The tester stays fixed
/// while the service changes, so a measurement connection never takes the
/// workload's options: it neither joins the workload's emulated link (a
/// lane of its own, and its loss draws) nor waits out its deadline.
pub fn monitor_options() -> CallOptions {
    CallOptions::with_deadline(Duration::from_secs(2))
}

/// Fetch §4.1 timelines from every queryable server after the run.
pub(crate) fn collect_server_view(addrs: &[String]) -> Option<ServerView> {
    let mut records: Vec<CallStat> = Vec::new();
    let mut any = false;
    for addr in addrs {
        if let Ok(mut c) = NinfClient::connect_with(addr, monitor_options()) {
            if let Ok((_now, _total, recs)) = c.query_stats(0) {
                records.extend(recs);
                any = true;
            }
        }
    }
    any.then(|| ServerView::from_stats(&records))
}

/// Short human description of what the fleet offered.
fn workload_desc(spec: &WorkloadSpec) -> String {
    let mix = spec
        .mix
        .iter()
        .map(|e| {
            format!(
                "{} {}={} (w{})",
                e.routine.name(),
                match e.routine {
                    Routine::Linpack { .. } | Routine::Nbody { .. } => "n",
                    Routine::Ep { .. } => "m",
                },
                e.routine.scalar(),
                e.weight
            )
        })
        .collect::<Vec<_>>()
        .join(" + ");
    match spec.arrival {
        Arrival::Closed { think } => format!(
            "closed-loop think={}ms, {} calls/client, mix: {mix}",
            think.as_millis(),
            spec.calls_per_client
        ),
        Arrival::Open { rate_hz } => format!(
            "open-loop {rate_hz} Hz/client over {:.1}s, mix: {mix}",
            spec.phases.total()
        ),
    }
}

/// Run `scenario` with `clients` concurrent live clients under `seed`.
///
/// Spawns whatever the scenario's [`Target`] asks for, fans out one OS
/// thread per client, joins them, queries every server's §4.1 stats, shuts
/// spawned servers down, and aggregates the [`RunReport`].
pub fn run_scenario(scenario: &Scenario, clients: usize, seed: u64) -> ProtocolResult<RunReport> {
    // The c10k scenario swaps the thread-per-client fleet for the
    // single-threaded open-loop driver: 10 000 OS threads on a small host
    // is its own experiment, not the one we're measuring.
    if scenario.name == "lan-c10k" {
        return run_c10k(scenario, clients, seed);
    }
    let spec = &scenario.spec;
    let live = materialize(&scenario.target, spec)?;
    let inputs = Inputs::prepare(spec, seed);

    let epoch = Instant::now();
    let mut calls: Vec<CallResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let backend = &live.backend;
                let inputs = &inputs;
                s.spawn(move || drive_client(spec, backend, inputs, epoch, seed, client, clients))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    calls.sort_by_key(|c| (c.client, c.seq));

    let wall_secs = {
        let first = calls
            .iter()
            .map(|c| c.t_submit)
            .fold(f64::INFINITY, f64::min);
        let last = calls.iter().map(|c| c.t_complete).fold(0.0, f64::max);
        if first.is_finite() && last > first {
            last - first
        } else {
            0.0
        }
    };

    let server = collect_server_view(&live.addrs);
    let schedules: Vec<Vec<f64>> = (0..clients)
        .map(|c| spec.arrival_schedule(seed, c, clients))
        .collect();
    for s in live.spawned {
        s.shutdown();
    }

    Ok(RunReport::build(
        scenario.name,
        workload_desc(spec),
        clients,
        seed,
        wall_secs,
        calls,
        server,
        schedules,
    ))
}

/// The `lan-c10k` path: `clients` is the *connection* count, all driven from
/// one poller thread ([`run_open_loop`]); the spec's per-client open-loop
/// rate scales to an aggregate schedule. Calls collapse into a single
/// per-client summary row — at c=10 000 a per-connection breakdown is noise.
fn run_c10k(scenario: &Scenario, clients: usize, seed: u64) -> ProtocolResult<RunReport> {
    let spec = &scenario.spec;
    let live = materialize(&scenario.target, spec)?;
    let addr = live
        .addrs
        .first()
        .cloned()
        .ok_or_else(|| ProtocolError::Frame("c10k target has no address".into()))?;

    let routine = spec
        .mix
        .first()
        .map(|e| e.routine)
        .unwrap_or(Routine::Ep { m: 4 });
    let inputs = Inputs::prepare(spec, seed);
    let rate_per_conn = match spec.arrival {
        Arrival::Open { rate_hz } => rate_hz,
        Arrival::Closed { .. } => 1.0,
    };
    let drain = spec.options.deadline.unwrap_or(Duration::from_secs(10));
    let config = DriverConfig {
        addr,
        conns: clients,
        duration: Duration::from_secs_f64(spec.phases.total().max(1.0)),
        rate_hz: rate_per_conn * clients as f64,
        max_inflight_per_conn: 32,
        request: Message::Invoke {
            routine: routine.name().into(),
            args: ninf_protocol::Arg::inline(inputs.args(routine, 0, 0)),
            trace: None,
        },
        drain,
    };
    let report = run_open_loop(&config)?;

    let mut calls: Vec<CallResult> = report
        .samples
        .iter()
        .enumerate()
        .map(|(seq, s)| CallResult {
            client: 0,
            seq,
            routine: routine.name(),
            n: routine.scalar(),
            scheduled: s.scheduled,
            t_submit: s.scheduled,
            t_complete: s.scheduled + s.latency,
            timing: CallTiming {
                total: s.latency,
                attempts: 1,
                ..CallTiming::default()
            },
            outcome: if s.ok { Outcome::Ok } else { Outcome::Remote },
            flops: routine.flops(),
            trace_id: 0,
        })
        .collect();
    // Driver-level errors with no sample (dead connections, calls still owed
    // at the drain deadline) must surface in the report, not vanish.
    let sample_errors = report.samples.iter().filter(|s| !s.ok).count() as u64;
    let base = calls.len();
    for k in 0..report.errors.saturating_sub(sample_errors) {
        calls.push(CallResult {
            client: 0,
            seq: base + k as usize,
            routine: routine.name(),
            n: routine.scalar(),
            scheduled: 0.0,
            t_submit: 0.0,
            t_complete: 0.0,
            timing: CallTiming {
                attempts: 1,
                ..CallTiming::default()
            },
            outcome: Outcome::Transport,
            flops: routine.flops(),
            trace_id: 0,
        });
    }

    let server_view = collect_server_view(&live.addrs);
    for s in live.spawned {
        s.shutdown();
    }
    let mut run = RunReport::build(
        scenario.name,
        format!(
            "open-loop {:.1} Hz aggregate over {} mux connections, {}",
            config.rate_hz,
            report.conns,
            workload_desc(spec)
        ),
        1,
        seed,
        report.elapsed,
        calls,
        server_view,
        Vec::new(),
    );
    run.clients = report.conns;
    Ok(run)
}
