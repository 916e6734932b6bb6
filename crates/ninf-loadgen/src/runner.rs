//! Live execution: materialize a target, drive the client fleet over real
//! TCP from the workload spec (a thread per closed-loop client, the
//! open-loop engine for open arrivals), and join client- and server-side
//! measurements into a [`RunReport`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninf_client::{CallTiming, NinfClient};
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_protocol::{ProtocolError, ProtocolResult, Value};
use ninf_server::{
    builtin::register_stdlib, NinfServer, Registry, SchedPolicy, ServerConfig,
    DEFAULT_ARG_CACHE_BYTES,
};

use crate::open::Unserved;
use crate::poll::Poller;
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

/// Spawned servers (shut down when the run ends), every queryable address,
/// and the metaserver fronting them, if any.
pub(crate) struct LiveTarget {
    pub(crate) spawned: Vec<NinfServer>,
    pub(crate) addrs: Vec<String>,
    pub(crate) meta: Option<Arc<Metaserver>>,
}

impl LiveTarget {
    /// A closed-loop connection for `client`: the metaserver when there is
    /// one, else a connection of its own, like the paper's clients.
    pub(crate) fn dial(&self, spec: &WorkloadSpec, client: usize) -> ProtocolResult<Conn> {
        if let Some(meta) = &self.meta {
            return Ok(Conn::Meta(Arc::clone(meta)));
        }
        let addr = &self.addrs[client % self.addrs.len()];
        NinfClient::connect_with(addr, spec.options).map(|c| Conn::Client(Box::new(c)))
    }
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
            policy,
            arg_cache_bytes,
            ..ServerConfig::default()
        },
    )
}

/// Start what `target` asks for, once `spec` is known to be served.
pub(crate) fn materialize(target: &Target, spec: &WorkloadSpec) -> ProtocolResult<LiveTarget> {
    Unserved::check(spec, matches!(target, Target::SpawnFleet { .. }))?;
    let (spawned, addrs, meta) = match target {
        Target::External(addr) => (Vec::new(), vec![addr.clone()], None),
        Target::Spawn { pes, policy } => {
            let server = spawn_server(*pes, *policy, DEFAULT_ARG_CACHE_BYTES)?;
            let addr = server.addr().to_string();
            (vec![server], vec![addr], None)
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
            (spawned, addrs, Some(Arc::new(meta)))
        }
    };
    Ok(LiveTarget {
        spawned,
        addrs,
        meta,
    })
}

/// Pre-generated call inputs, shared read-only across the fleet so argument
/// generation never sits on the measured path.
pub struct Inputs {
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
    /// The arrays every routine in `spec`'s mix needs, generated under
    /// `seed`.
    pub fn prepare(spec: &WorkloadSpec, seed: u64) -> Self {
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
    pub fn args(&self, routine: Routine, client: usize, seq: usize) -> Vec<Value> {
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
pub(crate) fn classify(err: &ProtocolError) -> Outcome {
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

/// Calls one open-loop client may have in flight; a call due with all of
/// them busy waits for one and is counted as `generator_capped`.
pub const OPEN_INFLIGHT_CAP: usize = 8;

/// One way to the service: a client of its own, or the shared metaserver.
pub enum Conn {
    /// A dialed, pooled or transport-wrapped client.
    Client(Box<NinfClient>),
    /// Calls route through an in-process metaserver.
    Meta(Arc<Metaserver>),
}

impl Conn {
    /// Make one call: its reply, client-side timing and trace id.
    fn call(
        &mut self,
        routine: &str,
        args: &[Value],
    ) -> (ProtocolResult<Vec<Value>>, CallTiming, u64) {
        match self {
            Conn::Client(c) => {
                let reply = c.ninf_call(routine, args);
                (
                    reply,
                    c.last_timing().unwrap_or_default(),
                    c.last_trace_id(),
                )
            }
            Conn::Meta(meta) => {
                // The metaserver path has no per-segment decomposition;
                // wall total only.
                let t0 = Instant::now();
                let (reply, trace_id) = meta.ninf_call_traced(routine, args, None);
                let timing = CallTiming {
                    total: t0.elapsed().as_secs_f64(),
                    attempts: 1,
                    ..CallTiming::default()
                };
                (reply, timing, trace_id)
            }
        }
    }
}

/// Sees each call's record, arguments and reply (`None` on error) once, as
/// it completes (a closed-loop client's before its next call).
pub type Observer<'a> = &'a (dyn Fn(&CallResult, &[Value], Option<&[Value]>) + Sync);

/// An observer that watches nothing.
pub(crate) fn ignore_replies(_: &CallResult, _: &[Value], _: Option<&[Value]>) {}

/// What every client of one run shares.
pub struct Fleet<'a> {
    /// The workload.
    pub spec: &'a WorkloadSpec,
    /// Its arguments.
    pub inputs: &'a Inputs,
    /// Opens a closed-loop client's connection, once per client. A call
    /// whose dial fails fails with the dial's error, and the next call
    /// dials again.
    pub dial: &'a (dyn Fn(usize) -> ProtocolResult<Conn> + Sync),
    /// Where an open-loop client sends its calls, directly: client `i` to
    /// `addrs[i % addrs.len()]`.
    pub addrs: &'a [String],
    /// Watches every reply.
    pub observe: Observer<'a>,
    /// Seed of the schedules and the routine picks.
    pub seed: u64,
    /// Clients in the fleet.
    pub clients: usize,
}

impl Fleet<'_> {
    /// Run the fleet: a closed loop on a thread per client, an open loop on
    /// the open-loop engine ([`crate::open`]). Returns the run's time zero,
    /// and its calls sorted by client, then sequence.
    pub fn run(&self) -> ProtocolResult<(Instant, Vec<CallResult>)> {
        let (epoch, mut calls) = match self.spec.arrival {
            Arrival::Open { .. } => {
                crate::open::run(self).map(|(epoch, calls, _)| (epoch, calls))?
            }
            Arrival::Closed { think } => {
                let epoch = Instant::now();
                let calls = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..self.clients)
                        .map(|client| s.spawn(move || drive_client(self, epoch, client, think)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("client thread panicked"))
                        .collect()
                });
                (epoch, calls)
            }
        };
        calls.sort_by_key(|c| (c.client, c.seq));
        Ok((epoch, calls))
    }

    /// Issue and measure call `seq` of `client` over `conn`, dialing first
    /// if there is none; a failed dial fails the call with the dial's
    /// error. Times are seconds from `epoch`.
    fn issue(
        &self,
        epoch: Instant,
        conn: &mut Option<Conn>,
        client: usize,
        seq: usize,
    ) -> CallResult {
        let routine = self.spec.pick_routine(self.seed, client, seq);
        let args = self.inputs.args(routine, client, seq);
        let dialed = conn.take().map_or_else(|| (self.dial)(client), Ok);
        let t_submit = epoch.elapsed().as_secs_f64();
        let (reply, timing, trace_id) = match dialed {
            Ok(c) => conn.insert(c).call(routine.name(), &args),
            Err(e) => (
                Err(e),
                CallTiming {
                    attempts: 1,
                    ..CallTiming::default()
                },
                0,
            ),
        };
        let result = CallResult {
            client,
            seq,
            routine: routine.name(),
            n: routine.scalar(),
            scheduled: t_submit,
            t_submit,
            t_complete: epoch.elapsed().as_secs_f64(),
            timing,
            outcome: reply.as_ref().map_or_else(classify, |_| Outcome::Ok),
            flops: routine.flops(),
            trace_id,
            capped: false,
        };
        (self.observe)(&result, &args, reply.as_deref().ok());
        result
    }
}

/// One closed-loop client's whole life: from its start in the ramp, issue
/// its call budget, each call `think` after the previous one completes.
fn drive_client(fleet: &Fleet, epoch: Instant, client: usize, think: Duration) -> Vec<CallResult> {
    let (start, _end) = fleet.spec.phases.window(client, fleet.clients);
    let calls = fleet.spec.calls_per_client;
    let mut conn = None;
    let mut results = Vec::with_capacity(calls);
    sleep_until(epoch, start);
    for seq in 0..calls {
        results.push(fleet.issue(epoch, &mut conn, client, seq));
        if think > Duration::ZERO && seq + 1 < calls {
            std::thread::sleep(think);
        }
    }
    results
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

/// Period of a run's cursor poller.
const RUN_POLL_PERIOD: Duration = Duration::from_millis(100);

/// Run `scenario` with `clients` concurrent live clients under `seed`.
///
/// Spawns whatever the scenario's [`Target`] asks for, runs the [`Fleet`]
/// (a thread per closed-loop client, or the one open-loop engine), polls
/// every server's §4.1 stats while it runs, shuts spawned servers down,
/// and aggregates the [`RunReport`]. An open-loop scenario the engine
/// does not serve is refused before anything starts ([`Unserved`]).
pub fn run_scenario(scenario: &Scenario, clients: usize, seed: u64) -> ProtocolResult<RunReport> {
    let spec = &scenario.spec;
    let live = materialize(&scenario.target, spec)?;
    let inputs = Inputs::prepare(spec, seed);

    let poller = Poller::start(&live.addrs, Instant::now(), RUN_POLL_PERIOD);
    let run = Fleet {
        spec,
        inputs: &inputs,
        dial: &|client| live.dial(spec, client),
        addrs: &live.addrs,
        observe: &ignore_replies,
        seed,
        clients,
    }
    .run();
    let server = ServerView::from_polls(&poller.finish());
    let schedules: Vec<Vec<f64>> = (0..clients)
        .map(|c| spec.arrival_schedule(seed, c, clients))
        .collect();
    for s in live.spawned {
        s.shutdown();
    }
    let (_, calls) = run?;

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
