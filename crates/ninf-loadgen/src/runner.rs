//! Live execution: materialize a target, fan out client threads over real
//! TCP, drive them from the workload spec, and join client- and server-side
//! measurements into a [`RunReport`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ninf_client::{CallTiming, NinfClient};
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_protocol::{Message, ProtocolError, ProtocolResult, Value};
use ninf_reactor::{run_open_loop, DriverConfig, MuxPool};
use ninf_server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
    DEFAULT_ARG_CACHE_BYTES,
};

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
    /// Where open-loop calls check their connections out.
    pool: Arc<MuxPool>,
}

impl LiveTarget {
    /// A connection for `client`: the metaserver when there is one; else
    /// for a closed loop a connection of its own, like the paper's
    /// clients, and for an open-loop call one checked out of the shared
    /// pool of multiplexed streams.
    pub(crate) fn dial(&self, spec: &WorkloadSpec, client: usize) -> ProtocolResult<Conn> {
        if let Some(meta) = &self.meta {
            return Ok(Conn::Meta(Arc::clone(meta)));
        }
        let addr = &self.addrs[client % self.addrs.len()];
        match spec.arrival {
            Arrival::Closed { .. } => NinfClient::connect_with(addr, spec.options),
            Arrival::Open { .. } => {
                NinfClient::connect_pooled(addr, spec.options, Arc::clone(&self.pool))
            }
        }
        .map(|c| Conn::Client(Box::new(c)))
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
            mode: ExecMode::TaskParallel,
            policy,
            arg_cache_bytes,
            ..ServerConfig::default()
        },
    )
}

pub(crate) fn materialize(target: &Target, spec: &WorkloadSpec) -> ProtocolResult<LiveTarget> {
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
        pool: Arc::default(),
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
fn classify(err: &ProtocolError) -> Outcome {
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

/// Calls one client may have in flight under open-loop arrivals, each on
/// a thread of its own.
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

/// Sees each call's record, arguments and reply (`None` on error) on the
/// issuing thread, before that connection makes its next call.
pub type Observer<'a> = &'a (dyn Fn(&CallResult, &[Value], Option<&[Value]>) + Sync);

/// An observer that watches nothing.
pub(crate) fn ignore_replies(_: &CallResult, _: &[Value], _: Option<&[Value]>) {}

/// What every client thread of one run shares.
pub struct Fleet<'a> {
    /// The workload.
    pub spec: &'a WorkloadSpec,
    /// Its arguments.
    pub inputs: &'a Inputs,
    /// Opens a connection for client `i`: once for a closed loop, once per
    /// open-loop slot. A call whose dial fails fails with the dial's error,
    /// and the next call dials again.
    pub dial: &'a (dyn Fn(usize) -> ProtocolResult<Conn> + Sync),
    /// Watches every reply.
    pub observe: Observer<'a>,
    /// Time zero of the schedules and of every record.
    pub epoch: Instant,
    /// Seed of the schedules and the routine picks.
    pub seed: u64,
    /// Clients in the fleet.
    pub clients: usize,
}

impl Fleet<'_> {
    /// Run every client on a thread of its own; the calls, sorted by
    /// client, then sequence.
    pub fn run(&self) -> Vec<CallResult> {
        let mut calls: Vec<CallResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|client| s.spawn(move || drive_client(self, client)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        calls.sort_by_key(|c| (c.client, c.seq));
        calls
    }

    /// Issue and measure call `seq` of `client` over `conn`, dialing first
    /// if there is none; a failed dial fails the call with the dial's error. `due` is the call's arrival time under an open
    /// loop; a closed-loop call is due when it is submitted.
    fn issue(
        &self,
        conn: &mut Option<Conn>,
        client: usize,
        seq: usize,
        due: Option<f64>,
        capped: bool,
    ) -> CallResult {
        let routine = self.spec.pick_routine(self.seed, client, seq);
        let args = self.inputs.args(routine, client, seq);
        let dialed = conn.take().map_or_else(|| (self.dial)(client), Ok);
        let t_submit = self.epoch.elapsed().as_secs_f64();
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
            scheduled: due.unwrap_or(t_submit),
            t_submit,
            t_complete: self.epoch.elapsed().as_secs_f64(),
            timing,
            outcome: reply.as_ref().map_or_else(classify, |_| Outcome::Ok),
            flops: routine.flops(),
            trace_id,
            capped,
        };
        (self.observe)(&result, &args, reply.as_deref().ok());
        result
    }
}

/// One client's whole life: issue every call its arrival process asks for,
/// measure each.
fn drive_client(fleet: &Fleet, client: usize) -> Vec<CallResult> {
    let (start, _end) = fleet.spec.phases.window(client, fleet.clients);
    match fleet.spec.arrival {
        Arrival::Closed { think } => {
            let calls = fleet.spec.calls_per_client;
            let mut conn = None;
            let mut results = Vec::with_capacity(calls);
            sleep_until(fleet.epoch, start);
            for seq in 0..calls {
                results.push(fleet.issue(&mut conn, client, seq, None, false));
                if think > Duration::ZERO && seq + 1 < calls {
                    std::thread::sleep(think);
                }
            }
            results
        }
        Arrival::Open { .. } => {
            // Each due call goes out at its time on a thread of its own,
            // whatever is still in flight, up to the cap. A call due with
            // every slot busy waits for one and says so: past that point
            // the tester, not the service, holds the load back.
            let schedule = fleet
                .spec
                .arrival_schedule(fleet.seed, client, fleet.clients);
            let idle = Mutex::new((Vec::<Conn>::new(), 0usize));
            let freed = Condvar::new();
            let results = Mutex::new(Vec::with_capacity(schedule.len()));
            std::thread::scope(|s| {
                for (seq, &due) in schedule.iter().enumerate() {
                    sleep_until(fleet.epoch, due);
                    let mut slots = idle.lock().unwrap_or_else(|e| e.into_inner());
                    let capped = slots.1 == OPEN_INFLIGHT_CAP;
                    while slots.1 == OPEN_INFLIGHT_CAP {
                        slots = freed.wait(slots).unwrap_or_else(|e| e.into_inner());
                    }
                    slots.1 += 1;
                    let mut conn = slots.0.pop();
                    drop(slots);
                    let (idle, freed, results) = (&idle, &freed, &results);
                    s.spawn(move || {
                        let r = fleet.issue(&mut conn, client, seq, Some(due), capped);
                        results.lock().unwrap_or_else(|e| e.into_inner()).push(r);
                        let mut slots = idle.lock().unwrap_or_else(|e| e.into_inner());
                        slots.0.extend(conn);
                        slots.1 -= 1;
                        freed.notify_one();
                    });
                }
            });
            results.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }
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
/// Spawns whatever the scenario's [`Target`] asks for, fans out one OS
/// thread per client, polls every server's §4.1 stats while they run, joins
/// them, shuts spawned servers down, and aggregates the [`RunReport`].
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
    let poller = Poller::start(&live.addrs, epoch, RUN_POLL_PERIOD);
    let calls = Fleet {
        spec,
        inputs: &inputs,
        dial: &|client| live.dial(spec, client),
        observe: &ignore_replies,
        epoch,
        seed,
        clients,
    }
    .run();
    let server = ServerView::from_polls(&poller.finish());

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
    let poller = Poller::start(&live.addrs, Instant::now(), RUN_POLL_PERIOD);
    let report = run_open_loop(&config);
    let server_view = ServerView::from_polls(&poller.finish());
    let report = report?;

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
            capped: false,
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
            capped: false,
        });
    }

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
