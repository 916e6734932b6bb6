//! The chaos harness: spawn a real fleet over loopback TCP, drive a
//! [`ChaosSpec`] through fault-injecting clients, and evaluate every
//! invariant, emitting a bit-deterministic transcript.
//!
//! Determinism contract: the transcript contains only facts that are pure
//! functions of `(spec, seed)` — the spec fingerprint, per-client planned
//! fault-schedule and arrival-schedule fingerprints, and the PASS/FAIL
//! verdicts. Wall-clock-dependent quantities (how many calls a drop turned
//! into timeouts vs transport errors) are deliberately excluded, so two
//! same-seed runs print byte-identical transcripts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ninf_client::{NinfClient, Transaction, TxArg};
use ninf_loadgen::{classify, fnv1a, spawn_server, Outcome, Routine};
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_obs::recorder;
use ninf_protocol::{link_schedule, LinkTransport, ProtocolResult, Value};
use ninf_reactor::MuxStream;
use ninf_server::SchedPolicy;

use crate::invariants::{
    bulk_isolation, conservation, corruption_rejected, exactly_once, monotone_cursors,
    quarantine_legal, traces_connected, tx_exactly_once, window_cursors, BulkRecord, CallRecord,
    Check, StatsPoll, WindowPoll,
};
use crate::spec::{fraction, ChaosSpec};

/// Nesting slack for trace validation: in-process clocks agree, but span
/// ends are stamped a scheduling quantum apart.
const NESTING_SLACK_US: u64 = 10_000;

/// Metric window interval the harness arms on every spawned server: short
/// enough that a run closes several windows for the cursor invariant to
/// chew on, long enough not to perturb the run.
const WINDOW_INTERVAL: Duration = Duration::from_millis(25);

/// Deliberate defects the harness can plant in its own accounting, used to
/// prove the invariant checkers actually bite (`ninf-chaos --violate-*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No defect: measure the system as-is.
    None,
    /// Duplicate the first completion record, violating exactly-once.
    DuplicateCompletion,
}

/// One finished chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Spec fingerprint (seed-independent).
    pub fingerprint: u64,
    /// All invariant verdicts, in transcript order.
    pub checks: Vec<Check>,
    /// The deterministic transcript.
    pub transcript: String,
}

impl ChaosRun {
    /// Whether every invariant held.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failed checks' transcript lines.
    pub fn violations(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.line())
            .collect()
    }
}

/// Serializes harness runs within one process: the global flight recorder
/// is shared state, and concurrent fleets would corrupt each other's
/// trace snapshots (and wall-clock determinism).
static GATE: Mutex<()> = Mutex::new(());

/// Call arguments for call `seq` of a routine. Linpack gets an identity
/// system so the solve is well-conditioned without hauling a matrix
/// generator in here; N-body regenerates its deterministic particle set, so
/// every call of a given size carries byte-identical arrays (the argument
/// cache's repeat-input case) while `seq` drives the probe step.
fn args_for(routine: Routine, seq: usize) -> Vec<Value> {
    match routine {
        Routine::Ep { m } => vec![Value::Int(m)],
        Routine::Linpack { n } => {
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                a[i * n + i] = 1.0;
            }
            vec![
                Value::Int(n as i32),
                Value::DoubleArray(a),
                Value::DoubleArray(vec![1.0; n]),
            ]
        }
        Routine::Nbody { n } => {
            let (masses, pos) = ninf_exec::nbody_particles(n);
            vec![
                Value::Int(n as i32),
                Value::Int(seq as i32),
                Value::DoubleArray(masses),
                Value::DoubleArray(pos),
            ]
        }
    }
}

/// Arguments of call `seq` from `client`, salted under `unique_args` the
/// same way the load generator salts (`+= 1 + client·1_000_003 + seq` on
/// every array's last element) so no two calls ship the same digest and
/// every call re-runs the whole chunk upload.
fn salted_args(spec: &ChaosSpec, routine: Routine, client: usize, seq: usize) -> Vec<Value> {
    let mut args = args_for(routine, seq);
    if spec.workload.unique_args {
        let salt = 1.0 + (client as f64) * 1_000_003.0 + seq as f64;
        for v in &mut args {
            if let Value::DoubleArray(a) = v {
                if let Some(last) = a.last_mut() {
                    *last += salt;
                }
            }
        }
    }
    args
}

/// Whether a Linpack reply matches the solution predicted from the exact
/// bytes shipped. The harness solves `A x = b` with `A` an identity whose
/// last diagonal entry carries the same salt as `b`'s last element, so the
/// exact answer is all-ones *regardless of the salt* — but only when the
/// server factored precisely the salted matrix this call uploaded. A stale,
/// foreign, or partially-reassembled image yields `x[n-1] ≠ 1`.
fn solution_is_exact(out: &[Value]) -> bool {
    let Some(Value::DoubleArray(x)) = out.first() else {
        return false;
    };
    !x.is_empty() && x.iter().all(|v| (v - 1.0).abs() <= 1e-9)
}

/// One bulk-path client leg: a dialed, WAN-shaped client whose large
/// arguments pre-ship as chunks over one windowed lane. The link's seeded
/// loss schedule supplies the faults (bursts land mid-transfer), so the
/// scenario's `faults` link does not wrap this leg; alongside the call
/// ledger it records per-call [`BulkRecord`]s for the [`bulk_isolation`]
/// invariant.
fn drive_bulk_client(
    spec: &ChaosSpec,
    addr: &str,
    seed: u64,
    client: usize,
) -> (Vec<CallRecord>, Vec<u64>, Vec<BulkRecord>) {
    let planned = spec.workload.planned_calls(seed, client, spec.clients);
    let mut records = Vec::with_capacity(planned);
    let mut bulk = Vec::with_capacity(planned);
    let mut trace_ids = Vec::new();
    let mut options = spec.workload.options;
    options.wan = spec.link_shape(seed);
    let mut c = match NinfClient::connect_with(addr, options) {
        Ok(c) => c,
        Err(_) => {
            for seq in 0..planned {
                records.push(CallRecord {
                    client,
                    seq,
                    outcome: Outcome::Transport,
                    tainted: false,
                });
            }
            return (records, trace_ids, bulk);
        }
    };
    // Per-client digest memory, cleared so every run's upload starts cold.
    let cache_key = format!("{addr}#chaos-client{client}");
    ninf_client::argmem::forget_destination(&cache_key);
    c.set_cache_key(Some(cache_key));
    for seq in 0..planned {
        let routine = spec.workload.pick_routine(seed, client, seq);
        let args = salted_args(spec, routine, client, seq);
        let image_bytes: u64 = args
            .iter()
            .filter(|v| ninf_protocol::cacheable(v))
            .map(|v| ninf_protocol::value_image(v).len())
            .filter(|len| *len >= ninf_protocol::CHUNK_THRESHOLD)
            .map(|len| len as u64)
            .sum();
        let result = c.ninf_call(routine.name(), &args);
        let timing = c.last_timing().unwrap_or_default();
        let (outcome, result_exact) = match result {
            Ok(out) => {
                trace_ids.push(c.last_trace_id());
                (Outcome::Ok, solution_is_exact(&out))
            }
            Err(e) => (classify(&e), true),
        };
        records.push(CallRecord {
            client,
            seq,
            outcome,
            tainted: false,
        });
        bulk.push(BulkRecord {
            client,
            seq,
            image_bytes,
            bulk_bytes: timing.bulk_bytes as u64,
            retransmits: timing.bulk_retransmits,
            outcome,
            result_exact,
        });
    }
    (records, trace_ids, bulk)
}

/// One client leg: wrap a multiplexed stream's handle in the seeded fault
/// injector and issue every planned call, recording typed outcomes, the
/// trace ids of every successful call, and whether the stream had been
/// corrupted (truncate/garble) by the time each call returned. With
/// checksummed framing an `Ok` means the peer decoded genuine bytes, so
/// trace attribution is claimed unconditionally — and any `Ok` after a
/// corrupting fault is itself an invariant violation. Each client owns its
/// own [`MuxStream`], so a corrupting fault poisons exactly that client's
/// stream: a dropped send surfaces as a deadline timeout, and a truncated
/// or garbled frame makes the server kill the connection, failing the
/// calls in flight on it as retryable transport errors.
fn drive_client(
    spec: &ChaosSpec,
    addr: &str,
    seed: u64,
    client: usize,
) -> (Vec<CallRecord>, Vec<u64>, Vec<BulkRecord>) {
    // Bulk scenarios trade the fault injector for link shaping and keep a
    // per-call upload ledger on the side.
    if spec.bulk_leg() {
        return drive_bulk_client(spec, addr, seed, client);
    }
    let planned = spec.workload.planned_calls(seed, client, spec.clients);
    let mut records = Vec::with_capacity(planned);
    let mut trace_ids = Vec::new();
    let plan = spec.client_faults(seed, client);
    // The stream must outlive the client: dropping a MuxStream poisons it.
    let stream = match MuxStream::connect(addr, spec.workload.options.deadline, 64) {
        Ok(s) => s,
        Err(_) => {
            for seq in 0..planned {
                records.push(CallRecord {
                    client,
                    seq,
                    outcome: Outcome::Transport,
                    tainted: false,
                });
            }
            return (records, trace_ids, Vec::new());
        }
    };
    let faulty = LinkTransport::private(stream.handle(), plan);
    let fault_log = faulty.history();
    let mut c = NinfClient::from_transport(Box::new(faulty));
    // Arm the argument cache with a per-(server, client) digest memory,
    // cleared first so every run starts cold: the refill leg then follows
    // the seeded fault schedule, not what an earlier run left behind.
    let cache_key = format!("{addr}#chaos-client{client}");
    ninf_client::argmem::forget_destination(&cache_key);
    c.set_cache_key(Some(cache_key));
    if c.set_options(spec.workload.options).is_err() {
        for seq in 0..planned {
            records.push(CallRecord {
                client,
                seq,
                outcome: Outcome::Transport,
                tainted: false,
            });
        }
        return (records, trace_ids, Vec::new());
    }
    let mut tainted = false;
    for seq in 0..planned {
        let routine = spec.workload.pick_routine(seed, client, seq);
        let result = c.ninf_call(routine.name(), &args_for(routine, seq));
        // The fault log now covers every send this call performed, so the
        // taint flag reflects the stream state at the moment the outcome
        // was decided. Taint is sticky: the client never reconnects.
        tainted = tainted || fault_log.corrupts_stream();
        let outcome = match result {
            Ok(_) => {
                // The payload CRC means a decoded reply is a genuine
                // reply: claim trace attribution for every success, with
                // no corrupted-stream carve-out.
                trace_ids.push(c.last_trace_id());
                Outcome::Ok
            }
            Err(e) => classify(&e),
        };
        records.push(CallRecord {
            client,
            seq,
            outcome,
            tainted,
        });
    }
    (records, trace_ids, Vec::new())
}

/// Stats monitor for one server: poll `QueryStats` with a moving cursor
/// while the run is live, then drain until the cursor catches the
/// server's lifetime total (records are appended asynchronously around
/// reply time, so the drain is bounded, not one-shot).
fn monitor_stats(addr: &str, stop: &AtomicBool) -> ProtocolResult<Vec<StatsPoll>> {
    let mut c = NinfClient::connect_with(
        addr,
        ninf_client::CallOptions::with_deadline(Duration::from_secs(2)),
    )?;
    let mut polls = Vec::new();
    let mut cursor = 0u64;
    fn poll(
        c: &mut NinfClient,
        cursor: &mut u64,
        polls: &mut Vec<StatsPoll>,
    ) -> ProtocolResult<u64> {
        let (now, total, records) = c.query_stats(*cursor)?;
        *cursor += records.len() as u64;
        polls.push(StatsPoll {
            now,
            total,
            fetched: records.len(),
        });
        Ok(total)
    }
    while !stop.load(Ordering::Acquire) {
        poll(&mut c, &mut cursor, &mut polls)?;
        std::thread::sleep(Duration::from_millis(15));
    }
    // Bounded drain: totals are monotone and the run is over, so catch up.
    for _ in 0..200 {
        let total = poll(&mut c, &mut cursor, &mut polls)?;
        if cursor >= total {
            return Ok(polls);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(polls)
}

/// Window monitor for one server: poll `QueryMetrics` with a moving cursor
/// while the run is live, recording exactly which window indices every
/// poll delivered — the raw material for the [`window_cursors`]
/// exactly-once invariant. One final poll after stop drains windows the
/// sampler closed while the last sleep was pending.
fn monitor_windows(addr: &str, stop: &AtomicBool) -> ProtocolResult<Vec<WindowPoll>> {
    let mut c = NinfClient::connect_with(
        addr,
        ninf_client::CallOptions::with_deadline(Duration::from_secs(2)),
    )?;
    let mut polls = Vec::new();
    let mut cursor = 0u64;
    let poll = |c: &mut NinfClient, cursor: &mut u64, polls: &mut Vec<WindowPoll>| {
        let (_process, snap) = c.query_metrics(*cursor)?;
        polls.push(WindowPoll {
            now: snap.now,
            total: snap.total,
            dropped: snap.dropped,
            windows: snap.frames.iter().map(|f| f.window).collect(),
        });
        *cursor = snap.total;
        ProtocolResult::Ok(())
    };
    while !stop.load(Ordering::Acquire) {
        poll(&mut c, &mut cursor, &mut polls)?;
        std::thread::sleep(Duration::from_millis(15));
    }
    poll(&mut c, &mut cursor, &mut polls)?;
    Ok(polls)
}

/// The metaserver transaction leg: `tx_calls` independent calls routed
/// fault-tolerantly over the live fleet plus `dead_servers` unreachable
/// directory entries, so retries and quarantine accounting are exercised.
/// Returns per-call completion counts and the health-event log.
fn drive_transaction(
    spec: &ChaosSpec,
    addrs: &[String],
) -> ProtocolResult<(Vec<u32>, Vec<ninf_metaserver::HealthEvent>, usize)> {
    let mut dir = Directory::new();
    // Dead entries first: round-robin hits them early and often enough to
    // cross the quarantine threshold within one transaction.
    for d in 0..spec.dead_servers {
        dir.register(ServerEntry {
            name: format!("dead{d}"),
            addr: "127.0.0.1:1".into(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
    }
    for (i, addr) in addrs.iter().enumerate() {
        dir.register(ServerEntry {
            name: format!("node{i}"),
            addr: addr.clone(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
    }
    let servers = dir.len();
    let meta = Metaserver::with_options(
        dir,
        Balancing::RoundRobin,
        spec.workload.options,
        Some(Duration::from_millis(500)),
    );
    let mut tx = Transaction::new();
    let mut slots = Vec::with_capacity(spec.tx_calls);
    for _ in 0..spec.tx_calls {
        let s = tx.slot();
        tx.call("ep", vec![TxArg::Value(Value::Int(8))], vec![Some(s), None]);
        slots.push(s);
    }
    let out = meta.execute_transaction(&tx)?;
    let completions: Vec<u32> = slots
        .iter()
        .map(|s| u32::from(out.get(s.0).is_some_and(|v| v.is_some())))
        .collect();
    Ok((completions, meta.directory().health_events(), servers))
}

/// Run one chaos scenario under one seed and evaluate every invariant.
pub fn run_chaos(spec: &ChaosSpec, seed: u64, inject: Inject) -> ProtocolResult<ChaosRun> {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let rec = recorder::global();
    let was_enabled = rec.enabled();
    rec.set_enabled(true);
    rec.clear();

    let mut servers = Vec::with_capacity(spec.servers);
    for _ in 0..spec.servers {
        let s = spawn_server(spec.pes, SchedPolicy::Fcfs, spec.arg_cache_bytes)?;
        // Armed window rings feed the window-cursor invariant the same way
        // CallStat records feed monotone-cursors.
        s.metrics().registry().start_window_sampler(WINDOW_INTERVAL);
        servers.push(s);
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    let stop = AtomicBool::new(false);
    let (mut records, trace_ids, bulk_records, tx_outcome, stats_results, window_results) =
        std::thread::scope(|scope| {
            let stop_ref = &stop;
            let monitors: Vec<_> = addrs
                .iter()
                .map(|addr| scope.spawn(move || monitor_stats(addr, stop_ref)))
                .collect();
            let window_monitors: Vec<_> = addrs
                .iter()
                .map(|addr| scope.spawn(move || monitor_windows(addr, stop_ref)))
                .collect();
            let clients: Vec<_> = (0..spec.clients)
                .map(|client| {
                    let addr = &addrs[client % addrs.len()];
                    scope.spawn(move || drive_client(spec, addr, seed, client))
                })
                .collect();
            let mut records = Vec::new();
            let mut trace_ids = Vec::new();
            let mut bulk_records = Vec::new();
            for handle in clients {
                let (r, t, b) = handle.join().expect("client thread");
                records.extend(r);
                trace_ids.extend(t);
                bulk_records.extend(b);
            }
            // The transaction leg runs while monitors still poll, so its
            // calls land inside the monitored cursor stream too.
            let tx_outcome = (spec.tx_calls > 0).then(|| drive_transaction(spec, &addrs));
            stop.store(true, Ordering::Release);
            let mut stats_results = Vec::new();
            for m in monitors {
                stats_results.push(m.join().expect("monitor thread"));
            }
            let mut window_results = Vec::new();
            for m in window_monitors {
                window_results.push(m.join().expect("window monitor thread"));
            }
            (
                records,
                trace_ids,
                bulk_records,
                tx_outcome,
                stats_results,
                window_results,
            )
        });
    let snapshot = rec.snapshot(0);
    rec.set_enabled(was_enabled);
    for s in servers {
        s.shutdown();
    }

    let mut stats_polls = Vec::with_capacity(stats_results.len());
    for r in stats_results {
        stats_polls.push(r?);
    }
    let mut window_polls = Vec::with_capacity(window_results.len());
    for r in window_results {
        window_polls.push(r?);
    }

    if inject == Inject::DuplicateCompletion {
        if let Some(first) = records.first().copied() {
            records.push(first);
        }
    }

    let planned: Vec<usize> = (0..spec.clients)
        .map(|c| spec.workload.planned_calls(seed, c, spec.clients))
        .collect();

    let mut checks = vec![
        conservation(&records, &planned),
        exactly_once(&records, &planned),
        corruption_rejected(&records),
        monotone_cursors(&stats_polls),
        window_cursors(&window_polls),
        traces_connected(&snapshot, &trace_ids, NESTING_SLACK_US),
    ];
    if spec.bulk_leg() {
        checks.push(bulk_isolation(&bulk_records));
    }
    if let Some(tx) = tx_outcome {
        let (completions, events, dir_len) = tx?;
        checks.push(tx_exactly_once(&completions));
        checks.push(quarantine_legal(&events, dir_len));
    }

    let transcript = transcript(spec, seed, &planned, &checks);
    Ok(ChaosRun {
        scenario: spec.name.to_string(),
        seed,
        fingerprint: spec.fingerprint(),
        checks,
        transcript,
    })
}

/// Build the deterministic transcript: a header of seed-derived facts,
/// one line per invariant, and a RESULT trailer.
fn transcript(spec: &ChaosSpec, seed: u64, planned: &[usize], checks: &[Check]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# ninf-chaos scenario={} seed={} fingerprint={:#018x}\n",
        spec.name,
        seed,
        spec.fingerprint()
    ));
    out.push_str(&format!(
        "# clients={} servers={} pes={} dead={} tx_calls={}\n",
        spec.clients, spec.servers, spec.pes, spec.dead_servers, spec.tx_calls
    ));
    out.push_str(&format!(
        "# faults drop={:.3} delay={:.3} delay_ms={} truncate={:.3} garble={:.3}\n",
        fraction(spec.faults.loss_ppm),
        fraction(spec.faults.stall_ppm),
        spec.faults.stall_us / 1000,
        fraction(spec.faults.truncate_ppm),
        fraction(spec.faults.garble_ppm)
    ));
    if let Some(shape) = spec.link_shape(seed) {
        // Pure function of (spec, seed): the canonical shape with the
        // run-derived link seed, plus the upload geometry.
        out.push_str(&format!(
            "# wan {shape} streams={} chunk_bytes={} lane_deadline_ms={}\n",
            spec.workload.options.streams,
            spec.workload.options.chunk_bytes,
            spec.workload
                .options
                .lane_deadline
                .map_or(0, |d| d.as_millis()),
        ));
    }
    for (client, &n) in planned.iter().enumerate() {
        // Fingerprint the *planned* fault schedule over a generous window
        // (several transport sends per call) — a pure function of the
        // plan, independent of how the run actually interleaved.
        let plan = spec.client_faults(seed, client);
        let schedule = link_schedule(&plan, 0, 1, (4 * n + 8) as u64);
        let mut bytes = Vec::new();
        for k in &schedule {
            bytes.extend_from_slice(k.label().as_bytes());
            bytes.push(b',');
        }
        let arrivals = spec.workload.arrival_schedule(seed, client, spec.clients);
        let mut arr_bytes = Vec::with_capacity(arrivals.len() * 8);
        for t in &arrivals {
            arr_bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        out.push_str(&format!(
            "# client {client}: planned={n} faults_fnv={:#018x} arrivals_fnv={:#018x}\n",
            fnv1a(&bytes),
            fnv1a(&arr_bytes)
        ));
    }
    for c in checks {
        out.push_str(&c.line());
        out.push('\n');
    }
    let pass = checks.iter().all(|c| c.pass);
    out.push_str(&format!(
        "RESULT {} scenario={} seed={} fingerprint={:#018x}\n",
        if pass { "PASS" } else { "FAIL" },
        spec.name,
        seed,
        spec.fingerprint()
    ));
    out
}
