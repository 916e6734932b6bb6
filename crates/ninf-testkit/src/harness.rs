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

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ninf_client::{NinfClient, Transaction, TxArg};
use ninf_exec::{residual_check, Matrix};
use ninf_loadgen::{spawn_server, CallResult, Conn, Fleet, Inputs, Outcome, Poller};
use ninf_metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf_obs::recorder;
use ninf_protocol::{fnv1a, link_schedule, LinkHistory, LinkTransport, ProtocolResult, Value};
use ninf_reactor::TcpTransport;
use ninf_server::SchedPolicy;

use crate::invariants::{
    bulk_isolation, conservation, corruption_rejected, exactly_once, monotone_cursors,
    quarantine_legal, traces_connected, tx_exactly_once, window_cursors, BulkRecord, CallRecord,
    Check,
};
use crate::spec::{fraction, ChaosSpec};

/// Nesting slack for trace validation: in-process clocks agree, but span
/// ends are stamped a scheduling quantum apart.
const NESTING_SLACK_US: u64 = 10_000;

/// Metric window interval the harness arms on every spawned server: short
/// enough that a run closes several windows for the cursor invariant to
/// chew on, long enough not to perturb the run.
const WINDOW_INTERVAL: Duration = Duration::from_millis(25);

/// How often the harness polls its servers' cursors while the run is live.
const POLL_PERIOD: Duration = Duration::from_millis(15);

/// Largest normalized Linpack residual ([`residual_check`]) of a reply that
/// solves the system its call shipped: a correct solve reads a few units.
const EXACT_RESIDUAL: f64 = 100.0;

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

/// Whether a Linpack reply solves exactly the system its call shipped:
/// the salted matrix and right-hand side in `args`. A stale, foreign, or
/// partially reassembled image is a different system, and its solution
/// leaves a residual against the shipped one far above rounding.
fn solves_shipped(args: &[Value], out: &[Value]) -> bool {
    let (
        [Value::Int(n), Value::DoubleArray(a), Value::DoubleArray(b)],
        Some(Value::DoubleArray(x)),
    ) = (args, out.first())
    else {
        return false;
    };
    let n = *n as usize;
    x.len() == n
        && a.len() == n * n
        && residual_check(&Matrix::from_col_major(n, n, a.clone()), x, b) <= EXACT_RESIDUAL
}

/// XDR image bytes of the arguments large enough to ship as chunks.
fn chunked_image_bytes(args: &[Value]) -> u64 {
    args.iter()
        .filter(|v| ninf_protocol::cacheable(v))
        .map(|v| ninf_protocol::value_image(v).len())
        .filter(|len| *len >= ninf_protocol::CHUNK_THRESHOLD)
        .map(|len| len as u64)
        .sum()
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

    let inputs = Inputs::prepare(&spec.workload, seed);
    // Per client, the fault log of its wrapped transport.
    let links: Vec<Mutex<Option<LinkHistory>>> =
        (0..spec.clients).map(|_| Mutex::default()).collect();
    // Each client issues every call over the one connection it dials and
    // never reconnects (only a failed dial is tried again). Bulk scenarios dial a WAN-shaped client whose large
    // arguments pre-ship as chunks over one windowed lane, and the link's
    // seeded loss schedule supplies the faults (bursts land mid-transfer).
    // Every other client sends through its own connection wrapped in the
    // seeded fault injector, so a corrupting fault poisons exactly that
    // client's connection: a dropped send surfaces as a deadline timeout,
    // and a truncated or garbled frame makes the server kill the
    // connection, failing the calls in flight on it as retryable transport
    // errors.
    let dial = |client: usize| -> ProtocolResult<Conn> {
        let addr = &addrs[client % addrs.len()];
        let mut c = if spec.bulk_leg() {
            let mut options = spec.workload.options;
            options.wan = spec.link_shape(seed);
            NinfClient::connect_with(addr, options)?
        } else {
            let conn = TcpTransport::connect_with_deadline(addr, spec.workload.options.deadline)?;
            let faulty = LinkTransport::private(conn, spec.client_faults(seed, client));
            let log = faulty.history();
            let mut c = NinfClient::from_transport(Box::new(faulty));
            c.set_options(spec.workload.options)?;
            *links[client].lock().unwrap_or_else(|e| e.into_inner()) = Some(log);
            c
        };
        // A per-(server, client) digest memory, cleared so every run starts
        // cold: the refill leg then follows the seeded fault schedule, not
        // what an earlier run left behind.
        let cache_key = format!("{addr}#chaos-client{client}");
        ninf_client::argmem::forget_destination(&cache_key);
        c.set_cache_key(Some(cache_key));
        Ok(Conn::Client(Box::new(c)))
    };
    let ledger = Mutex::new(Vec::new());
    let observe = |r: &CallResult, args: &[Value], reply: Option<&[Value]>| {
        // The fault log now covers every send this call performed, so the
        // taint reflects the stream at the moment the outcome was decided;
        // the log only grows, so taint is sticky.
        let tainted = links[r.client]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_some_and(|log| log.corrupts_stream());
        let call = CallRecord {
            client: r.client,
            seq: r.seq,
            outcome: r.outcome,
            tainted,
        };
        let bulk = spec.bulk_leg().then(|| BulkRecord {
            client: r.client,
            seq: r.seq,
            image_bytes: chunked_image_bytes(args),
            bulk_bytes: r.timing.bulk_bytes as u64,
            retransmits: r.timing.bulk_retransmits,
            outcome: r.outcome,
            result_exact: reply.is_none_or(|out| solves_shipped(args, out)),
        });
        ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((call, bulk));
    };

    let epoch = Instant::now();
    let poller = Poller::start(&addrs, epoch, POLL_PERIOD);
    let run = Fleet {
        spec: &spec.workload,
        inputs: &inputs,
        dial: &dial,
        addrs: &addrs,
        observe: &observe,
        seed,
        clients: spec.clients,
    }
    .run();
    // The transaction leg runs while the poller still polls, so its calls
    // land inside the polled cursor streams too.
    let tx_outcome = (spec.tx_calls > 0).then(|| drive_transaction(spec, &addrs));
    let mut polls = poller.finish();
    let snapshot = rec.snapshot(0);
    rec.set_enabled(was_enabled);
    for s in servers {
        s.shutdown();
    }
    if let Some(e) = polls.iter_mut().find_map(|p| p.error.take()) {
        return Err(e);
    }
    let (_, calls) = run?;

    // The payload CRC means a decoded reply is a genuine reply: claim trace
    // attribution for every success, with no corrupted-stream carve-out.
    let trace_ids: Vec<u64> = calls
        .iter()
        .filter(|c| c.outcome == Outcome::Ok)
        .map(|c| c.trace_id)
        .collect();
    let mut ledger = ledger.into_inner().unwrap_or_else(|e| e.into_inner());
    ledger.sort_by_key(|(call, _)| (call.client, call.seq));
    let (mut records, bulk_records): (Vec<CallRecord>, Vec<Option<BulkRecord>>) =
        ledger.into_iter().unzip();
    let bulk_records: Vec<BulkRecord> = bulk_records.into_iter().flatten().collect();

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
        monotone_cursors(&polls),
        window_cursors(&polls),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::chaos;

    /// What a server holding `a` would answer a call shipping `args`.
    fn solve_with(a: &Value, args: &[Value]) -> Vec<Value> {
        let ([Value::Int(n), _, Value::DoubleArray(b)], Value::DoubleArray(a)) = (args, a) else {
            panic!("not a Linpack call");
        };
        let n = *n as usize;
        let mut a = Matrix::from_col_major(n, n, a.clone());
        let x = ninf_exec::solve(&mut a, &mut b.clone()).expect("non-singular");
        vec![Value::DoubleArray(x)]
    }

    #[test]
    fn exactness_is_judged_against_the_system_the_call_shipped() {
        let spec = chaos("wan-partition").unwrap();
        let routine = spec.workload.mix[0].routine;
        let salted = Inputs::prepare(&spec.workload, 7);
        let mut plain = spec.workload.clone();
        plain.unique_args = false;
        let unsalted = Inputs::prepare(&plain, 7);
        for client in 0..2 {
            let shipped = salted.args(routine, client, 1);
            assert!(solves_shipped(&shipped, &solve_with(&shipped[1], &shipped)));
            // A stale image in the server's store: the unsalted matrix, or
            // the neighbouring call's, under this call's right-hand side.
            let stale = [
                unsalted.args(routine, client, 1)[1].clone(),
                salted.args(routine, client, 0)[1].clone(),
            ];
            for a in &stale {
                assert!(!solves_shipped(&shipped, &solve_with(a, &shipped)));
            }
        }
        // A reply that is not a solution at all.
        let shipped = salted.args(routine, 0, 0);
        assert!(!solves_shipped(&shipped, &[Value::Int(1)]));
    }
}
