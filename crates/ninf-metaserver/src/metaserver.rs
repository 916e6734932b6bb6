//! The metaserver proper: transaction execution over the server fleet.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ninf_client::{AsyncCall, Call, CallOptions, PlannedCall, Transaction, TxArg};
use ninf_obs::{recorder, Counter, MetricsRegistry, Span};
use ninf_protocol::{ProtocolError, ProtocolResult, TraceContext, Value};
use ninf_reactor::{MuxPool, PoolConfig};

use crate::balance::{Balancing, CallEstimate};
use crate::directory::Directory;

/// The metaserver: a directory plus a balancing policy.
pub struct Metaserver {
    directory: Directory,
    balancing: Balancing,
    rr_cursor: Mutex<usize>,
    options: CallOptions,
    probe_deadline: Option<Duration>,
    metrics: Arc<MetricsRegistry>,
    routed: Counter,
    failed: Counter,
    /// Multiplexed streams to the fleet: fan-out legs check connections out
    /// of here instead of dialing one per call. Hit/miss counters land on
    /// [`Metaserver::metrics`].
    pool: Arc<MuxPool>,
}

impl Metaserver {
    /// Create over a directory with default failure handling: a 10 s
    /// per-operation call deadline and a 1 s probe deadline, so a hung
    /// server stalls a call briefly instead of forever.
    pub fn new(directory: Directory, balancing: Balancing) -> Self {
        Self::with_options(
            directory,
            balancing,
            CallOptions::with_deadline(Duration::from_secs(10)),
            Some(Duration::from_secs(1)),
        )
    }

    /// Create with explicit call options (deadline/backoff applied to every
    /// routed call) and load-probe deadline.
    pub fn with_options(
        directory: Directory,
        balancing: Balancing,
        options: CallOptions,
        probe_deadline: Option<Duration>,
    ) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let routed = metrics.counter(
            "ninf_meta_calls_total",
            "calls routed through the metaserver",
        );
        let failed = metrics.counter(
            "ninf_meta_errors_total",
            "routed calls whose final outcome was an error",
        );
        let pool = Arc::new(MuxPool::with_metrics(PoolConfig::default(), &metrics));
        Self {
            directory,
            balancing,
            rr_cursor: Mutex::new(0),
            options,
            probe_deadline,
            metrics,
            routed,
            failed,
            pool,
        }
    }

    /// The connection pool routed calls go through.
    pub fn pool(&self) -> &Arc<MuxPool> {
        &self.pool
    }

    /// The directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The metaserver's metrics registry (serve it with
    /// `ninf_obs::http::serve_metrics`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Call options applied to routed calls.
    pub fn options(&self) -> CallOptions {
        self.options
    }

    /// Pick a server for a call with the given cost estimate, probing the
    /// current loads of the non-quarantined part of the fleet.
    pub fn choose_server(&self, est: CallEstimate) -> usize {
        let mut pool = self.directory.available_indices();
        if pool.is_empty() {
            // Entire fleet quarantined: fall back to everyone rather than
            // panic; deadlines and the fail-over loop govern from there.
            pool = (0..self.directory.len()).collect();
        }
        let states = self.directory.probe_states(&pool, self.probe_deadline);
        let mut rr = self.rr_cursor.lock().expect("rr lock");
        let k = self.balancing.choose(&states, est, &mut rr);
        pool[k]
    }

    /// First non-quarantined server strictly rotating from `last + 1`
    /// (wrapping), or `None` when the whole fleet is quarantined.
    fn next_available_after(&self, last: usize) -> Option<usize> {
        let n = self.directory.len();
        (1..=n)
            .map(|step| (last + step) % n)
            .find(|&i| !self.directory.is_quarantined(i))
    }

    /// Probe quarantined servers for reinstatement; returns the first one
    /// that answers, now available again.
    fn reinstate_any(&self) -> Option<usize> {
        (0..self.directory.len()).find(|&i| self.directory.try_reinstate(i, self.probe_deadline))
    }

    /// The one place a call leaves the metaserver: a pooled leg to server
    /// `idx` under the configured options, its spans parented at `parent`.
    /// [`Call::run`] it inline or [`Call::spawn`] it to fan out, then hand
    /// the outcome to [`Metaserver::settle`].
    fn leg(
        &self,
        idx: usize,
        routine: &str,
        args: Vec<Value>,
        parent: Option<TraceContext>,
    ) -> Call {
        Call {
            options: self.options,
            pool: Some(self.pool.clone()),
            trace_parent: parent,
            process: "metaserver".into(),
            ..Call::new(self.directory.entries()[idx].addr.clone(), routine, args)
        }
    }

    /// Account one leg's outcome: the routed/error counters and the
    /// directory's per-server failure streak (quarantine feeds on it).
    fn settle<T>(&self, idx: usize, outcome: ProtocolResult<T>) -> ProtocolResult<T> {
        self.routed.inc();
        match &outcome {
            Ok(_) => self.directory.record_success(idx),
            Err(_) => {
                self.failed.inc();
                self.directory.record_failure(idx);
            }
        }
        outcome
    }

    /// Route one `Ninf_call` through the metaserver (the client "need not be
    /// aware … of the physical location of computing servers", §2.4).
    pub fn ninf_call(&self, routine: &str, args: &[Value]) -> ProtocolResult<Vec<Value>> {
        self.ninf_call_traced(routine, args, None).0
    }

    /// [`Metaserver::ninf_call`] carrying the caller's trace position: the
    /// routing decision and the forwarded leg are recorded as metaserver
    /// spans under `parent` (a fresh root when `parent` is `None` and
    /// tracing is armed). Returns the outcome and the trace id used
    /// (0 when tracing is off).
    pub fn ninf_call_traced(
        &self,
        routine: &str,
        args: &[Value],
        parent: Option<TraceContext>,
    ) -> (ProtocolResult<Vec<Value>>, u64) {
        let ctx = recorder::global()
            .enabled()
            .then(|| parent.map(|p| p.child()).unwrap_or_else(TraceContext::root));
        let start_us = ninf_obs::now_us();
        let idx = self.choose_server(estimate(args));
        if let Some(ctx) = ctx {
            // The probe + balancing decision is its own hop.
            let addr = &self.directory.entries()[idx].addr;
            recorder::global().record(
                Span::at(ctx.child(), "route", "metaserver", start_us)
                    .with_detail(format!("server={idx} addr={addr}")),
            );
        }
        let outcome = self.settle(idx, self.leg(idx, routine, args.to_vec(), ctx).run());
        let end_us = ninf_obs::now_us();
        self.metrics
            .histogram(
                "ninf_meta_call_seconds",
                "end-to-end routed call time as seen by the metaserver",
            )
            .lock()
            .record(end_us.saturating_sub(start_us) as f64 / 1e6);
        let trace_id = ctx.map_or(0, |c| c.trace_id);
        if let Some(ctx) = ctx {
            recorder::global().record(Span {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_span_id: ctx.parent_span_id,
                name: "forward".into(),
                process: "metaserver".into(),
                start_us,
                dur_us: end_us.saturating_sub(start_us),
                detail: format!("routine={routine} server={idx} ok={}", outcome.is_ok()),
            });
        }
        (outcome, trace_id)
    }

    /// Execute a recorded transaction: topologically layer the dependency
    /// DAG, fan each layer out task-parallel across the fleet (exactly the
    /// §4.3.1 EP fan-out), and collect slot values — fault-tolerantly
    /// (§2.4: the metaserver "controls the parallel, fault-tolerant
    /// execution of multiple sequence of Ninf_calls"). A call that fails on
    /// one server is retried elsewhere with exponential backoff and jitter.
    /// Every outcome feeds the directory's failure accounting — a server
    /// that fails [`crate::directory::QUARANTINE_THRESHOLD`] times in a row
    /// is quarantined and skipped by retries until a probe reinstates it.
    /// When every server is quarantined, the quarantined ones are probed
    /// and the first responder is put back in rotation before giving up.
    /// Calls are bounded by the configured [`CallOptions`] deadline, so a
    /// hung (accepting-but-silent) server costs one deadline, not a hang.
    ///
    /// Returns the final contents of every slot (`None` if nothing wrote it).
    pub fn execute_transaction(&self, tx: &Transaction) -> ProtocolResult<Vec<Option<Value>>> {
        let levels = tx
            .dependency_levels()
            .map_err(|i| ProtocolError::Remote(format!("call #{i} reads an unwritten slot")))?;
        let n_servers = self.directory.len();
        let max_attempts = (2 * n_servers) as u32;
        let mut slots: Vec<Option<Value>> = vec![None; tx.slot_count()];

        for level in levels {
            let mut in_flight: Vec<(usize, usize, AsyncCall)> = Vec::with_capacity(level.len());
            for &call_idx in &level {
                let call = &tx.calls()[call_idx];
                let args = resolve_args(call, &slots)?;
                let sidx = self.choose_server(estimate(&args));
                let pending = self.leg(sidx, &call.routine, args, None).spawn();
                in_flight.push((call_idx, sidx, pending));
            }
            for (call_idx, first_server, pending) in in_flight {
                let call = &tx.calls()[call_idx];
                let mut outcome = self.settle(first_server, pending.wait());
                let mut last_server = first_server;
                let mut attempt: u32 = 0;
                // Only retryable failures fail over: a Remote error is the
                // application itself answering (another server would say
                // the same), and an UnsupportedVersion peer will not
                // change its mind on a retry — burning attempts on either
                // just delays the caller's error.
                while outcome.as_ref().is_err_and(|e| e.is_retryable()) && attempt < max_attempts {
                    // Exponential backoff with per-call jitter so concurrent
                    // retriers don't stampede a recovering server.
                    std::thread::sleep(self.options.backoff_delay(attempt, call_idx as u64));
                    let sidx = match self.next_available_after(last_server) {
                        Some(i) => i,
                        None => match self.reinstate_any() {
                            Some(i) => i,
                            // Nothing answers probes either; give up.
                            None => break,
                        },
                    };
                    // Arguments are re-resolved (slots from earlier levels
                    // are still intact).
                    let args = resolve_args(call, &slots)?;
                    outcome = self.settle(sidx, self.leg(sidx, &call.routine, args, None).run());
                    last_server = sidx;
                    attempt += 1;
                }
                let results = outcome.map_err(|e| {
                    ProtocolError::Remote(format!(
                        "call #{call_idx} ({}) failed after {attempt} retries across {n_servers} servers: {e}",
                        call.routine
                    ))
                })?;
                if results.len() < call.outputs.iter().filter(|o| o.is_some()).count() {
                    return Err(ProtocolError::Remote(format!(
                        "call #{call_idx} returned {} values, transaction binds more",
                        results.len()
                    )));
                }
                for (out, value) in call.outputs.iter().zip(results) {
                    if let Some(slot) = out {
                        slots[slot.0] = Some(value);
                    }
                }
            }
        }
        Ok(slots)
    }
}

/// What the metaserver can guess of a call's cost from its arguments
/// alone: the payload it must move, and work proportional to it.
fn estimate(args: &[Value]) -> CallEstimate {
    let bytes: f64 = args.iter().map(|v| v.wire_bytes() as f64).sum();
    CallEstimate {
        bytes,
        flops: bytes * 100.0,
    }
}

fn resolve_args(call: &PlannedCall, slots: &[Option<Value>]) -> ProtocolResult<Vec<Value>> {
    call.args
        .iter()
        .map(|a| match a {
            TxArg::Value(v) => Ok(v.clone()),
            TxArg::Ref(slot) => slots
                .get(slot.0)
                .and_then(|s| s.clone())
                .ok_or_else(|| ProtocolError::Remote(format!("slot {} is empty", slot.0))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ServerEntry;
    use ninf_client::SlotId;
    use ninf_server::{
        builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
    };

    fn spawn_fleet(n: usize) -> (Vec<NinfServer>, Directory) {
        let mut dir = Directory::new();
        let mut servers = Vec::new();
        for i in 0..n {
            let mut registry = Registry::new();
            register_stdlib(&mut registry, false);
            let server = NinfServer::start(
                "127.0.0.1:0",
                registry,
                ServerConfig {
                    pes: 2,
                    mode: ExecMode::TaskParallel,
                    policy: SchedPolicy::Fcfs,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            dir.register(ServerEntry {
                name: format!("node{i}"),
                addr: server.addr().to_string(),
                bandwidth_bytes_per_sec: 10e6,
                linpack_mflops: 100.0,
            });
            servers.push(server);
        }
        (servers, dir)
    }

    /// `calls` independent EP calls, each binding `(sums, counts)` slots.
    fn ep_fan_out(calls: usize) -> (Transaction, Vec<(SlotId, SlotId)>) {
        let mut tx = Transaction::new();
        let slots = (0..calls)
            .map(|_| {
                let out = (tx.slot(), tx.slot());
                let args = vec![TxArg::Value(Value::Int(10))];
                tx.call("ep", args, vec![Some(out.0), Some(out.1)]);
                out
            })
            .collect();
        (tx, slots)
    }

    #[test]
    fn routes_single_call() {
        let (servers, dir) = spawn_fleet(2);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let out = meta.ninf_call("ep", &[Value::Int(8)]).unwrap();
        assert_eq!(out.len(), 2); // sums + counts
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn routed_calls_share_pooled_streams() {
        let (servers, dir) = spawn_fleet(1);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        meta.ninf_call("ep", &[Value::Int(6)]).unwrap();
        meta.ninf_call("ep", &[Value::Int(6)]).unwrap();
        assert_eq!(meta.pool().misses(), 1, "one server, one dialed stream");
        assert!(meta.pool().hits() >= 1, "second call must reuse the stream");
        // The hit/miss counters live on the metaserver's own registry.
        let text = meta.metrics().render_prometheus();
        assert!(text.contains("ninf_client_pool_hits_total"), "{text}");
        assert!(text.contains("ninf_client_pool_misses_total"), "{text}");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn ep_transaction_fans_out_round_robin() {
        let (servers, dir) = spawn_fleet(3);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let (tx, out_slots) = ep_fan_out(6);
        let slots = meta.execute_transaction(&tx).unwrap();
        for (sums, counts) in out_slots {
            assert!(slots[sums.0].is_some());
            let Some(Value::DoubleArray(c)) = &slots[counts.0] else {
                panic!()
            };
            assert_eq!(c.len(), 10);
        }
        // Round-robin over 3 servers × 6 calls: every server saw exactly 2.
        let counts: Vec<usize> = servers.iter().map(|s| s.stats().completed()).collect();
        assert_eq!(counts, vec![2, 2, 2]);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn dependent_calls_flow_through_slots() {
        let (servers, dir) = spawn_fleet(2);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let n = 8usize;
        let (a, b) = ninf_exec::matgen(n);

        let mut tx = Transaction::new();
        let lu = tx.slot();
        let piv = tx.slot();
        let info = tx.slot();
        tx.call(
            "dgefa",
            vec![
                TxArg::Value(Value::Int(n as i32)),
                TxArg::Value(Value::DoubleArray(a.as_slice().to_vec())),
            ],
            vec![Some(lu), Some(piv), Some(info)],
        );
        let x = tx.slot();
        tx.call(
            "dgesl",
            vec![
                TxArg::Value(Value::Int(n as i32)),
                TxArg::Ref(lu),
                TxArg::Ref(piv),
                TxArg::Value(Value::DoubleArray(b)),
            ],
            vec![Some(x)],
        );
        let slots = meta.execute_transaction(&tx).unwrap();
        let Some(Value::DoubleArray(solution)) = &slots[x.0] else {
            panic!("no solution")
        };
        for xi in solution {
            assert!((xi - 1.0).abs() < 1e-8);
        }
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn unwritten_slot_read_is_reported() {
        let (servers, dir) = spawn_fleet(1);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let mut tx = Transaction::new();
        let ghost = tx.slot();
        tx.call("ep", vec![TxArg::Ref(ghost)], vec![None, None]);
        assert!(meta.execute_transaction(&tx).is_err());
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn a_call_returning_fewer_values_than_the_transaction_binds_is_an_error() {
        // `ep` returns two values; binding a third must fail the
        // transaction, not finish `Ok` with a silently empty slot.
        let (servers, dir) = spawn_fleet(1);
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let mut tx = Transaction::new();
        let outs = [tx.slot(), tx.slot(), tx.slot()];
        tx.call(
            "ep",
            vec![TxArg::Value(Value::Int(8))],
            outs.iter().copied().map(Some).collect(),
        );
        let err = meta.execute_transaction(&tx).unwrap_err();
        assert!(err.to_string().contains("binds more"), "{err}");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn ft_execution_survives_a_dead_server() {
        let (mut servers, mut dir) = spawn_fleet(2);
        // Register a dead address as a third "server" that every third call
        // round-robins onto.
        dir.register(ServerEntry {
            name: "dead".into(),
            addr: "127.0.0.1:1".into(), // nothing listens here
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let (tx, outs) = ep_fan_out(6);
        // Calls that land on the dead server are retried elsewhere.
        let slots = meta.execute_transaction(&tx).unwrap();
        for (sums, _) in outs {
            assert!(slots[sums.0].is_some());
        }
        for s in servers.drain(..) {
            s.shutdown();
        }
    }

    #[test]
    fn ft_execution_fails_when_all_servers_dead() {
        let mut dir = Directory::new();
        for i in 0..2 {
            dir.register(ServerEntry {
                name: format!("dead{i}"),
                addr: "127.0.0.1:1".into(),
                bandwidth_bytes_per_sec: 1e6,
                linpack_mflops: 1.0,
            });
        }
        let meta = Metaserver::new(dir, Balancing::RoundRobin);
        let mut tx = Transaction::new();
        tx.call("ep", vec![TxArg::Value(Value::Int(8))], vec![None, None]);
        assert!(meta.execute_transaction(&tx).is_err());
    }

    /// A listener that accepts connections and then stays silent forever —
    /// the failure mode a connection-refused check can't see.
    fn hung_server() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((sock, _)) = listener.accept() {
                held.push(sock); // keep sockets open, never answer
            }
        });
        addr
    }

    fn fast_failure_options() -> ninf_client::CallOptions {
        ninf_client::CallOptions {
            deadline: Some(std::time::Duration::from_millis(300)),
            retries: 0,
            backoff: std::time::Duration::from_millis(10),
            ..ninf_client::CallOptions::default()
        }
    }

    #[test]
    fn ft_execution_survives_a_hung_server() {
        // A hung server accepts but never replies: without deadlines this
        // blocks forever; with them each call on it costs one deadline and
        // is then retried on a live server.
        let (mut servers, mut dir) = spawn_fleet(2);
        dir.register(ServerEntry {
            name: "hung".into(),
            addr: hung_server(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        let meta = Metaserver::with_options(
            dir,
            Balancing::RoundRobin,
            fast_failure_options(),
            Some(std::time::Duration::from_millis(200)),
        );
        let (tx, outs) = ep_fan_out(6);
        let slots = meta.execute_transaction(&tx).unwrap();
        for (sums, _) in outs {
            assert!(slots[sums.0].is_some());
        }
        for s in servers.drain(..) {
            s.shutdown();
        }
    }

    #[test]
    fn ft_reinstates_quarantined_server_after_probe() {
        // One live server (manually quarantined) plus one dead address: the
        // retry loop must exhaust the dead server, find nothing available,
        // probe the quarantined one, reinstate it, and finish there.
        let (mut servers, mut dir) = spawn_fleet(1);
        dir.register(ServerEntry {
            name: "dead".into(),
            addr: "127.0.0.1:1".into(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        for _ in 0..crate::directory::QUARANTINE_THRESHOLD {
            dir.record_failure(0);
        }
        assert!(dir.is_quarantined(0));
        let meta = Metaserver::with_options(
            dir,
            Balancing::RoundRobin,
            fast_failure_options(),
            Some(std::time::Duration::from_millis(200)),
        );
        let mut tx = Transaction::new();
        let sums = tx.slot();
        tx.call(
            "ep",
            vec![TxArg::Value(Value::Int(8))],
            vec![Some(sums), None],
        );
        let slots = meta.execute_transaction(&tx).unwrap();
        assert!(slots[sums.0].is_some());
        // The probe that reinstated it also cleared the quarantine.
        assert!(!meta.directory().is_quarantined(0));
        for s in servers.drain(..) {
            s.shutdown();
        }
    }

    #[test]
    fn repeated_failures_quarantine_a_server() {
        let (mut servers, mut dir) = spawn_fleet(1);
        dir.register(ServerEntry {
            name: "dead".into(),
            addr: "127.0.0.1:1".into(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        let meta = Metaserver::with_options(
            dir,
            Balancing::RoundRobin,
            fast_failure_options(),
            Some(std::time::Duration::from_millis(200)),
        );
        // Enough round-robined calls to hit the dead server repeatedly.
        let mut tx = Transaction::new();
        for _ in 0..8 {
            tx.call("ep", vec![TxArg::Value(Value::Int(8))], vec![None, None]);
        }
        meta.execute_transaction(&tx).unwrap();
        assert!(meta.directory().is_quarantined(1));
        assert!(!meta.directory().is_quarantined(0));
        for s in servers.drain(..) {
            s.shutdown();
        }
    }

    #[test]
    fn load_based_prefers_idle_server() {
        // Two servers; the chooser must pick one with lower runnable count.
        let (servers, dir) = spawn_fleet(2);
        let meta = Metaserver::new(dir, Balancing::LoadBased);
        let idx = meta.choose_server(CallEstimate {
            bytes: 1e3,
            flops: 1e6,
        });
        assert!(idx < 2);
        for s in servers {
            s.shutdown();
        }
    }
}
