//! The metaserver proper: one way to place a call on the fleet and settle
//! its outcome, taken by routed calls (one-call transactions) and every
//! transaction leg alike.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ninf_client::{Call, CallOptions, PlannedCall, Transaction, TxArg};
use ninf_obs::{recorder, Counter, LogHistogram, MetricsRegistry, Span};
use ninf_protocol::{ProtocolError, ProtocolResult, TraceContext, Value};
use ninf_reactor::MuxPool;

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
    /// `ninf_meta_call_seconds`, resolved once at construction.
    call_seconds: Arc<parking_lot::Mutex<LogHistogram>>,
    /// Idle connections to the fleet: legs check connections out of here
    /// instead of dialing one per call. Hit/miss counters land on
    /// [`Metaserver::metrics`].
    pool: Arc<MuxPool>,
}

/// Where one call goes: its server, and the position of the `forward` span
/// all its legs run under (`None` when tracing is off).
struct Placement {
    server: usize,
    ctx: Option<TraceContext>,
    start_us: u64,
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
        let call_seconds = metrics.histogram(
            "ninf_meta_call_seconds",
            "end-to-end routed call time as seen by the metaserver, fail-over included",
        );
        let pool = Arc::new(MuxPool::with_metrics(&metrics));
        Self {
            directory,
            balancing,
            rr_cursor: Mutex::new(0),
            options,
            probe_deadline,
            metrics,
            routed,
            failed,
            call_seconds,
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

    /// Pick a server for a call with the given cost estimate, among the
    /// non-quarantined part of the fleet. Their current loads are probed
    /// only for a policy that reads them: a probe is a dial per server.
    pub fn choose_server(&self, est: CallEstimate) -> usize {
        let mut pool = self.directory.available_indices();
        if pool.is_empty() {
            // Entire fleet quarantined: fall back to everyone rather than
            // panic; deadlines and the fail-over loop govern from there.
            pool = (0..self.directory.len()).collect();
        }
        let states = if self.balancing.reads_load() {
            self.directory.probe_states(&pool, self.probe_deadline)
        } else {
            self.directory.unprobed_states(&pool)
        };
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

    /// Place one call: pick its server, and record the decision (probes and
    /// balancing) as a `route` span under the call's `forward` position — a
    /// child of `parent`, or a fresh root when tracing is armed.
    fn place(&self, args: &[Value], parent: Option<TraceContext>) -> Placement {
        let ctx = recorder::global()
            .enabled()
            .then(|| parent.map_or_else(TraceContext::root, |p| p.child()));
        let start_us = ninf_obs::now_us();
        let server = self.choose_server(estimate(args));
        if let Some(ctx) = ctx {
            let addr = &self.directory.entries()[server].addr;
            recorder::global().record(
                Span::at(ctx.child(), "route", "metaserver", start_us)
                    .with_detail(format!("server={server} addr={addr}")),
            );
        }
        Placement {
            server,
            ctx,
            start_us,
        }
    }

    /// Feed one leg's outcome to the directory's failure accounting.
    fn account<T>(&self, idx: usize, outcome: ProtocolResult<T>) -> ProtocolResult<T> {
        if outcome.is_ok() {
            self.directory.record_success(idx);
        } else {
            self.directory.record_failure(idx);
        }
        outcome
    }

    /// Settle one placed call from its first leg's outcome, in the one
    /// fail-over loop (§2.4: the metaserver "controls the parallel,
    /// fault-tolerant execution of multiple sequence of Ninf_calls"). A
    /// retryable failure runs again, on arguments from `args`, on the next
    /// available server after backoff jittered by `salt`. Every leg feeds
    /// the directory's failure accounting: a server that fails
    /// [`crate::directory::QUARANTINE_THRESHOLD`] times in a row is skipped
    /// until a probe reinstates it, and when the whole fleet is
    /// quarantined the first server to answer a probe is put back. Each
    /// leg is bounded by the configured [`CallOptions`] deadline, so a hung
    /// server costs one deadline, not a hang.
    ///
    /// Returns the last leg's outcome, and records the call once: counters,
    /// `ninf_meta_call_seconds`, and the `forward` span its legs ran under.
    fn settle(
        &self,
        at: Placement,
        routine: &str,
        salt: u64,
        first: ProtocolResult<Vec<Value>>,
        args: impl Fn() -> ProtocolResult<Vec<Value>>,
    ) -> ProtocolResult<Vec<Value>> {
        let max_attempts = 2 * self.directory.len() as u32;
        let mut server = at.server;
        let mut outcome = self.account(server, first);
        let mut attempt = 0u32;
        // Only retryable failures fail over: a Remote error is the
        // application itself answering (another server would say the same),
        // and an UnsupportedVersion peer will not change its mind on a
        // retry — burning attempts on either just delays the caller's error.
        while outcome.as_ref().is_err_and(|e| e.is_retryable()) && attempt < max_attempts {
            std::thread::sleep(self.options.backoff_delay(attempt, salt));
            let Some(next) = self
                .next_available_after(server)
                .or_else(|| self.reinstate_any())
            else {
                // Nothing answers probes either; give up.
                break;
            };
            server = next;
            outcome = match args() {
                Ok(args) => self.account(server, self.leg(server, routine, args, at.ctx).run()),
                Err(e) => Err(e),
            };
            attempt += 1;
        }
        self.routed.inc();
        if outcome.is_err() {
            self.failed.inc();
        }
        let elapsed_us = ninf_obs::now_us().saturating_sub(at.start_us);
        self.call_seconds.lock().record(elapsed_us as f64 / 1e6);
        if let Some(ctx) = at.ctx {
            let ok = outcome.is_ok();
            recorder::global().record(
                Span::at(ctx, "forward", "metaserver", at.start_us).with_detail(format!(
                    "routine={routine} server={server} legs={} ok={ok}",
                    attempt + 1
                )),
            );
        }
        outcome
    }

    /// Route one `Ninf_call` through the metaserver (the client "need not be
    /// aware … of the physical location of computing servers", §2.4).
    pub fn ninf_call(&self, routine: &str, args: &[Value]) -> ProtocolResult<Vec<Value>> {
        self.ninf_call_traced(routine, args, None).0
    }

    /// [`Metaserver::ninf_call`] carrying the caller's trace position: the
    /// routing decision and the forwarded legs are recorded as metaserver
    /// spans under `parent` (a fresh root when `parent` is `None` and
    /// tracing is armed). Returns the outcome and the trace id used
    /// (0 when tracing is off).
    ///
    /// A routed call is a one-call transaction whose first leg runs on the
    /// caller's thread; it fails over like any leg, and an error is the
    /// last leg's own, typed.
    pub fn ninf_call_traced(
        &self,
        routine: &str,
        args: &[Value],
        parent: Option<TraceContext>,
    ) -> (ProtocolResult<Vec<Value>>, u64) {
        let at = self.place(args, parent);
        let trace_id = at.ctx.map_or(0, |c| c.trace_id);
        let first = self.leg(at.server, routine, args.to_vec(), at.ctx).run();
        let salt = at.start_us;
        let outcome = self.settle(at, routine, salt, first, || Ok(args.to_vec()));
        (outcome, trace_id)
    }

    /// Execute a recorded transaction: topologically layer the dependency
    /// DAG, fan each layer out task-parallel across the fleet (exactly the
    /// §4.3.1 EP fan-out), and collect slot values. A level places every
    /// leg before it settles any, so its first picks are the balancer's
    /// consecutive decisions; each leg then settles — fail-over included —
    /// like a routed call. A failed leg's error names its call number.
    ///
    /// Returns the final contents of every slot (`None` if nothing wrote it).
    pub fn execute_transaction(&self, tx: &Transaction) -> ProtocolResult<Vec<Option<Value>>> {
        let levels = tx
            .dependency_levels()
            .map_err(|i| ProtocolError::Remote(format!("call #{i} reads an unwritten slot")))?;
        let mut slots: Vec<Option<Value>> = vec![None; tx.slot_count()];

        for level in levels {
            let mut in_flight = Vec::with_capacity(level.len());
            for &call_idx in &level {
                let call = &tx.calls()[call_idx];
                let args = resolve_args(call, &slots)?;
                let at = self.place(&args, None);
                let pending = self.leg(at.server, &call.routine, args, at.ctx).spawn();
                in_flight.push((call_idx, at, pending));
            }
            for (call_idx, at, pending) in in_flight {
                let call = &tx.calls()[call_idx];
                // Fail-over legs re-resolve their arguments: calls of one
                // level write no slot another of them reads.
                let outcome =
                    self.settle(at, &call.routine, call_idx as u64, pending.wait(), || {
                        resolve_args(call, &slots)
                    });
                let results = outcome.map_err(|e| {
                    ProtocolError::Remote(format!(
                        "call #{call_idx} ({}) failed across {} servers: {e}",
                        call.routine,
                        self.directory.len()
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
    use ninf_server::{builtin::register_stdlib, NinfServer, Registry, SchedPolicy, ServerConfig};

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

    /// A placement under a policy that reads no load dials nothing: the
    /// directory's one entry is a listener that counts what it accepts.
    #[test]
    fn round_robin_places_without_probing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        listener.set_nonblocking(true).unwrap();
        let accepted = AtomicUsize::new(0);
        let count = |listener: &std::net::TcpListener| {
            while listener.accept().is_ok() {
                accepted.fetch_add(1, Ordering::SeqCst);
            }
        };
        let est = CallEstimate {
            bytes: 1e6,
            flops: 1e6,
        };
        let dials = |balancing| {
            let mut dir = Directory::new();
            dir.register(ServerEntry {
                name: "counter".into(),
                addr: addr.clone(),
                bandwidth_bytes_per_sec: 10e6,
                linpack_mflops: 100.0,
            });
            let meta = Metaserver::with_options(
                dir,
                balancing,
                CallOptions::default(),
                Some(Duration::from_millis(50)),
            );
            accepted.store(0, Ordering::SeqCst);
            for _ in 0..10 {
                assert_eq!(meta.choose_server(est), 0);
            }
            count(&listener);
            accepted.load(Ordering::SeqCst)
        };
        assert_eq!(dials(Balancing::RoundRobin), 0);
        assert_eq!(dials(Balancing::BandwidthAware), 0);
        // The negative control: a load-reading policy still probes.
        assert_eq!(dials(Balancing::LoadBased), 10);
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

    /// The two ways a call reaches the fleet.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Transaction,
        Routed,
    }

    /// A directory whose first entry — round-robin's first pick — is
    /// `bad`, then a live two-server fleet.
    fn fleet_behind(name: &str, bad: String) -> (Vec<NinfServer>, Directory) {
        let (servers, live) = spawn_fleet(2);
        let mut dir = Directory::new();
        dir.register(ServerEntry {
            name: name.into(),
            addr: bad,
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
        for e in live.entries() {
            dir.register(e.clone());
        }
        (servers, dir)
    }

    /// EP work through `entry` over a [`fleet_behind`] directory: six
    /// fanned-out transaction calls, or one routed call. Either way the bad
    /// first entry draws a first attempt, and the work must still finish
    /// on the live servers.
    fn survives(entry: Entry, meta: &Metaserver) {
        match entry {
            Entry::Transaction => {
                let (tx, outs) = ep_fan_out(6);
                let slots = meta.execute_transaction(&tx).unwrap();
                for (sums, _) in outs {
                    assert!(slots[sums.0].is_some());
                }
            }
            Entry::Routed => {
                let out = meta.ninf_call("ep", &[Value::Int(10)]);
                assert_eq!(out.unwrap().len(), 2); // sums + counts
            }
        }
        let first_failure = crate::directory::HealthEvent::Failure {
            server: 0,
            probe: false,
            streak: 1,
        };
        assert!(
            meta.directory().health_events().contains(&first_failure),
            "{entry:?}: the bad entry was never tried"
        );
    }

    #[test]
    fn ft_execution_survives_a_dead_server() {
        for entry in [Entry::Transaction, Entry::Routed] {
            // Nothing listens at the first entry's address.
            let (servers, dir) = fleet_behind("dead", "127.0.0.1:1".into());
            let meta = Metaserver::new(dir, Balancing::RoundRobin);
            survives(entry, &meta);
            for s in servers {
                s.shutdown();
            }
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
        for entry in [Entry::Transaction, Entry::Routed] {
            let (servers, dir) = fleet_behind("hung", hung_server());
            let meta = Metaserver::with_options(
                dir,
                Balancing::RoundRobin,
                fast_failure_options(),
                Some(std::time::Duration::from_millis(200)),
            );
            survives(entry, &meta);
            for s in servers {
                s.shutdown();
            }
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
