//! The open-loop engine: one poller thread issues every call of an
//! open-loop run. Each client dials one connection before the window opens
//! and follows its own seeded schedule; a due call goes out whatever is in
//! flight, up to [`OPEN_INFLIGHT_CAP`] calls, or waits for a slot and is
//! marked `capped`. Stage 1 (the interface fetch) runs once per destination
//! and routine before the window. A call unanswered `deadline` after its
//! send times out and its late reply is dropped; a dead connection fails
//! its calls as transport errors, and the next due call redials. Calls go
//! to one server directly, unshaped and unretried ([`Unserved`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ninf_client::{CallTiming, NinfClient};
use ninf_idl::compile::ParamLayout;
use ninf_idl::CompiledInterface;
use ninf_obs::recorder;
use ninf_protocol::{
    encode_call, reply_payload_bytes, request_payload_bytes, validate_call_args, validate_results,
    CallArg, CallKind, Message, ProtocolResult, Span, TraceContext, Value,
};
use ninf_reactor::conn::{dial, Filled, FrameConn, READ_CHUNK};
use ninf_reactor::sys::{Interest, Poller};

use crate::report::{CallResult, Outcome};
use crate::runner::{classify, Fleet, OPEN_INFLIGHT_CAP};
use crate::spec::{Arrival, Routine, WorkloadSpec};

/// What the open-loop engine does not serve, refused at run start inside a
/// [`ProtocolError::Io`](ninf_protocol::ProtocolError::Io) of kind
/// `Unsupported`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unserved {
    /// `options.wan` is set: an emulated WAN link.
    Wan,
    /// `options.retries > 0`.
    Retries,
    /// The target is a metaserver-fronted fleet.
    Metaserver,
}

impl std::fmt::Display for Unserved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "an open loop calls a server directly: no {self:?}")
    }
}

impl std::error::Error for Unserved {}

impl Unserved {
    /// Refuse an open-loop `spec` the engine cannot serve; closed loops
    /// pass.
    pub(crate) fn check(spec: &WorkloadSpec, via_metaserver: bool) -> ProtocolResult<()> {
        let open = matches!(spec.arrival, Arrival::Open { .. });
        let refused = match () {
            _ if !open => return Ok(()),
            _ if spec.options.wan.is_some() => Unserved::Wan,
            _ if spec.options.retries > 0 => Unserved::Retries,
            _ if via_metaserver => Unserved::Metaserver,
            _ => return Ok(()),
        };
        Err(io::Error::new(io::ErrorKind::Unsupported, refused).into())
    }
}

/// What one run produced: when its window opened, after the fetches and
/// dials (time zero of the schedules and of every record); its calls; and
/// how often the poller's wait returned.
type OpenRun = (Instant, Vec<CallResult>, u64);

/// Run `fleet`'s open loop: fetch the interfaces, dial every client, then
/// issue every scheduled call and account for each once.
pub(crate) fn run(fleet: &Fleet) -> ProtocolResult<OpenRun> {
    let spec = fleet.spec;
    let clients: Vec<Client> = (0..fleet.clients)
        .map(|c| Client {
            schedule: spec.arrival_schedule(fleet.seed, c, fleet.clients),
            conn: None,
            inflight: HashMap::new(),
            due: 0,
            issued: 0,
        })
        .collect();
    let owed = clients.iter().map(|c| c.schedule.len()).sum();
    let mut engine = Engine {
        fleet,
        epoch: Instant::now(),
        poller: Poller::new()?,
        interfaces: fleet.addrs.iter().map(|a| interfaces(a, spec)).collect(),
        clients,
        dues: BinaryHeap::new(),
        timeouts: VecDeque::new(),
        owed,
        calls: Vec::with_capacity(owed),
        wakeups: 0,
    };
    for c in 0..fleet.clients {
        engine.clients[c].conn = engine.dial(c).ok();
    }
    engine.epoch = Instant::now();
    for c in 0..fleet.clients {
        engine.schedule_next(c);
    }
    engine.window()
}

/// Stage 1 at one destination, per routine of the mix: its interface, or
/// the outcome the fetch failed with, which every call of it then takes.
type Interfaces = HashMap<&'static str, Result<Rc<CompiledInterface>, Outcome>>;

fn interfaces(addr: &str, spec: &WorkloadSpec) -> Interfaces {
    let mut client = NinfClient::connect_with(addr, spec.options).map_err(|e| classify(&e));
    let mut fetch = |name| {
        let c = client.as_mut().map_err(|o| *o)?;
        let iface = c.query_interface(name).map_err(|e| classify(&e))?;
        Ok(Rc::new(iface.clone()))
    };
    let names = spec.mix.iter().map(|e| e.routine.name());
    names.map(|name| (name, fetch(name))).collect()
}

/// One client: its schedule (due offsets from the epoch, in seconds), its
/// connection (`None` until a dial succeeds and once it dies), its calls
/// in flight by call id, and how many calls have come due and been issued:
/// `issued..due` wait for a slot.
struct Client {
    schedule: Vec<f64>,
    conn: Option<FrameConn>,
    inflight: HashMap<u64, Call>,
    due: usize,
    issued: usize,
}

/// One call, from the moment it is issued.
struct Call {
    client: usize,
    seq: usize,
    routine: Routine,
    capped: bool,
    args: Vec<Value>,
    /// When the engine began to issue it, and when its frame was queued.
    submitted: Instant,
    sent: Option<Instant>,
    /// What its reply is checked against, once its arguments passed.
    checked: Option<(Rc<CompiledInterface>, Vec<ParamLayout>)>,
    timing: CallTiming,
    /// When traced: the client `call` span, its `rpc` child (whose
    /// context rides in the `Invoke`), and their start.
    trace: Option<(TraceContext, TraceContext, u64)>,
}

struct Engine<'f, 'a> {
    fleet: &'f Fleet<'a>,
    epoch: Instant,
    poller: Poller,
    /// Stage 1's results, per destination.
    interfaces: Vec<Interfaces>,
    clients: Vec<Client>,
    /// When each client's next call comes due, earliest first.
    dues: BinaryHeap<Reverse<(Instant, usize)>>,
    /// `(deadline, client, call id)` in send order, which is deadline
    /// order; entries whose call was answered are skipped lazily.
    timeouts: VecDeque<(Instant, usize, u64)>,
    /// Scheduled calls not yet accounted for.
    owed: usize,
    calls: Vec<CallResult>,
    wakeups: u64,
}

impl Engine<'_, '_> {
    /// Issue what is due, expire what is late, sleep until the next due
    /// call or deadline and serve what the poller reports, until every call
    /// is accounted for.
    fn window(mut self) -> ProtocolResult<OpenRun> {
        let (mut events, mut scratch) = (Vec::new(), vec![0; READ_CHUNK]);
        while self.owed > 0 {
            let now = Instant::now();
            while let Some(&Reverse((_, c))) = self.dues.peek().filter(|d| d.0 .0 <= now) {
                self.dues.pop();
                self.clients[c].due += 1;
                self.schedule_next(c);
                self.admit(c, false);
            }
            self.expire(now);
            if self.owed == 0 {
                break;
            }
            // Sleep until the next due call or deadline; with neither, the
            // replies are all there is to wait for.
            let (due, deadline) = (self.dues.peek().map(|d| d.0 .0), self.timeouts.front());
            let wake = due.into_iter().chain(deadline.map(|t| t.0)).min();
            let timeout = wake.map_or(Duration::from_secs(1), |w| w - Instant::now().min(w));
            events.clear();
            self.poller.wait(&mut events, timeout)?;
            self.wakeups += 1;
            for ev in &events {
                let c = ev.token as usize;
                if ev.writable {
                    self.pump_write(c);
                }
                if ev.readable || ev.error {
                    self.pump_read(c, &mut scratch);
                }
            }
        }
        for client in &mut self.clients {
            if let Some(conn) = client.conn.take() {
                conn.deregister(&mut self.poller);
            }
        }
        Ok((self.epoch, self.calls, self.wakeups))
    }

    /// Put client `c`'s next call, if it has one, on the due heap.
    fn schedule_next(&mut self, c: usize) {
        let client = &self.clients[c];
        if let Some(&t) = client.schedule.get(client.due) {
            let due = self.epoch + Duration::from_secs_f64(t);
            self.dues.push(Reverse((due, c)));
        }
    }

    /// Dial client `c`'s destination within the deadline.
    fn dial(&mut self, c: usize) -> Result<FrameConn, Outcome> {
        let addr = &self.fleet.addrs[c % self.fleet.addrs.len()];
        let stream = dial(addr, self.fleet.spec.options.deadline).map_err(|e| match e.kind() {
            io::ErrorKind::TimedOut => Outcome::Timeout,
            _ => Outcome::Transport,
        })?;
        FrameConn::register(stream, &mut self.poller, c as u64).map_err(|_| Outcome::Transport)
    }

    /// Issue client `c`'s calls that have come due while it has a free
    /// slot; `capped` when they had to wait for one.
    fn admit(&mut self, c: usize, capped: bool) {
        loop {
            let client = &mut self.clients[c];
            if client.issued == client.due || client.inflight.len() == OPEN_INFLIGHT_CAP {
                return;
            }
            let seq = client.issued;
            client.issued += 1;
            let mut call = self.call(c, seq, capped);
            match self.send(&mut call) {
                Ok(id) => {
                    self.clients[c].inflight.insert(id, call);
                    if let Some(d) = self.fleet.spec.options.deadline {
                        self.timeouts.push_back((Instant::now() + d, c, id));
                    }
                    self.pump_write(c);
                }
                Err(outcome) => self.finish(call, outcome, None),
            }
        }
    }

    /// Call `seq` of client `c`, as it stands before it is sent.
    fn call(&self, c: usize, seq: usize, capped: bool) -> Call {
        let (fleet, start_us) = (self.fleet, ninf_obs::now_us());
        let routine = fleet.spec.pick_routine(fleet.seed, c, seq);
        let root = recorder::global().enabled().then(TraceContext::root);
        let trace = root.map(|ctx| (ctx, ctx.child(), start_us));
        Call {
            client: c,
            seq,
            routine,
            capped,
            args: fleet.inputs.args(routine, c, seq),
            submitted: Instant::now(),
            sent: None,
            checked: None,
            timing: CallTiming::default(),
            trace,
        }
    }

    /// Check `call`'s arguments, encode it, dial if its client has no
    /// connection, and queue its frame: its call id, or the outcome it
    /// failed with.
    fn send(&mut self, call: &mut Call) -> Result<u64, Outcome> {
        let (c, name) = (call.client, call.routine.name());
        let interface = self.interfaces[c % self.fleet.addrs.len()][name].clone()?;
        let t_marshal = Instant::now();
        let layout = validate_call_args(&interface, &call.args).map_err(|_| Outcome::Remote)?;
        call.timing.marshal = t_marshal.elapsed().as_secs_f64();
        call.timing.request_bytes = request_payload_bytes(&layout);
        call.checked = Some((interface, layout));
        // Unique within the run, whatever the connection.
        let id = (call.seq * self.clients.len() + c + 1) as u64;
        let mut args: Vec<CallArg<'_>> = call.args.iter().map(CallArg::Data).collect();
        let rpc = call.trace.map(|t| t.1);
        let frame = encode_call(id, CallKind::Invoke, name, &mut args, rpc, |_| false);
        let frame = frame.map_err(|e| classify(&e))?;
        let conn = match self.clients[c].conn.take() {
            Some(conn) => conn,
            None => self.dial(c)?,
        };
        call.sent = Some(Instant::now());
        self.clients[c].conn.insert(conn).queue(frame);
        Ok(id)
    }

    /// Write what client `c` has queued; watch for writability while some
    /// is left.
    fn pump_write(&mut self, c: usize) {
        let Some(conn) = self.clients[c].conn.as_mut() else {
            return;
        };
        if conn.flush().is_err() {
            return self.kill(c);
        }
        let want = Interest {
            writable: conn.has_writes(),
            ..Interest::READ
        };
        conn.set_interest(&mut self.poller, c as u64, want);
    }

    /// Read client `c`'s socket until it would block, answering each call
    /// whose reply is sliced off it; a reply for no call in flight (one
    /// that timed out) is dropped.
    fn pump_read(&mut self, c: usize, scratch: &mut [u8]) {
        while let Some(conn) = self.clients[c].conn.as_mut() {
            match conn.read(scratch) {
                Filled::Bytes => {}
                Filled::WouldBlock => return,
                Filled::Closed => return self.kill(c),
            }
            while let Some(conn) = self.clients[c].conn.as_mut() {
                let (id, reply) = match conn.next_frame() {
                    Ok(Some((id, checked))) => (id, checked.message),
                    Ok(None) => break,
                    Err(_) => return self.kill(c),
                };
                if let Some(call) = self.clients[c].inflight.remove(&id) {
                    self.answer(call, reply);
                    self.admit(c, true);
                }
            }
        }
    }

    /// Account for a sent `call` from its reply.
    fn answer(&mut self, mut call: Call, reply: Message) {
        let results = match reply {
            Message::ResultData { results } => results,
            Message::Error { .. } => return self.finish(call, Outcome::Remote, None),
            _ => return self.finish(call, Outcome::Transport, None),
        };
        let (interface, layout) = call.checked.as_ref().expect("a sent call was checked");
        if validate_results(interface, layout, &results).is_err() {
            return self.finish(call, Outcome::Remote, None);
        }
        call.timing.reply_bytes = reply_payload_bytes(layout);
        self.finish(call, Outcome::Ok, Some(&results));
    }

    /// Time out every call whose deadline has passed by `now`, leaving the
    /// earliest live deadline at the front.
    fn expire(&mut self, now: Instant) {
        while let Some(&(deadline, c, id)) = self.timeouts.front() {
            let live = self.clients[c].inflight.contains_key(&id);
            if live && deadline > now {
                return;
            }
            self.timeouts.pop_front();
            if let Some(call) = self.clients[c].inflight.remove(&id) {
                self.finish(call, Outcome::Timeout, None);
                self.admit(c, true);
            }
        }
    }

    /// Client `c`'s connection died: fail its calls in flight and those
    /// waiting for a slot. Its next due call redials.
    fn kill(&mut self, c: usize) {
        let client = &mut self.clients[c];
        if let Some(conn) = client.conn.take() {
            conn.deregister(&mut self.poller);
        }
        let waiting = client.issued..client.due;
        client.issued = client.due;
        let lost: Vec<Call> = client.inflight.drain().map(|(_, call)| call).collect();
        let waiting: Vec<Call> = waiting.map(|seq| self.call(c, seq, true)).collect();
        for call in lost.into_iter().chain(waiting) {
            self.finish(call, Outcome::Transport, None);
        }
    }

    /// Account for `call`: its record, its spans, and the observer.
    fn finish(&mut self, mut call: Call, outcome: Outcome, reply: Option<&[Value]>) {
        let done = Instant::now();
        call.timing.attempts = 1;
        call.timing.total = (done - call.submitted).as_secs_f64();
        call.timing.roundtrip = call.sent.map_or(0.0, |t| (done - t).as_secs_f64());
        if let Some((ctx, rpc, start_us)) = call.trace {
            let (rec, name) = (recorder::global(), call.routine.name());
            if call.sent.is_some() {
                let bytes = call.timing.request_bytes;
                let span = Span::at(rpc, "rpc", "client", start_us);
                rec.record(span.with_detail(format!("request_bytes={bytes}")));
            }
            let ok = outcome == Outcome::Ok;
            let span = Span::at(ctx, "call", "client", start_us);
            rec.record(span.with_detail(format!("routine={name} attempts=1 ok={ok}")));
        }
        let since = |t: Instant| (t - self.epoch).as_secs_f64();
        let result = CallResult {
            client: call.client,
            seq: call.seq,
            routine: call.routine.name(),
            n: call.routine.scalar(),
            scheduled: self.clients[call.client].schedule[call.seq],
            t_submit: since(call.submitted),
            t_complete: since(done),
            timing: call.timing,
            outcome,
            flops: call.routine.flops(),
            trace_id: call.trace.map_or(0, |t| t.0.trace_id),
            capped: call.capped,
        };
        (self.fleet.observe)(&result, &call.args, reply);
        self.calls.push(result);
        self.owed -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    use ninf_client::CallOptions;
    use ninf_protocol::ProtocolError;
    use ninf_reactor::{Handler, Reactor, ReactorConfig, ReactorHooks, Request};
    use ninf_server::SchedPolicy;

    use crate::runner::{ignore_replies, spawn_server, Inputs, Target};
    use crate::scenario::Scenario;
    use crate::spec::{MixEntry, Phases};
    use crate::{run_scenario, run_sweep, SweepConfig};

    /// Open-loop EP 2^4 at `rate_hz` per client for `secs`.
    fn spec(rate_hz: f64, secs: f64, deadline: Duration) -> WorkloadSpec {
        WorkloadSpec {
            mix: vec![MixEntry {
                routine: Routine::Ep { m: 4 },
                weight: 1,
            }],
            arrival: Arrival::Open { rate_hz },
            phases: Phases {
                ramp_up: 0.0,
                steady: secs,
                ramp_down: 0.0,
            },
            calls_per_client: 0,
            unique_args: false,
            options: CallOptions::with_deadline(deadline),
        }
    }

    struct Ran {
        calls: Vec<CallResult>,
        wakeups: u64,
    }

    fn run_open(spec: &WorkloadSpec, addr: &str, clients: usize, seed: u64) -> Ran {
        let inputs = Inputs::prepare(spec, seed);
        let addrs = [addr.to_string()];
        let fleet = Fleet {
            spec,
            inputs: &inputs,
            dial: &|_| Err(ProtocolError::Disconnected),
            addrs: &addrs,
            observe: &ignore_replies,
            seed,
            clients,
        };
        let (_, calls, wakeups) = run(&fleet).unwrap();
        Ran { calls, wakeups }
    }

    fn planned(spec: &WorkloadSpec, clients: usize, seed: u64) -> usize {
        (0..clients)
            .map(|c| spec.arrival_schedule(seed, c, clients).len())
            .sum()
    }

    /// Each scheduled call is accounted for once.
    fn assert_once_each(run: &Ran, planned: usize) {
        let mut keys: Vec<(usize, usize)> = run.calls.iter().map(|c| (c.client, c.seq)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(run.calls.len(), planned);
        assert_eq!(keys.len(), planned, "a call was accounted for twice");
    }

    #[test]
    fn open_loop_window_completes_every_call() {
        let server = spawn_server(4, SchedPolicy::Fcfs, 0).unwrap();
        let spec = spec(12.5, 0.5, Duration::from_secs(5));
        let run = run_open(&spec, &server.addr().to_string(), 32, 1);
        server.shutdown();
        let planned = planned(&spec, 32, 1);
        assert!(planned > 100, "{planned}");
        assert_once_each(&run, planned);
        for c in &run.calls {
            assert_eq!(c.outcome, Outcome::Ok);
            // Sent on its due time or after, answered after it was sent.
            assert!(c.t_submit >= c.scheduled && c.t_complete >= c.t_submit);
            assert!(c.timing.roundtrip > 0.0 && c.timing.total >= c.timing.roundtrip);
            assert!(!c.capped);
        }
    }

    #[test]
    fn a_low_rate_window_wakes_the_poller_a_few_times_per_call() {
        // At 40 Hz the calls are ~25 ms apart, so the engine sleeps most
        // of the window. Each call costs a wakeup when it comes due and
        // one for its reply; a wait cut short of its deadline (truncated
        // to whole milliseconds, say) returns at once through each call's
        // last millisecond, hundreds of times per call.
        let server = spawn_server(1, SchedPolicy::Fcfs, 0).unwrap();
        let spec = spec(40.0, 0.5, Duration::from_secs(5));
        let run = run_open(&spec, &server.addr().to_string(), 1, 7);
        server.shutdown();
        let calls = run.calls.len() as u64;
        assert!(calls >= 8, "{calls}");
        assert!(run.calls.iter().all(|c| c.outcome == Outcome::Ok));
        assert!(
            run.wakeups <= 4 * calls + 4,
            "{} wakeups for {calls} calls",
            run.wakeups
        );
    }

    #[test]
    fn calls_with_no_reply_in_time_time_out_and_late_replies_are_dropped() {
        // The server answers stage 1 but each call only after three
        // deadlines, so every call times out in flight and its reply, when
        // it comes, names a call that is no longer there.
        let deadline = Duration::from_millis(100);
        let ep = ninf_idl::stdlib_interfaces()
            .into_iter()
            .find(|i| i.name == "ep")
            .unwrap();
        let handler: Handler = Arc::new(move |req: Request| match req.message {
            Message::QueryInterface { .. } => Some(Message::InterfaceReply {
                interface: ep.clone(),
            }),
            _ => {
                std::thread::sleep(3 * deadline);
                Some(Message::ResultData {
                    results: vec![Value::Double(0.0); 3],
                })
            }
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )
        .unwrap();
        let spec = spec(20.0, 0.5, deadline);
        let t0 = Instant::now();
        let run = run_open(&spec, &server.local_addr().to_string(), 2, 3);
        let took = t0.elapsed();
        let guard = (10 * deadline).max(Duration::from_secs(2));
        assert!(took < guard, "the run took {took:?}");
        assert_once_each(&run, planned(&spec, 2, 3));
        assert!(run.calls.iter().all(|c| c.outcome == Outcome::Timeout));
        server.shutdown();
    }

    #[test]
    fn a_server_killed_mid_window_fails_what_it_held_and_nothing_hangs() {
        let server = spawn_server(2, SchedPolicy::Fcfs, 0).unwrap();
        let addr = server.addr().to_string();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            server.shutdown();
        });
        let spec = spec(40.0, 0.8, Duration::from_secs(2));
        let t0 = Instant::now();
        let run = run_open(&spec, &addr, 2, 5);
        assert!(t0.elapsed() < Duration::from_secs(20));
        killer.join().unwrap();
        assert_once_each(&run, planned(&spec, 2, 5));
        let ok = run
            .calls
            .iter()
            .filter(|c| c.outcome == Outcome::Ok)
            .count();
        let lost = run
            .calls
            .iter()
            .filter(|c| c.outcome == Outcome::Transport)
            .count();
        assert!(ok > 0 && lost > 0, "ok {ok}, transport {lost}");
        assert_eq!(ok + lost, run.calls.len(), "only transport errors");
    }

    #[test]
    fn open_loop_specs_the_engine_does_not_serve_are_refused_at_run_start() {
        let scenario = |spec: WorkloadSpec, target| Scenario {
            name: "refused",
            about: "test",
            spec,
            target,
        };
        // Nothing listens at port 1: a run that got past the check would
        // report transport errors, not fail.
        let direct = || Target::External("127.0.0.1:1".into());
        let mut wan = spec(10.0, 0.2, Duration::from_secs(1));
        wan.options.wan = Some(ninf_protocol::LinkShape::parse("delay=1ms").unwrap());
        let mut retries = spec(10.0, 0.2, Duration::from_secs(1));
        retries.options.retries = 1;
        let fleet = Target::SpawnFleet { servers: 2, pes: 1 };
        let of = |err: ProtocolError| match err {
            ProtocolError::Io(e) => e.get_ref()?.downcast_ref::<Unserved>().copied(),
            _ => None,
        };
        let refused = |sc: &Scenario| of(run_scenario(sc, 1, 1).unwrap_err());
        assert_eq!(refused(&scenario(wan, direct())), Some(Unserved::Wan));
        assert_eq!(
            refused(&scenario(retries, direct())),
            Some(Unserved::Retries)
        );
        let meta = scenario(spec(10.0, 0.2, Duration::from_secs(1)), fleet);
        assert_eq!(refused(&meta), Some(Unserved::Metaserver));
        let swept = run_sweep(&meta, 1, 1, &SweepConfig::default()).unwrap_err();
        assert_eq!(of(swept), Some(Unserved::Metaserver));
    }
}
