//! The live TCP Ninf computational server.
//!
//! One connection core: a reactor's event-loop thread owns every
//! nonblocking socket and a bounded worker pool runs the per-message
//! handler, so one ninfd sustains thousands of multiplexed client streams
//! (the C10k path). Every call funnels through the [`JobGate`], so the
//! task-parallel/data-parallel tradeoff and the admission policy behave
//! exactly as in the paper's server.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use ninf_obs::log::Level;
use ninf_obs::{logkv, recorder, Counter, Gauge, LogHistogram, MetricsRegistry};
use ninf_protocol::chunk::Reassembly;
use ninf_protocol::{
    reply_payload_bytes, request_payload_bytes, validate_call_args, Arg, CallStat, Digest,
    LinkShape, LoadReport, Message, ProtocolResult, SharedLink, Span, TraceContext, Value, Wire,
    FRAME_HEADER_BYTES,
};
use ninf_reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks};

use crate::argstore::{ArgStore, DEFAULT_ARG_CACHE_BYTES};
use crate::exec::{ExecMode, JobGate};
use crate::policy::{JobInfo, SchedPolicy};
use crate::registry::Registry;
use crate::stats::ServerStats;
use crate::trace::CostModel;
use crate::twophase::JobTable;
use crate::uploads::{Accepted, Uploads, MAX_PARKED_CALLS, PARK_TIMEOUT};

/// Server configuration. How many PEs a call holds is not here: each
/// registered executable declares it ([`crate::NinfExecutable::mode`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of PEs the gate manages (the J90 has 4).
    pub pes: usize,
    /// Admission policy (§5.2–5.3); the paper's server runs FCFS.
    pub policy: SchedPolicy,
    /// Resident-byte budget of the content-addressed argument store
    /// ([`crate::argstore::ArgStore`]); 0 disables server-side caching, so
    /// every `Arg::Ref` comes back as `NeedArg`.
    pub arg_cache_bytes: usize,
    /// Outbound WAN shape: replies pace through one process-wide
    /// [`SharedLink`] bottleneck plus propagation delay, on the worker
    /// thread that produced them (workers already block for whole kernels
    /// in the PE gate, which is why the pool is `max(8, pes + 4)`). Only the
    /// shape's bandwidth and delay apply: loss and corruption are
    /// deliberately *not* applied server-side — a vanished ack would be
    /// indistinguishable from a vanished chunk, so the lossy direction
    /// lives in the client's [`ninf_protocol::LinkTransport`] wrapper.
    pub wan: Option<LinkShape>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pes: 4,
            policy: SchedPolicy::Fcfs,
            arg_cache_bytes: DEFAULT_ARG_CACHE_BYTES,
            wan: None,
        }
    }
}

/// Pre-resolved metric handles for the per-call hot path, backed by a
/// [`MetricsRegistry`] the process can expose over HTTP.
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    calls: Counter,
    errors: Counter,
    rejected_frames: Counter,
    reactor_reads: Counter,
    reactor_staged_copy_bytes: Counter,
    latency: Arc<parking_lot::Mutex<LogHistogram>>,
    running: Gauge,
    queued: Gauge,
    open_connections: Gauge,
    inflight_calls: Gauge,
    argcache_hits: Counter,
    argcache_misses: Counter,
    argcache_evictions: Counter,
    argcache_bytes_saved: Counter,
    chunks: Counter,
    chunk_rejects: Counter,
    chunk_uploads: Counter,
    chunk_bytes: Counter,
    chunk_expired: Counter,
    parked: Counter,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let calls = registry.counter(
            "ninf_server_calls_total",
            "Ninf_call invocations completed (including errors)",
        );
        let errors = registry.counter(
            "ninf_server_errors_total",
            "Ninf_call invocations that returned an error",
        );
        let rejected_frames = registry.counter(
            "ninf_server_rejected_frames_total",
            "inbound frames rejected before decode (bad magic/version/checksum)",
        );
        let reactor_reads = registry.counter(
            "ninf_reactor_reads_total",
            "socket read calls the reactor made",
        );
        let reactor_staged_copy_bytes = registry.counter(
            "ninf_reactor_staged_copy_bytes_total",
            "bytes the reactor copied from its read scratch buffer into staging",
        );
        let latency = registry.histogram(
            "ninf_server_call_seconds",
            "server-side Ninf_call time from submit to complete",
        );
        let running = registry.gauge("ninf_server_running", "calls executing now");
        let queued = registry.gauge("ninf_server_queued", "calls waiting for a PE");
        let open_connections = registry.gauge(
            "ninf_server_open_connections",
            "client connections currently open",
        );
        let inflight_calls = registry.gauge(
            "ninf_server_inflight_calls",
            "calls received but not yet replied to",
        );
        let argcache_hits = registry.counter(
            "ninf_server_argcache_hits_total",
            "argument refs resolved from the content-addressed store",
        );
        let argcache_misses = registry.counter(
            "ninf_server_argcache_misses_total",
            "argument refs the store could not resolve (NeedArg replies)",
        );
        let argcache_evictions = registry.counter(
            "ninf_server_argcache_evictions_total",
            "argument store entries evicted to stay within the byte budget",
        );
        let argcache_bytes_saved = registry.counter(
            "ninf_server_argcache_bytes_saved_total",
            "request payload bytes the client did not re-ship (resolved refs)",
        );
        let chunks = registry.counter(
            "ninf_server_chunks_total",
            "bulk-upload chunks accepted into a reassembly",
        );
        let chunk_rejects = registry.counter(
            "ninf_server_chunk_rejects_total",
            "bulk-upload chunks refused (bad CRC, geometry lie, conflict, over budget)",
        );
        let chunk_uploads = registry.counter(
            "ninf_server_chunk_uploads_total",
            "bulk uploads completed, digest-verified, and landed in the arg store",
        );
        let chunk_bytes = registry.counter(
            "ninf_server_chunk_bytes_total",
            "payload bytes accepted over the chunked bulk path",
        );
        let chunk_expired = registry.counter(
            "ninf_server_chunk_expired_total",
            "bulk uploads dropped unfinished after going idle",
        );
        let parked = registry.counter(
            "ninf_server_parked_calls_total",
            "calls whose refs waited for an open upload to land",
        );
        Self {
            registry,
            calls,
            errors,
            rejected_frames,
            reactor_reads,
            reactor_staged_copy_bytes,
            latency,
            running,
            queued,
            open_connections,
            inflight_calls,
            argcache_hits,
            argcache_misses,
            argcache_evictions,
            argcache_bytes_saved,
            chunks,
            chunk_rejects,
            chunk_uploads,
            chunk_bytes,
            chunk_expired,
            parked,
        }
    }

    /// The backing registry (serve it with `ninf_obs::http::serve_metrics`).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Argument-cache counters `(hits, misses, evictions, bytes_saved)` —
    /// the same values the Prometheus endpoint exposes, for tests and CLIs.
    pub fn argcache(&self) -> (u64, u64, u64, u64) {
        (
            self.argcache_hits.get(),
            self.argcache_misses.get(),
            self.argcache_evictions.get(),
            self.argcache_bytes_saved.get(),
        )
    }

    /// Chunked bulk-upload counters
    /// `(chunks, rejects, uploads_completed, bytes)`.
    pub fn chunked(&self) -> (u64, u64, u64, u64) {
        (
            self.chunks.get(),
            self.chunk_rejects.get(),
            self.chunk_uploads.get(),
            self.chunk_bytes.get(),
        )
    }

    /// Calls that parked on an open upload before resolving their refs.
    pub fn parked(&self) -> u64 {
        self.parked.get()
    }
}

/// The shared per-call context the reactor's workers hand to the message
/// handler.
struct CallContext {
    registry: Registry,
    stats: Arc<ServerStats>,
    gate: Arc<JobGate>,
    jobs: Arc<JobTable>,
    cost: CostModel,
    metrics: Arc<ServerMetrics>,
    args: Arc<ArgStore>,
    /// One kernel thread budget per call width, keyed by the PEs granted:
    /// a call's handler runs inside the pool of exactly its grant.
    kernels: HashMap<usize, rayon::ThreadPool>,
    /// In-flight chunked bulk uploads; completed ones move into `args`
    /// and leave this table.
    uploads: parking_lot::Mutex<Uploads>,
    /// Signalled whenever an entry leaves `uploads`, waking parked calls.
    upload_gone: parking_lot::Condvar,
    /// Calls that may park at once: half the worker pool, at most
    /// [`MAX_PARKED_CALLS`].
    park_cap: usize,
    /// Outbound reply shaping; see [`ServerConfig::wan`].
    wan: Option<SharedLink>,
}

/// Handle to a running server. Prefer [`NinfServer::shutdown`]; dropping the
/// handle tears the reactor down without a drain window.
pub struct NinfServer {
    addr: std::net::SocketAddr,
    stats: Arc<ServerStats>,
    gate: Arc<JobGate>,
    jobs: Arc<JobTable>,
    metrics: Arc<ServerMetrics>,
    args: Arc<ArgStore>,
    reactor: Option<ReactorHandle>,
}

impl NinfServer {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `registry` under `config`.
    pub fn start(addr: &str, registry: Registry, config: ServerConfig) -> ProtocolResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new());
        let gate = Arc::new(JobGate::new(config.pes, config.policy));
        let jobs = Arc::new(JobTable::new());
        let metrics = Arc::new(ServerMetrics::new());
        let args = Arc::new(ArgStore::new(config.arg_cache_bytes));
        // Invoke handlers block in the gate; keep headroom so load/stats
        // queries are served while PEs are saturated.
        let workers = (config.pes + 4).max(8);
        // More kernel threads than cores would only time-share them.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let kernels = HashMap::from(
            [ExecMode::TaskParallel, ExecMode::DataParallel].map(|mode| {
                let width = mode.pes_per_call(config.pes);
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width.min(cores))
                    .build()
                    .expect("a kernel thread pool");
                (width, pool)
            }),
        );
        let ctx = Arc::new(CallContext {
            registry,
            stats: stats.clone(),
            gate: gate.clone(),
            jobs: jobs.clone(),
            cost: CostModel::new(),
            metrics: metrics.clone(),
            args: args.clone(),
            kernels,
            uploads: parking_lot::Mutex::default(),
            upload_gone: parking_lot::Condvar::new(),
            park_cap: (workers / 2).min(MAX_PARKED_CALLS),
            wan: config.wan.map(SharedLink::new),
        });

        let handler: Handler = Arc::new(move |req: ninf_reactor::Request| {
            let reply = handle_message(&ctx, req.message, &req.digests, req.arrived);
            // Outbound WAN shaping: the reply serializes through the
            // process-wide bottleneck and crosses the propagation delay
            // before the reactor puts it on the wire (lossless — see
            // ServerConfig::wan). Its length is the frame writer's own
            // sizing pass, which reads no array bytes.
            if let Some(link) = &ctx.wan {
                link.deliver(FRAME_HEADER_BYTES + reply.payload_len());
            }
            Some(reply)
        });
        let hooks = ReactorHooks {
            open_connections: Some(metrics.open_connections.clone()),
            inflight_calls: Some(metrics.inflight_calls.clone()),
            rejected_frames: Some(metrics.rejected_frames.clone()),
            reads: Some(metrics.reactor_reads.clone()),
            staged_copy_bytes: Some(metrics.reactor_staged_copy_bytes.clone()),
        };
        let reactor_config = ReactorConfig {
            workers,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::start(listener, reactor_config, handler, hooks)?;

        Ok(Self {
            addr: local,
            stats,
            gate,
            jobs,
            metrics,
            args,
            reactor: Some(reactor),
        })
    }

    /// The bound address (connect clients here).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Statistics sink.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// PEs currently executing calls.
    pub fn busy_pes(&self) -> usize {
        self.gate.busy_pes()
    }

    /// Running and queued calls, as a `QueryLoad` would answer.
    pub fn load_report(&self) -> LoadReport {
        self.gate.load_report()
    }

    /// The two-phase job table (observable in tests).
    pub fn jobs(&self) -> &Arc<JobTable> {
        &self.jobs
    }

    /// Per-process metric handles (counters, gauges, latency summary).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The content-addressed argument store (tests force evictions here).
    pub fn arg_store(&self) -> &Arc<ArgStore> {
        &self.args
    }

    /// Stop accepting and join the accept thread, draining briefly (2 s) so
    /// in-flight calls finish instead of being cut off mid-reply.
    pub fn shutdown(self) {
        self.shutdown_with_drain(std::time::Duration::from_secs(2));
    }

    /// Graceful shutdown: stop accepting new connections, then wait up to
    /// `drain` for in-flight calls to finish before returning. Returns
    /// `true` if the server drained fully, `false` if work was still running
    /// when the window closed. Nothing is torn down mid-execution either
    /// way — the reactor serves out dispatched calls before its sockets
    /// close — but the caller knows whether the fleet was quiesced in time.
    pub fn shutdown_with_drain(mut self, drain: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + drain;
        let reactor = self.reactor.take().expect("reactor running");
        reactor.stop_accepting();
        let drained = loop {
            if self.gate.busy_pes() == 0 && self.metrics.inflight_calls.get() == 0.0 {
                break true;
            }
            if std::time::Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        reactor.shutdown();
        drained
    }
}

/// The protocol state machine: one request
/// message in, one reply message out. Every message kind replies exactly
/// once; SubmitJob's compute runs detached after its ticket is returned.
/// `digests` are the frame check's, one per argument of a call; `arrived`
/// is when the reactor read the frame, a call's `T_submit`, so the wait
/// for a worker is part of its record.
fn handle_message(
    ctx: &Arc<CallContext>,
    msg: Message,
    digests: &[Option<Digest>],
    arrived: Instant,
) -> Message {
    match msg {
        Message::QueryInterface { routine } => match ctx.registry.lookup(&routine) {
            Some(exe) => Message::InterfaceReply {
                interface: exe.interface.clone(),
            },
            None => {
                logkv!(Level::Warn, "server", "unknown_routine", routine = routine);
                Message::Error {
                    reason: format!("unknown routine `{routine}`"),
                }
            }
        },
        Message::Invoke {
            routine,
            args,
            trace,
        } => {
            logkv!(
                Level::Info,
                "server",
                "invoke",
                routine = routine,
                args = args.len()
            );
            // Refs resolve against the arg store *before* anything runs: a
            // miss replies NeedArg without touching the gate or the
            // handler, so the client's re-send cannot double-execute.
            let args = match resolve_args(ctx, args, digests) {
                Ok(values) => values,
                Err(digests) => return Message::NeedArg { digests },
            };
            let reply = match execute_invoke(
                ctx,
                Submitted {
                    routine,
                    args,
                    trace,
                    t_submit: arrived,
                },
            ) {
                Ok(results) => Message::ResultData { results },
                Err(reason) => Message::Error { reason },
            };
            // The reply leg gets its own span, a sibling of the invoke span
            // under the caller's rpc position, stamped as the reply is
            // handed to the reactor.
            if let Some(parent) = trace.filter(|_| recorder::global().enabled()) {
                let start = ninf_obs::now_us();
                recorder::global().record(Span::at(parent.child(), "reply", "server", start));
            }
            reply
        }
        Message::SubmitJob {
            routine,
            args,
            trace,
        } => {
            // Two-phase, phase 1 (§5.1): ticket now, compute detached —
            // the client may disconnect immediately. Refs resolve before
            // the ticket exists, so a store miss is a NeedArg, not a job
            // that can never run; past the pending-job cap there is no
            // ticket and no thread.
            let args = match resolve_args(ctx, args, digests) {
                Ok(values) => values,
                Err(digests) => return Message::NeedArg { digests },
            };
            let ticket = match ctx.jobs.submit() {
                Ok(ticket) => ticket,
                Err(reason) => return Message::Error { reason },
            };
            logkv!(
                Level::Info,
                "server",
                "submit_job",
                routine = routine,
                job = ticket
            );
            let ctx = ctx.clone();
            let call = Submitted {
                routine,
                args,
                trace,
                t_submit: arrived,
            };
            std::thread::spawn(move || {
                let outcome = execute_invoke(&ctx, call);
                ctx.jobs.complete(ticket, outcome);
            });
            Message::JobTicket { job: ticket }
        }
        Message::PollJob { job } => Message::JobStatus {
            job,
            state: ctx.jobs.poll(job),
        },
        Message::FetchResult { job, trace } => {
            // The fetch leg joins the submit's trace tree instead of being
            // an orphan: one span under the caller's rpc position.
            if let Some(parent) = trace.filter(|_| recorder::global().enabled()) {
                let start = ninf_obs::now_us();
                recorder::global().record(Span::at(parent.child(), "fetch", "server", start));
            }
            match ctx.jobs.fetch(job) {
                Some(Ok(results)) => Message::ResultData { results },
                Some(Err(reason)) => Message::Error { reason },
                None => Message::Error {
                    reason: format!("job {job} is not ready (or unknown)"),
                },
            }
        }
        Message::QueryLoad => Message::LoadStatus(ctx.gate.load_report()),
        Message::QueryStats { since } => {
            let (now, total, records) = ctx.stats.snapshot_since(since);
            Message::StatsReply {
                now,
                total,
                records,
            }
        }
        Message::QueryMetrics { since } => {
            // Window-series drain: per-interval metric deltas from the
            // bounded ring, incremental from the caller's cursor. Disarmed
            // registries answer interval 0 / no frames — "telemetry off",
            // distinguishable from "armed but idle".
            let s = ctx.metrics.registry().snapshot_windows(since);
            Message::MetricsReply {
                process: "server".into(),
                now: s.now,
                interval: s.interval,
                total: s.total,
                dropped: s.dropped,
                frames: s.frames,
            }
        }
        Message::QueryTrace { trace_id } => {
            // Flight-recorder drain: the spans this process recorded for
            // `trace_id` (0 = everything retained), joined client-side
            // into one cross-process call tree.
            let rec = recorder::global();
            Message::TraceReply {
                process: "server".into(),
                dropped: rec.dropped(),
                spans: rec.snapshot(trace_id),
            }
        }
        Message::PutArgChunk {
            digest,
            total_bytes,
            total,
            seq,
            crc,
            bytes,
        } => handle_chunk(ctx, digest, total_bytes, total, seq, crc, &bytes),
        Message::ListRoutines => {
            let routines = ctx
                .registry
                .names()
                .into_iter()
                .map(|n| {
                    let doc = ctx
                        .registry
                        .lookup(n)
                        .map(|e| e.interface.doc.clone())
                        .unwrap_or_default();
                    (n.to_owned(), doc)
                })
                .collect();
            Message::RoutineList { routines }
        }
        other => Message::Error {
            reason: format!("unexpected message {}", other.kind()),
        },
    }
}

/// One [`Message::PutArgChunk`] through the upload table
/// ([`crate::uploads`]): fresh bytes and benign retransmits ack, lies and
/// conflicts are refused with a typed reason and counted, and the chunk
/// that completes an image lands it in the arg store before it is acked.
///
/// A chunk for a digest the arg store already holds re-acks — the whole
/// upload completed earlier but its final ack was lost. That check runs
/// under the table lock and only when the table has no entry: an upload's
/// entry outlives its last chunk until the value is stored, so "no entry"
/// and "not stored" together really mean the upload is new.
fn handle_chunk(
    ctx: &CallContext,
    digest: Digest,
    total_bytes: u64,
    total: u32,
    seq: u32,
    crc: u32,
    bytes: &[u8],
) -> Message {
    let refuse = |reason: String| {
        ctx.metrics.chunk_rejects.inc();
        Message::Error { reason }
    };
    let budget = ctx.args.budget() as u64;
    if budget == 0 {
        return refuse("argument store disabled: chunked upload refused".into());
    }
    let mut uploads = ctx.uploads.lock();
    let now = Instant::now();
    let expired = uploads.expire_idle(now);
    if expired > 0 {
        ctx.metrics.chunk_expired.add(expired as u64);
        ctx.upload_gone.notify_all();
    }
    if !uploads.contains(&digest) && ctx.args.contains(&digest) {
        return Message::ChunkOk { digest, seq };
    }
    let accepted = uploads.accept(now, budget, digest, total_bytes, total, seq, crc, bytes);
    drop(uploads);
    match accepted {
        Ok(Accepted::Duplicate) => {}
        Ok(fresh) => {
            ctx.metrics.chunks.inc();
            ctx.metrics.chunk_bytes.add(bytes.len() as u64);
            if let Accepted::Complete(image) = fresh {
                let stored = finish_upload(ctx, digest, image);
                ctx.uploads.lock().landed(&digest);
                ctx.upload_gone.notify_all();
                if let Err(reason) = stored {
                    return refuse(reason);
                }
            }
        }
        Err(reason) => {
            logkv!(
                Level::Warn,
                "server",
                "chunk_rejected",
                seq = seq,
                why = reason
            );
            return refuse(reason);
        }
    }
    Message::ChunkOk { digest, seq }
}

/// A completed reassembly: verify the image digest, decode the value,
/// and land it in the arg store under the digest a later `Arg::Ref`
/// will name.
fn finish_upload(ctx: &CallContext, digest: Digest, r: Reassembly) -> Result<(), String> {
    let image = r.into_image().map_err(|e| format!("upload failed: {e}"))?;
    let mut dec = ninf_xdr::XdrDecoder::new(&image);
    let value = Value::get(&mut dec).map_err(|e| format!("upload image does not decode: {e}"))?;
    if dec.remaining() != 0 {
        return Err("upload image has trailing bytes".into());
    }
    let evicted = ctx.args.land(digest, value);
    ctx.metrics.argcache_evictions.add(evicted as u64);
    ctx.metrics.chunk_uploads.inc();
    logkv!(
        Level::Info,
        "server",
        "chunk_upload_complete",
        digest = digest,
        bytes = image.len()
    );
    Ok(())
}

/// Resolve wire args to concrete values against the arg store.
///
/// Inline values come through as-is — and cache-worthy ones (large flat
/// arrays, the positions `digests` names) are captured into the store
/// under the digest the frame check folded into its CRC pass, since the
/// client will start ref'ing them once the call succeeds; the store and
/// the call share that one allocation, and no argument byte is read
/// again. Refs are looked up (a shared handle, not a copy), a ref whose
/// upload is still reassembling after waiting for it ([`await_upload`]); if
/// *any* is missing the whole call fails closed with the missing digests
/// and no hit/bytes-saved accounting, because the client will re-ship
/// everything inline anyway.
fn resolve_args(
    ctx: &CallContext,
    args: Vec<Arg>,
    digests: &[Option<Digest>],
) -> Result<Vec<Arc<Value>>, Vec<Digest>> {
    let mut out = Vec::with_capacity(args.len());
    let mut missing = Vec::new();
    let mut hits = 0u64;
    let mut bytes_saved = 0u64;
    for (pos, arg) in args.into_iter().enumerate() {
        match arg {
            Arg::Data(v) => {
                let v = Arc::new(v);
                let digest = digests.get(pos).copied().flatten();
                if let Some(d) = digest.filter(|_| ctx.args.budget() > 0) {
                    let evicted = ctx.args.insert(d, Arc::clone(&v));
                    ctx.metrics.argcache_evictions.add(evicted as u64);
                }
                out.push(v);
            }
            Arg::Ref(d) => match ctx.args.get(&d).or_else(|| await_upload(ctx, &d)) {
                Some(v) => {
                    hits += 1;
                    bytes_saved += v.wire_bytes() as u64;
                    out.push(v);
                }
                None => missing.push(d),
            },
        }
    }
    if !missing.is_empty() {
        ctx.metrics.argcache_misses.add(missing.len() as u64);
        logkv!(
            Level::Info,
            "server",
            "argcache_miss",
            missing = missing.len()
        );
        return Err(missing);
    }
    ctx.metrics.argcache_hits.add(hits);
    ctx.metrics.argcache_bytes_saved.add(bytes_saved);
    Ok(out)
}

/// A ref the store missed whose digest is still an open upload: the call
/// rode the upload's connection and overtook its last chunks (or a lost
/// chunk's retransmit). Park until the upload's entry goes — landed, or
/// dropped unfinished — for at most [`PARK_TIMEOUT`], then look again.
/// With `park_cap` calls already parked the miss stands at once. A value
/// that did not land is a plain miss, so the caller gets `NeedArg`, never
/// a hang.
fn await_upload(ctx: &CallContext, d: &Digest) -> Option<Arc<Value>> {
    let mut uploads = ctx.uploads.lock();
    if uploads.contains(d) && uploads.park(ctx.park_cap) {
        ctx.metrics.parked.inc();
        let until = Instant::now() + PARK_TIMEOUT;
        while uploads.contains(d) {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || ctx.upload_gone.wait_for(&mut uploads, left) {
                break;
            }
        }
        uploads.unpark();
    }
    drop(uploads);
    ctx.args.get(d)
}

/// An `Invoke` or `SubmitJob` the server has accepted: its routine, its
/// resolved arguments, the caller's trace position, and T_submit — the
/// clock reading taken as the request reached the handler.
struct Submitted {
    routine: String,
    args: Vec<Arc<Value>>,
    trace: Option<TraceContext>,
    t_submit: Instant,
}

/// Run one accepted call and count it: every call — refused, failed or
/// ok — is counted here, once.
fn execute_invoke(ctx: &CallContext, call: Submitted) -> Result<Vec<Value>, String> {
    let outcome = run_call(ctx, &call);
    ctx.metrics.calls.inc();
    if let Err(reason) = &outcome {
        ctx.metrics.errors.inc();
        logkv!(
            Level::Warn,
            "server",
            "invoke_failed",
            routine = call.routine,
            reason = reason
        );
    }
    outcome
}

/// One call's §4.1 lifecycle: check it against the IDL with the client's
/// own checker, wait in the PE gate for the executable's width, execute on
/// exactly the PEs granted. The clock is read once at
/// each lifecycle point (T_submit on arrival), and the record, the
/// `invoke`/`queue_wait`/`exec` spans, the latency histogram and the
/// cost-model sample are all computed from those four readings. A call the
/// check refuses leaves no record.
fn run_call(ctx: &CallContext, call: &Submitted) -> Result<Vec<Value>, String> {
    let routine = call.routine.as_str();
    let exe = ctx
        .registry
        .lookup(routine)
        .ok_or_else(|| format!("unknown routine `{routine}`"))?;
    let args: Vec<&Value> = call.args.iter().map(|v| &**v).collect();
    let layout = validate_call_args(&exe.interface, &args)?;
    let request_bytes = request_payload_bytes(&layout);
    let reply_bytes = reply_payload_bytes(&layout);
    let n = args.first().and_then(|v| v.as_scalar_i64());

    let t_enqueue = Instant::now();
    // SJF's cost estimate (§5.2): the execution trace's power-law fit when
    // available, else the IDL-derived data volume as a first-call proxy.
    let estimated_cost = n
        .and_then(|n| ctx.cost.predict(routine, n))
        .unwrap_or((request_bytes + reply_bytes) as f64 * 1e-9);
    let width = exe.mode.pes_per_call(ctx.gate.pes());
    let guard = ctx.gate.acquire(JobInfo {
        arrival_seq: 0, // assigned by the gate
        estimated_cost,
        pes_required: width,
    });
    let t_dequeue = Instant::now();
    let result = ctx.kernels[&width].install(|| (exe.handler)(&args));
    let t_complete = Instant::now();
    drop(guard);

    let stats = &ctx.stats;
    let record = CallStat {
        routine: routine.to_owned(),
        n,
        request_bytes: request_bytes as u64,
        reply_bytes: reply_bytes as u64,
        t_submit: stats.secs(call.t_submit),
        t_enqueue: stats.secs(t_enqueue),
        t_dequeue: stats.secs(t_dequeue),
        t_complete: stats.secs(t_complete),
    };
    if let Some(n) = n {
        ctx.cost.record(routine, n, record.service());
    }
    ctx.metrics.latency.lock().record(record.total());
    let load = ctx.gate.load_report();
    ctx.metrics.running.set(load.running as f64);
    ctx.metrics.queued.set(load.queued as f64);

    // The caller's rpc span is the parent; this invoke gets its own span,
    // from T_submit, with queue_wait and exec nested inside it.
    if let Some(invoke) = call
        .trace
        .filter(|_| recorder::global().enabled())
        .map(|parent| parent.child())
    {
        let span = |pos: TraceContext, name: &str, from: Instant, to: Instant, detail| Span {
            trace_id: pos.trace_id,
            span_id: pos.span_id,
            parent_span_id: pos.parent_span_id,
            name: name.into(),
            process: "server".into(),
            start_us: stats.span_us(from),
            dur_us: stats.span_us(to) - stats.span_us(from),
            detail,
        };
        let rec = recorder::global();
        rec.record(span(
            invoke.child(),
            "queue_wait",
            t_enqueue,
            t_dequeue,
            String::new(),
        ));
        rec.record(span(
            invoke.child(),
            "exec",
            t_dequeue,
            t_complete,
            match n {
                Some(n) => format!("routine={routine} n={n}"),
                None => format!("routine={routine}"),
            },
        ));
        rec.record(span(
            invoke,
            "invoke",
            call.t_submit,
            t_complete,
            format!("routine={routine} ok={}", result.is_ok()),
        ));
    }
    stats.record(record);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::register_stdlib;
    use crate::uploads::MAX_INFLIGHT_UPLOADS;
    use ninf_protocol::{Transport, Value};
    use ninf_reactor::TcpTransport;

    fn start_test_server(mode: ExecMode) -> NinfServer {
        let mut registry = Registry::new();
        register_stdlib(&mut registry, matches!(mode, ExecMode::DataParallel));
        NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                policy: SchedPolicy::Fcfs,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    fn raw_call(addr: &str, routine: &str, args: Vec<Value>) -> Message {
        let mut t = TcpTransport::connect(addr).unwrap();
        t.send(&Message::QueryInterface {
            routine: routine.into(),
        })
        .unwrap();
        match t.recv().unwrap() {
            Message::InterfaceReply { .. } => {}
            other => return other,
        }
        t.send(&Message::Invoke {
            routine: routine.into(),
            args: Arg::inline(args),
            trace: None,
        })
        .unwrap();
        t.recv().unwrap()
    }

    #[test]
    fn serves_two_stage_call() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let n = 8usize;
        let (a, b) = ninf_exec::matgen(n);
        let reply = raw_call(
            &addr,
            "linpack",
            vec![
                Value::Int(n as i32),
                Value::DoubleArray(a.as_slice().to_vec()),
                Value::DoubleArray(b),
            ],
        );
        match reply {
            Message::ResultData { results } => {
                let Value::DoubleArray(x) = &results[0] else {
                    panic!()
                };
                for xi in x {
                    assert!((xi - 1.0).abs() < 1e-8);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().completed(), 1);
        let rec = &server.stats().snapshot()[0];
        assert_eq!(rec.routine, "linpack");
        assert_eq!(rec.n, Some(8));
        assert!(rec.t_complete >= rec.t_dequeue);
        server.shutdown();
    }

    #[test]
    fn unknown_routine_yields_error() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(&Message::QueryInterface {
            routine: "fft".into(),
        })
        .unwrap();
        match t.recv().unwrap() {
            Message::Error { reason } => assert!(reason.contains("unknown routine")),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn invalid_args_yield_error_not_crash() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let reply = raw_call(
            &addr,
            "linpack",
            vec![
                Value::Int(4),
                Value::DoubleArray(vec![0.0; 3]),
                Value::DoubleArray(vec![0.0; 4]),
            ],
        );
        assert!(matches!(reply, Message::Error { .. }));
        // Server still alive for the next call.
        let reply = raw_call(&addr, "ep", vec![Value::Int(8)]);
        assert!(matches!(reply, Message::ResultData { .. }));
        server.shutdown();
    }

    type Release = Arc<(parking_lot::Mutex<bool>, parking_lot::Condvar)>;

    /// A registry with one routine, `hold`, of width `mode`, that blocks
    /// until `release` opens and then echoes its argument.
    fn hold_registry(release: &Release, mode: ExecMode) -> Registry {
        let mut registry = Registry::new();
        let held = release.clone();
        registry
            .register(
                r#"Define hold(mode_in int n, mode_out int m[1])
                   "blocks until released, then echoes n",
                   Calls "C" hold(n, m);"#,
                Arc::new(move |args: &[&Value]| {
                    let (open, cv) = &*held;
                    let mut open = open.lock();
                    while !*open {
                        cv.wait(&mut open);
                    }
                    let n = args[0].as_scalar_i64().unwrap() as i32;
                    Ok(vec![Value::IntArray(vec![n])])
                }),
            )
            .unwrap()
            .mode = mode;
        registry
    }

    /// Running and queued calls come from the PE gate while calls block
    /// in it: three calls on two PEs are 2 running + 1 queued when each
    /// takes one PE, 1 + 2 when each takes them all.
    #[test]
    fn load_query_reports_pes() {
        for (mode, running, queued) in [
            (ExecMode::TaskParallel, 2, 1),
            (ExecMode::DataParallel, 1, 2),
        ] {
            let release = Release::default();
            let server = NinfServer::start(
                "127.0.0.1:0",
                hold_registry(&release, mode),
                ServerConfig {
                    pes: 2,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.addr().to_string();
            let load = || {
                let mut t = TcpTransport::connect(&addr).unwrap();
                t.send(&Message::QueryLoad).unwrap();
                match t.recv().unwrap() {
                    Message::LoadStatus(rep) => rep,
                    other => panic!("unexpected {other:?}"),
                }
            };
            let idle = load();
            assert_eq!((idle.pes, idle.running, idle.queued), (2, 0, 0));

            let calls: Vec<_> = (0..3)
                .map(|i| {
                    let addr = addr.clone();
                    std::thread::spawn(move || raw_call(&addr, "hold", vec![Value::Int(i)]))
                })
                .collect();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let busy = loop {
                let rep = load();
                if rep.running + rep.queued == 3 {
                    break rep;
                }
                assert!(std::time::Instant::now() < deadline, "{mode:?}: {rep:?}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            };
            assert_eq!((busy.running, busy.queued), (running, queued), "{mode:?}");
            assert_eq!(busy.load_average, 3.0);
            assert_eq!(server.load_report(), busy);

            *release.0.lock() = true;
            release.1.notify_all();
            for call in calls {
                assert!(matches!(call.join().unwrap(), Message::ResultData { .. }));
            }
            let done = load();
            assert_eq!((done.running, done.queued), (0, 0), "{mode:?}");
            assert_eq!(server.stats().completed(), 3);
            server.shutdown();
        }
    }

    /// A call's kernel runs on exactly the PEs its executable's width was
    /// granted: a handler reading rayon's thread count sees 1 on a 1-PE
    /// entry and 2 on an all-PE entry of a 2-PE server, whatever the
    /// host's core count (2 or more).
    #[test]
    fn a_kernel_runs_on_exactly_its_grant() {
        let mut registry = Registry::new();
        for (name, mode) in [
            ("task_width", ExecMode::TaskParallel),
            ("data_width", ExecMode::DataParallel),
        ] {
            let idl = format!(
                r#"Define {name}(mode_out int t[1])
                   "the kernel thread budget",
                   Calls "C" {name}(t);"#
            );
            let threads: crate::Handler = Arc::new(|_: &[&Value]| {
                Ok(vec![Value::IntArray(vec![
                    rayon::current_num_threads() as i32
                ])])
            });
            registry.register(&idl, threads).unwrap().mode = mode;
        }
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        for (name, grant) in [("task_width", 1), ("data_width", 2)] {
            match raw_call(&addr, name, vec![]) {
                Message::ResultData { results } => {
                    assert_eq!(results, vec![Value::IntArray(vec![grant])], "{name}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        server.shutdown();
    }

    /// `T_submit` is stamped when the reactor reads a call's frame, so a
    /// call waiting in the work queue for one of the eight workers is in
    /// the §4.1 record from then on: twelve calls on one PE are all held at
    /// once.
    #[test]
    fn a_call_waiting_for_a_worker_is_held_from_its_arrival() {
        let release = Release::default();
        let server = NinfServer::start(
            "127.0.0.1:0",
            hold_registry(&release, ExecMode::TaskParallel),
            ServerConfig {
                pes: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let calls: Vec<_> = (0..12)
            .map(|n| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(&addr).unwrap();
                    t.send(&Message::Invoke {
                        routine: "hold".into(),
                        args: Arg::inline(vec![Value::Int(n)]),
                        trace: None,
                    })
                    .unwrap();
                    t.recv().unwrap()
                })
            })
            .collect();
        // Every call is in the server: one runs, seven wait in the PE gate
        // and four wait for a worker.
        while server.metrics.inflight_calls.get() < 12.0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        *release.0.lock() = true;
        release.1.notify_all();
        for call in calls {
            assert!(matches!(call.join().unwrap(), Message::ResultData { .. }));
        }
        let records = server.stats().snapshot();
        assert_eq!(records.len(), 12);
        let last_in = records.iter().map(|r| r.t_submit).fold(f64::MIN, f64::max);
        let first_out = records
            .iter()
            .map(|r| r.t_complete)
            .fold(f64::MAX, f64::min);
        assert!(
            last_in < first_out,
            "a call entered the record after another left it: {records:?}"
        );
        server.shutdown();
    }

    /// A flood of two-phase submissions cannot spawn a thread per job:
    /// past [`crate::twophase::MAX_PENDING_JOBS`] still computing, a
    /// submission is refused before it gets a ticket, and the cap frees as
    /// jobs finish.
    #[test]
    fn submissions_past_the_pending_job_cap_are_refused() {
        use crate::twophase::MAX_PENDING_JOBS;
        let release = Release::default();
        let server = NinfServer::start(
            "127.0.0.1:0",
            hold_registry(&release, ExecMode::TaskParallel),
            ServerConfig {
                pes: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut t = TcpTransport::connect(&server.addr().to_string()).unwrap();
        let mut exchange = |msg: Message| {
            t.send(&msg).unwrap();
            t.recv().unwrap()
        };
        let submit = |n: i32| Message::SubmitJob {
            routine: "hold".into(),
            args: Arg::inline(vec![Value::Int(n)]),
            trace: None,
        };
        let tickets: Vec<u64> = (0..MAX_PENDING_JOBS as i32)
            .map(|n| match exchange(submit(n)) {
                Message::JobTicket { job } => job,
                other => panic!("submission {n} refused: {other:?}"),
            })
            .collect();
        match exchange(submit(-1)) {
            Message::Error { reason } => {
                assert!(reason.contains("too many pending jobs"), "{reason}")
            }
            other => panic!("submission past the cap got {other:?}"),
        }

        *release.0.lock() = true;
        release.1.notify_all();
        for (n, &job) in tickets.iter().enumerate() {
            server.jobs().wait_done(job);
            match exchange(Message::FetchResult { job, trace: None }) {
                Message::ResultData { results } => {
                    assert_eq!(results, vec![Value::IntArray(vec![n as i32])]);
                }
                other => panic!("fetch of job {job}: {other:?}"),
            }
        }
        assert!(matches!(exchange(submit(0)), Message::JobTicket { .. }));
        server.shutdown();
    }

    #[test]
    fn stats_query_returns_call_timelines_incrementally() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        for m in [8, 9] {
            let reply = raw_call(&addr, "ep", vec![Value::Int(m)]);
            assert!(matches!(reply, Message::ResultData { .. }));
        }
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(&Message::QueryStats { since: 0 }).unwrap();
        let (now, total, records) = match t.recv().unwrap() {
            Message::StatsReply {
                now,
                total,
                records,
            } => (now, total, records),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(total, 2);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.routine, "ep");
            assert!(r.t_submit <= r.t_enqueue);
            assert!(r.t_enqueue <= r.t_dequeue);
            assert!(r.t_dequeue <= r.t_complete);
            assert!(r.t_complete <= now);
            assert!(r.wait() >= 0.0 && r.response() >= 0.0);
        }
        // Incremental poll: everything before `since` is elided.
        t.send(&Message::QueryStats { since: 1 }).unwrap();
        match t.recv().unwrap() {
            Message::StatsReply { total, records, .. } => {
                assert_eq!(total, 2);
                assert_eq!(records.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A `since` past the end yields an empty, well-formed reply.
        t.send(&Message::QueryStats { since: 99 }).unwrap();
        match t.recv().unwrap() {
            Message::StatsReply { total, records, .. } => {
                assert_eq!(total, 2);
                assert!(records.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn metrics_query_serves_window_series_over_the_wire() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();

        // Disarmed: the reply is the typed "telemetry off" shape.
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(&Message::QueryMetrics { since: 0 }).unwrap();
        match t.recv().unwrap() {
            Message::MetricsReply {
                process,
                interval,
                total,
                frames,
                ..
            } => {
                assert_eq!(process, "server");
                assert_eq!(interval, 0.0);
                assert_eq!(total, 0);
                assert!(frames.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }

        // Armed: calls land in window deltas drained incrementally.
        let registry = server.metrics().registry().clone();
        registry.arm_windows(std::time::Duration::from_millis(100));
        let reply = raw_call(&addr, "ep", vec![Value::Int(8)]);
        assert!(matches!(reply, Message::ResultData { .. }));
        registry.capture_window();
        t.send(&Message::QueryMetrics { since: 0 }).unwrap();
        let frames = match t.recv().unwrap() {
            Message::MetricsReply {
                interval,
                total,
                dropped,
                frames,
                ..
            } => {
                assert!((interval - 0.1).abs() < 1e-9);
                assert_eq!(total, 1);
                assert_eq!(dropped, 0);
                frames
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(frames.len(), 1);
        let calls = frames[0]
            .samples
            .iter()
            .find(|s| s.name == "ninf_server_calls_total")
            .expect("calls counter sampled");
        assert_eq!(calls.count, 1);
        // Cursor advanced past the end: well-formed empty reply.
        t.send(&Message::QueryMetrics { since: 1 }).unwrap();
        match t.recv().unwrap() {
            Message::MetricsReply { total, frames, .. } => {
                assert_eq!(total, 1);
                assert!(frames.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_succeed() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for _ in 0..6 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let reply = raw_call(&addr, "ep", vec![Value::Int(10)]);
                assert!(matches!(reply, Message::ResultData { .. }));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().completed(), 6);
        server.shutdown();
    }

    #[test]
    fn data_parallel_mode_also_serves() {
        let server = start_test_server(ExecMode::DataParallel);
        let addr = server.addr().to_string();
        let reply = raw_call(&addr, "ep", vec![Value::Int(10)]);
        assert!(matches!(reply, Message::ResultData { .. }));
        server.shutdown();
    }

    #[test]
    fn reactor_core_exposes_connection_gauges() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let t = TcpTransport::connect(&addr).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.metrics().open_connections.get() < 1.0 {
            assert!(std::time::Instant::now() < deadline, "gauge never rose");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let text = server.metrics().registry().render_prometheus();
        assert!(text.contains("ninf_server_open_connections"), "{text}");
        assert!(text.contains("ninf_server_inflight_calls"), "{text}");
        drop(t);
        while server.metrics().open_connections.get() > 0.0 {
            assert!(std::time::Instant::now() < deadline, "gauge never fell");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        server.shutdown();
    }

    /// A server with one deliberately slow routine, for drain tests.
    fn start_slow_server(sleep_ms: u64) -> NinfServer {
        let mut registry = Registry::new();
        registry
            .register(
                r#"Define slow(mode_in int n, mode_out int m[1])
                   "sleeps, then echoes n",
                   Required "libslow.o"
                   Calls "C" slow(n, m);"#,
                Arc::new(move |args: &[&Value]| {
                    std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                    let n = args[0].as_scalar_i64().unwrap() as i32;
                    Ok(vec![Value::IntArray(vec![n])])
                }),
            )
            .unwrap();
        NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                policy: SchedPolicy::Fcfs,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    /// Spin until the server reports an executing call (bounded).
    fn await_busy(server: &NinfServer) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.busy_pes() == 0 {
            assert!(std::time::Instant::now() < deadline, "call never started");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn shutdown_drains_in_flight_call() {
        let server = start_slow_server(300);
        let addr = server.addr().to_string();
        let client = std::thread::spawn(move || raw_call(&addr, "slow", vec![Value::Int(7)]));
        await_busy(&server);
        // Drain must wait for the running call, then report a clean quiesce.
        assert!(server.shutdown_with_drain(std::time::Duration::from_secs(5)));
        match client.join().unwrap() {
            Message::ResultData { results } => {
                assert_eq!(results, vec![Value::IntArray(vec![7])]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shutdown_drain_window_reports_leftover_work() {
        let server = start_slow_server(800);
        let addr = server.addr().to_string();
        let client = std::thread::spawn(move || raw_call(&addr, "slow", vec![Value::Int(3)]));
        await_busy(&server);
        // A window shorter than the call: drain returns false, but the
        // reactor still serves the dispatched call out before it closes.
        assert!(!server.shutdown_with_drain(std::time::Duration::from_millis(50)));
        assert!(matches!(client.join().unwrap(), Message::ResultData { .. }));
    }

    #[test]
    fn arg_refs_resolve_from_the_store_and_misses_reply_need_arg() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let n = 16usize; // 8·16·16 = 2048-byte matrix: cacheable
        let (a, b) = ninf_exec::matgen(n);
        let matrix = Value::DoubleArray(a.as_slice().to_vec());
        let rhs = Value::DoubleArray(b.clone());
        let args = vec![Value::Int(n as i32), matrix.clone(), rhs.clone()];

        // Cold call ships everything inline; the matrix (≥ the cache
        // threshold) is captured, the 128-byte rhs is not.
        let reply = raw_call(&addr, "linpack", args);
        assert!(matches!(reply, Message::ResultData { .. }));
        assert_eq!(server.arg_store().len(), 1);
        let d = ninf_protocol::digest_value(&matrix);
        assert!(server.arg_store().contains(&d));

        // Warm call refs the matrix; the store resolves it.
        let mut t = TcpTransport::connect(&addr).unwrap();
        let warm = Message::Invoke {
            routine: "linpack".into(),
            args: vec![
                Arg::Data(Value::Int(n as i32)),
                Arg::Ref(d),
                Arg::Data(rhs.clone()),
            ],
            trace: None,
        };
        t.send(&warm).unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ResultData { .. }));
        let (hits, misses, _, bytes_saved) = server.metrics().argcache();
        assert_eq!((hits, misses), (1, 0));
        assert_eq!(bytes_saved, (8 * n * n) as u64);

        // Evict everything: the same ref must come back as NeedArg naming
        // the digest, with nothing executed.
        let completed_before = server.stats().completed();
        server.arg_store().clear();
        t.send(&warm).unwrap();
        match t.recv().unwrap() {
            Message::NeedArg { digests } => assert_eq!(digests, vec![d]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.stats().completed(), completed_before);
        let (_, misses, _, _) = server.metrics().argcache();
        assert_eq!(misses, 1);

        // The client's refill (all inline) then succeeds, exactly once.
        t.send(&Message::Invoke {
            routine: "linpack".into(),
            args: Arg::inline(vec![Value::Int(n as i32), matrix, rhs]),
            trace: None,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ResultData { .. }));
        assert_eq!(server.stats().completed(), completed_before + 1);
        server.shutdown();
    }

    #[test]
    fn zero_budget_server_always_replies_need_arg_to_refs() {
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                arg_cache_bytes: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let n = 16usize;
        let (a, b) = ninf_exec::matgen(n);
        let matrix = Value::DoubleArray(a.as_slice().to_vec());
        let reply = raw_call(
            &addr,
            "linpack",
            vec![Value::Int(n as i32), matrix.clone(), Value::DoubleArray(b)],
        );
        assert!(matches!(reply, Message::ResultData { .. }));
        assert!(
            server.arg_store().is_empty(),
            "nothing retained at budget 0"
        );
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(&Message::Invoke {
            routine: "linpack".into(),
            args: vec![Arg::Ref(ninf_protocol::digest_value(&matrix))],
            trace: None,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::NeedArg { .. }));
        server.shutdown();
    }

    #[test]
    fn chunked_upload_lands_in_the_store_and_refs_resolve() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let n = 16usize;
        let (a, b) = ninf_exec::matgen(n);
        let matrix = Value::DoubleArray(a.as_slice().to_vec());
        let image = ninf_protocol::value_image(&matrix);
        let digest = ninf_protocol::Digest::of(&image);

        // Fan the image in as 512-byte chunks; every chunk acks, and the
        // last one completes the upload into the arg store.
        let mut t = TcpTransport::connect(&addr).unwrap();
        let chunks = ninf_protocol::split_chunks(digest, &image, 512);
        assert!(chunks.len() > 2, "want a multi-chunk upload");
        for (i, c) in chunks.iter().enumerate() {
            t.send(c).unwrap();
            match t.recv().unwrap() {
                Message::ChunkOk { digest: d, seq } => {
                    assert_eq!((d, seq), (digest, i as u32));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(server.arg_store().contains(&digest));
        let (chunks_ok, rejects, uploads, bytes) = server.metrics().chunked();
        assert_eq!(chunks_ok, chunks.len() as u64);
        assert_eq!((rejects, uploads), (0, 1));
        assert_eq!(bytes, image.len() as u64);

        // Re-sending a chunk after completion is an idempotent re-ack
        // (the retransmit path after a lost ack), not an error.
        t.send(&chunks[0]).unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ChunkOk { seq: 0, .. }));

        // A call that refs the uploaded digest executes without NeedArg.
        t.send(&Message::Invoke {
            routine: "linpack".into(),
            args: vec![
                Arg::Data(Value::Int(n as i32)),
                Arg::Ref(digest),
                Arg::Data(Value::DoubleArray(b)),
            ],
            trace: None,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ResultData { .. }));
        server.shutdown();
    }

    #[test]
    fn corrupt_and_malformed_chunks_are_rejected_with_reasons() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let image = ninf_protocol::value_image(&Value::DoubleArray(vec![2.5; 256]));
        let digest = ninf_protocol::Digest::of(&image);
        let mut t = TcpTransport::connect(&addr).unwrap();

        // A corrupted payload bounces with a typed reason and lands nothing.
        let mut evil = image.to_vec();
        evil[7] ^= 0x40;
        let (good, bad) = (
            ninf_protocol::split_chunks(digest, &image, 512),
            ninf_protocol::split_chunks(digest, &evil, 512),
        );
        let Message::PutArgChunk { bytes, .. } = &bad[0] else {
            panic!("split must yield chunks")
        };
        let Message::PutArgChunk { crc, .. } = &good[0] else {
            panic!("split must yield chunks")
        };
        let lie = Message::PutArgChunk {
            digest,
            total_bytes: image.len() as u64,
            total: good.len() as u32,
            seq: 0,
            crc: *crc,
            bytes: bytes.clone(),
        };
        t.send(&lie).unwrap();
        match t.recv().unwrap() {
            Message::Error { reason } => assert!(reason.contains("CRC"), "{reason}"),
            other => panic!("unexpected {other:?}"),
        }

        // Impossible geometry never opens a reassembly.
        t.send(&Message::PutArgChunk {
            digest: ninf_protocol::Digest::of(b"other"),
            total_bytes: 0,
            total: 0,
            seq: 0,
            crc: 0,
            bytes: vec![],
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::Error { .. }));
        let (_, rejects, uploads, _) = server.metrics().chunked();
        assert_eq!((rejects, uploads), (2, 0));
        server.shutdown();
    }

    /// 64 one-chunk uploads each *claiming* the 256 MiB frame cap: every
    /// one is refused before a buffer is allocated (admitting them would
    /// pin 16 GiB and fill all 64 reassembly slots), so an honest upload
    /// right after still lands and resolves by `Arg::Ref`.
    #[test]
    fn lying_uploads_are_refused_by_the_byte_budget_and_wedge_nothing() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let mut t = TcpTransport::connect(&addr).unwrap();
        let claim = u64::from(ninf_protocol::MAX_FRAME_BYTES);
        let total = 16_384u32; // 16 KiB chunks: seq 0 is geometrically valid
        let bytes = vec![7u8; (claim / u64::from(total)) as usize];
        for liar in 0..MAX_INFLIGHT_UPLOADS {
            t.send(&Message::PutArgChunk {
                digest: Digest::of(format!("liar {liar}").as_bytes()),
                total_bytes: claim,
                total,
                seq: 0,
                crc: ninf_protocol::crc32c(&bytes),
                bytes: bytes.clone(),
            })
            .unwrap();
            match t.recv().unwrap() {
                Message::Error { reason } => assert!(reason.contains("budget"), "{reason}"),
                other => panic!("lying upload {liar} admitted: {other:?}"),
            }
        }
        let (_, rejects, _, _) = server.metrics().chunked();
        assert_eq!(rejects, MAX_INFLIGHT_UPLOADS as u64);

        // Honest uploads may together claim up to the budget, no further —
        // and the liars hold none of it.
        let n = 16usize;
        let (a, b) = ninf_exec::matgen(n);
        let image = ninf_protocol::value_image(&Value::DoubleArray(a.as_slice().to_vec()));
        let digest = Digest::of(&image);
        let chunks = ninf_protocol::split_chunks(digest, &image, 512);
        t.send(&chunks[0]).unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ChunkOk { .. }));
        let budget = server.arg_store().budget() as u64;
        for (claim, admitted) in [(budget, false), (budget - image.len() as u64, true)] {
            t.send(&Message::PutArgChunk {
                digest: Digest::of(b"big but honest"),
                total_bytes: claim,
                total: 1,
                seq: 1, // out of range: opens the reassembly, lands nothing
                crc: 0,
                bytes: vec![],
            })
            .unwrap();
            let Message::Error { reason } = t.recv().unwrap() else {
                panic!("out-of-range seq accepted")
            };
            assert_eq!(!reason.contains("budget"), admitted, "{reason}");
        }
        for c in &chunks[1..] {
            t.send(c).unwrap();
            assert!(matches!(t.recv().unwrap(), Message::ChunkOk { .. }));
        }
        t.send(&Message::Invoke {
            routine: "linpack".into(),
            args: vec![
                Arg::Data(Value::Int(n as i32)),
                Arg::Ref(digest),
                Arg::Data(Value::DoubleArray(b)),
            ],
            trace: None,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ResultData { .. }));
        server.shutdown();
    }

    /// Reply shaping on the reactor: the shaped reply is held for the
    /// link's propagation delay on a worker thread, and meanwhile a query
    /// on a second connection is served by another worker — it waits for
    /// its own reply's delay, not behind the first one.
    #[test]
    fn shaped_replies_honour_the_delay_without_starving_other_connections() {
        const DELAY: std::time::Duration = std::time::Duration::from_millis(30);
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                wan: Some(ninf_protocol::LinkShape::parse("delay=30ms").unwrap()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let start = std::time::Instant::now();
        assert!(matches!(
            raw_call(&addr, "ep", vec![Value::Int(8)]),
            Message::ResultData { .. }
        ));
        // Two shaped replies (interface, result): at least two delays.
        assert!(start.elapsed() >= 2 * DELAY, "{:?}", start.elapsed());

        // Eight connections' replies pace concurrently, each on its own
        // worker: all of them answer in about one delay, where a server
        // that serialized paced replies would need eight.
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut t = TcpTransport::connect(&addr).unwrap();
                    t.send(&Message::QueryLoad).unwrap();
                    assert!(matches!(t.recv().unwrap(), Message::LoadStatus(_)));
                });
            }
        });
        let took = start.elapsed();
        assert!(took >= DELAY, "queries skipped the link: {took:?}");
        assert!(
            took < 4 * DELAY,
            "queries queued behind each other: {took:?}"
        );
        server.shutdown();
    }

    /// A linpack `Invoke` naming by ref the matrix of an upload that is
    /// still open, as a call riding the upload's connection does when it
    /// overtakes the last chunk; with the upload's chunks, the first of
    /// them already landed over the returned connection.
    fn open_upload(addr: &str) -> (TcpTransport, Vec<Message>, Message) {
        let n = 16usize;
        let (a, b) = ninf_exec::matgen(n);
        let matrix = Value::DoubleArray(a.as_slice().to_vec());
        let image = ninf_protocol::value_image(&matrix);
        let digest = ninf_protocol::Digest::of(&image);
        let chunks = ninf_protocol::split_chunks(digest, &image, 1024);
        assert!(chunks.len() > 1);
        let mut t = TcpTransport::connect(addr).unwrap();
        t.send(&chunks[0]).unwrap();
        assert!(matches!(t.recv().unwrap(), Message::ChunkOk { seq: 0, .. }));
        let invoke = Message::Invoke {
            routine: "linpack".into(),
            args: vec![
                Arg::Data(Value::Int(n as i32)),
                Arg::Ref(digest),
                Arg::Data(Value::DoubleArray(b)),
            ],
            trace: None,
        };
        (t, chunks, invoke)
    }

    fn await_parked(server: &NinfServer, calls: u64) {
        let t0 = Instant::now();
        while server.metrics().parked() < calls {
            assert!(t0.elapsed() < PARK_TIMEOUT, "calls never parked");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_call_overtaking_its_upload_parks_and_runs_once_when_it_lands() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let (mut upload, chunks, invoke) = open_upload(&addr);
        let mut call = TcpTransport::connect(&addr).unwrap();
        call.send(&invoke).unwrap();
        await_parked(&server, 1);
        assert_eq!(
            server.stats().completed(),
            0,
            "nothing ran on half a matrix"
        );
        for c in &chunks[1..] {
            upload.send(c).unwrap();
            assert!(matches!(upload.recv().unwrap(), Message::ChunkOk { .. }));
        }
        assert!(matches!(call.recv().unwrap(), Message::ResultData { .. }));
        assert_eq!(server.stats().completed(), 1, "the parked call ran once");
        let (hits, misses, _, _) = server.metrics().argcache();
        assert_eq!((hits, misses), (1, 0), "its ref resolved after the wait");
        assert_eq!(server.metrics().parked(), 1);
        server.shutdown();
    }

    /// Parking never hangs and never holds the pool: calls parked on an
    /// upload nobody finishes answer `NeedArg` once `PARK_TIMEOUT` has
    /// passed, and past the cap — half the test server's 8 workers — a
    /// call misses at once.
    #[test]
    fn parked_calls_are_bounded_in_time_and_count() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let (_upload, _, invoke) = open_upload(&addr);
        let t0 = Instant::now();
        let parked: Vec<TcpTransport> = (0..4)
            .map(|_| {
                let mut t = TcpTransport::connect(&addr).unwrap();
                t.send(&invoke).unwrap();
                t
            })
            .collect();
        await_parked(&server, 4);
        let mut over = TcpTransport::connect(&addr).unwrap();
        let t_over = Instant::now();
        over.send(&invoke).unwrap();
        assert!(matches!(over.recv().unwrap(), Message::NeedArg { .. }));
        assert!(t_over.elapsed() < PARK_TIMEOUT / 3, "the fifth call parked");
        for mut t in parked {
            assert!(matches!(t.recv().unwrap(), Message::NeedArg { .. }));
        }
        let waited = t0.elapsed();
        assert!(
            waited >= PARK_TIMEOUT && waited < PARK_TIMEOUT * 2,
            "parked for {waited:?}"
        );
        assert_eq!(server.metrics().parked(), 4);
        assert_eq!(server.stats().completed(), 0);
        server.shutdown();
    }

    #[test]
    fn zero_budget_server_refuses_chunked_uploads() {
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: 2,
                arg_cache_bytes: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let image = ninf_protocol::value_image(&Value::DoubleArray(vec![1.0; 256]));
        let digest = ninf_protocol::Digest::of(&image);
        let mut t = TcpTransport::connect(&server.addr().to_string()).unwrap();
        t.send(&ninf_protocol::split_chunks(digest, &image, 512)[0])
            .unwrap();
        match t.recv().unwrap() {
            Message::Error { reason } => assert!(reason.contains("disabled"), "{reason}"),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn singular_matrix_reported_as_remote_error() {
        let server = start_test_server(ExecMode::TaskParallel);
        let addr = server.addr().to_string();
        let reply = raw_call(
            &addr,
            "linpack",
            vec![
                Value::Int(2),
                Value::DoubleArray(vec![1.0, 2.0, 2.0, 4.0]),
                Value::DoubleArray(vec![1.0, 1.0]),
            ],
        );
        match reply {
            Message::Error { reason } => assert!(reason.contains("singular")),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    /// An 8 MiB inline matrix crosses user space once: the reactor reads
    /// it straight into the connection's staging buffer, so at most the
    /// first read (which carries the frame's header) goes through the
    /// scratch buffer. Copying every byte through scratch moved this
    /// counter by the whole frame, ≈ 8.4 MB.
    #[test]
    fn an_inline_matrix_is_read_in_place_not_copied_through_scratch() {
        let server = start_test_server(ExecMode::TaskParallel);
        let registry = server.metrics().registry();
        let reads = registry.counter("ninf_reactor_reads_total", "");
        let copied = registry.counter("ninf_reactor_staged_copy_bytes_total", "");
        let n = 1024usize;
        let mut a = vec![0.0; n * n];
        for k in 0..n {
            a[k * n + k] = 1.0;
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let invoke = Message::Invoke {
            routine: "dgesl".into(),
            args: Arg::inline(vec![
                Value::Int(n as i32),
                Value::DoubleArray(a),
                Value::IntArray((0..n as i32).collect()),
                Value::DoubleArray(b.clone()),
            ]),
            trace: None,
        };
        let frame_bytes = ninf_protocol::encode_frame(0, &invoke).unwrap().len();
        let mut t = TcpTransport::connect(&server.addr().to_string()).unwrap();
        let (reads_before, copied_before) = (reads.get(), copied.get());
        t.send(&invoke).unwrap();
        match t.recv().unwrap() {
            Message::ResultData { results } => assert_eq!(results, vec![Value::DoubleArray(b)]),
            other => panic!("unexpected {other:?}"),
        }
        let copied = copied.get() - copied_before;
        println!(
            "{frame_bytes} B frame: {} socket reads, {copied} B copied through scratch",
            reads.get() - reads_before
        );
        assert!(
            copied <= ninf_reactor::conn::READ_CHUNK as u64,
            "{copied} B of a {frame_bytes} B frame went through the scratch buffer"
        );
        server.shutdown();
    }
}
