//! `NinfClient`: two-stage calls over any transport, with per-connection
//! interface caching and asynchronous variants.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ninf_idl::CompiledInterface;
use ninf_obs::recorder;
use ninf_protocol::{
    encode_call, validate_call_args, validate_results, CallArg, CallKind, Digest, Message,
    ProtocolError, ProtocolResult, Span, SplitMix64, TcpTransport, TraceContext, Transport, Value,
};
use ninf_reactor::MuxPool;

use crate::argmem;

/// Per-call reliability policy: how long one attempt may take and how
/// failed attempts are retried.
///
/// The deadline bounds *each* network operation (connect, read, write) of
/// one attempt, so a hung or silent server surfaces as
/// [`ProtocolError::Timeout`] instead of blocking forever. Retries happen
/// on a **fresh connection** (a timed-out connection is desynchronized — a
/// late reply may still arrive on it) with exponential backoff and
/// deterministic jitter. Retried invokes are at-least-once: a call whose
/// reply was lost may execute twice, which is safe for the pure numerical
/// routines Ninf serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOptions {
    /// Bound on each connect/read/write; `None` waits forever (the
    /// pre-deadline behavior).
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure. Remote application errors
    /// (unknown routine, singular matrix) are never retried.
    pub retries: u32,
    /// Base delay before the first retry; doubles per attempt, with jitter
    /// in [0.5, 1.0) of the exponential value.
    pub backoff: Duration,
    /// Whether to name repeat arguments by content digest instead of
    /// re-shipping their bytes (on by default). A destination that no longer
    /// holds a digest replies `NeedArg` and the call refills inline, so
    /// turning this off is purely a measurement/diagnostic switch.
    pub arg_cache: bool,
    /// Bulk upload switch: 0 = inline; any value ≥ 1 = one windowed lane.
    /// With a lane, arguments whose XDR image is at least
    /// [`ninf_protocol::CHUNK_THRESHOLD`] bytes are pre-shipped as chunks
    /// over one dedicated multiplexed connection, then named by content
    /// ref in the call itself. The lane keeps a sliding window of chunks
    /// in flight, sized from `wan` when it names the link
    /// ([`ninf_protocol::lane_window`]), so it fills a long-fat pipe on its
    /// own. Requires a dialed client (an address to upload to) and
    /// `arg_cache`; otherwise it is ignored.
    pub streams: u32,
    /// Chunk payload size for bulk upload, in bytes.
    pub chunk_bytes: u32,
    /// Emulated WAN shaping applied client-side to the call connection and
    /// the bulk lane: all of one destination's traffic contends for one
    /// [`ninf_protocol::SharedLink`] keyed by `(addr, shape)`. `None` (the
    /// default) sends at wire speed. Pair with `ninfd --wan` to shape the
    /// reply direction.
    pub wan: Option<ninf_protocol::LinkShape>,
    /// Per-chunk ack deadline for the bulk lane, driving loss recovery:
    /// a chunk whose ack misses it is sent again. `None`
    /// falls back to `deadline`, then to
    /// [`crate::bulk::DEFAULT_LANE_DEADLINE`]. On a lossy link this
    /// should be a small multiple of the per-chunk round trip — far
    /// shorter than the whole-call `deadline` — or every lost chunk
    /// holds its upload open for the full call budget.
    pub lane_deadline: Option<Duration>,
}

impl Default for CallOptions {
    fn default() -> Self {
        Self {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            arg_cache: true,
            streams: 0,
            chunk_bytes: ninf_protocol::DEFAULT_CHUNK_BYTES,
            wan: None,
            lane_deadline: None,
        }
    }
}

impl CallOptions {
    /// Options with just a per-operation deadline set.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Delay before retry number `attempt` (0-based): exponential backoff
    /// with deterministic jitter derived from `salt`, so concurrent
    /// retriers against one server de-synchronize without OS entropy.
    pub fn backoff_delay(&self, attempt: u32, salt: u64) -> Duration {
        let doubled = self.backoff.saturating_mul(1u32 << attempt.min(10));
        // The first draw of a stream keyed by (salt, attempt): jitter in [0.5, 1.0).
        let unit = SplitMix64::new(
            salt.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
        .next_f64();
        doubled.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Client-side decomposition of one `Ninf_call`, in seconds — the
/// measurement hook a load-generation harness reads instead of scraping
/// stdout. Segments that did not occur (interface cache hit, no dial) are
/// zero. `total` covers the whole call including retries and backoff sleeps,
/// so `total ≥ connect + interface + marshal + roundtrip`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTiming {
    /// Seconds spent dialing (or checking a stream out) inside the call:
    /// redials after a failed attempt, and the first dial of a [`Call`].
    pub connect: f64,
    /// Seconds fetching the compiled interface (stage 1); 0 on a cache hit.
    pub interface: f64,
    /// Seconds interpreting the IDL client-side: argument validation and
    /// layout computation before any payload byte is sent.
    pub marshal: f64,
    /// Seconds between sending `Invoke` and receiving the reply — wire
    /// transfer both ways plus server wall time (subtract the server-side
    /// [`ninf_protocol::CallStat::total`] to isolate transfer).
    pub roundtrip: f64,
    /// End-to-end wall seconds of the call, retries and backoff included.
    pub total: f64,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Request payload bytes (arrays only) actually shipped on the last
    /// attempt — refs subtract their value's bytes, a refill adds the full
    /// inline payload back.
    pub request_bytes: usize,
    /// Reply payload bytes of the last attempt (0 if it failed).
    pub reply_bytes: usize,
    /// Argument positions shipped as content refs on the last attempt.
    pub args_refd: u32,
    /// Arguments re-shipped inline after a server-side cache miss
    /// (`NeedArg`) on the last attempt.
    pub args_refilled: u32,
    /// Image bytes pre-shipped as chunks over the bulk lane on this call.
    /// Tracked separately from `request_bytes`, which counts only payload
    /// shipped inside the Invoke itself — a bulk-shipped value arrives by
    /// ref there.
    pub bulk_bytes: usize,
    /// Chunk retransmits during bulk transfer (lost chunks or acks).
    pub bulk_retransmits: u32,
}

/// FNV-1a of an address, used to salt backoff jitter per server.
fn addr_salt(addr: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in addr.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whether `key`'s destination is believed to hold `d`. If not, it is
/// remembered as held from now on: the value is about to ship inline, and
/// a stale belief surfaces as `NeedArg` (see
/// [`NinfClient::send_with_refill`]).
fn held(key: &str, d: &Digest) -> bool {
    if argmem::knows(key, d) {
        return true;
    }
    argmem::remember(key, *d);
    false
}

/// The inline refill's policy: everything ships inline, and the server's
/// store holds every value afterwards.
fn resent(key: &str, d: &Digest) -> bool {
    argmem::remember(key, *d);
    false
}

/// The call an `Invoke`/`SubmitJob` carries, apart from its arguments.
struct CallSpec<'a> {
    kind: CallKind,
    routine: &'a str,
    trace: Option<TraceContext>,
    /// Array bytes of the arguments, all inline.
    payload_bytes: usize,
}

/// A Ninf client.
///
/// The client keeps one ordered connection (as "standard TCP-based
/// RPC-protocols require clients and servers to stay connected", §5.1) and
/// caches compiled interfaces it has already fetched, so repeated calls to
/// the same routine skip stage 1.
pub struct NinfClient {
    /// The connection. `None` when nothing is dialed yet or an operation
    /// failed on it: a connection that failed is never reused (a timed-out
    /// one is desynchronized — its late reply would answer the next
    /// request), so the next attempt reaches `addr` anew.
    transport: Option<Box<dyn Transport>>,
    interfaces: HashMap<String, CompiledInterface>,
    /// Remembered dial address; attempts connect through it. `None` for
    /// clients wrapped around a caller-supplied transport.
    addr: Option<String>,
    /// Pool this client checks streams out of instead of dialing, so a
    /// retry transparently lands on a live (or freshly dialed) multiplexed
    /// stream. `None` for direct connections.
    pool: Option<Arc<MuxPool>>,
    /// Whether the most recent checkout reused an already-open stream.
    stream_reused: bool,
    options: CallOptions,
    /// Running totals of array payload bytes, for throughput accounting.
    bytes_sent: usize,
    bytes_received: usize,
    /// Segment accumulator for the call in progress.
    timing: CallTiming,
    /// Completed timing of the most recent `ninf_call`.
    last_timing: Option<CallTiming>,
    /// Trace position to parent new calls under (set by a routing layer);
    /// `None` starts fresh root traces.
    trace_parent: Option<TraceContext>,
    /// Process label stamped on spans this client records (`client` unless a
    /// routing layer relabels its forwarding legs).
    trace_process: String,
    /// Key into the process-wide per-destination argument-digest memory;
    /// `None` (transport-wrapping clients) ships everything inline.
    cache_key: Option<String>,
    /// Per argument position: whether the previous call shipped a
    /// cacheable value there inline — the guess that the next one misses
    /// too ([`CallArg::Fold`]). Only an ordering hint: a wrong guess costs
    /// one pass and never changes the bytes sent.
    shipped_inline: Vec<bool>,
    /// Context of the call in progress (`None` when tracing is off).
    call_ctx: Option<TraceContext>,
    /// Trace id of the most recent traced call (0 before any, or untraced).
    last_trace_id: u64,
}

impl NinfClient {
    /// Connect over TCP to a live server.
    pub fn connect(addr: &str) -> ProtocolResult<Self> {
        Self::connect_with(addr, CallOptions::default())
    }

    /// Connect with a reliability policy: the deadline bounds the connect
    /// itself and every subsequent operation, and the connect and the calls
    /// through this client retry per `options`.
    pub fn connect_with(addr: &str, options: CallOptions) -> ProtocolResult<Self> {
        Self::undialed(addr, options, None).dialed()
    }

    /// Connect through a shared [`MuxPool`]: the connection is *checked
    /// out* — an already-open multiplexed stream to `addr` is reused when
    /// one has admission capacity, and a new one is dialed only on a pool
    /// miss. Retries re-check-out, so after a stream failure the next
    /// attempt transparently lands on a fresh connection while calls on
    /// other streams never notice.
    pub fn connect_pooled(
        addr: &str,
        options: CallOptions,
        pool: Arc<MuxPool>,
    ) -> ProtocolResult<Self> {
        Self::undialed(addr, options, Some(pool)).dialed()
    }

    /// Wrap an arbitrary transport (e.g. an in-process channel in tests).
    /// Such a client has no address to reach again, so it keeps this
    /// transport through failures — what a late reply on it means is the
    /// supplier's business (a mux handle, for one, discards it by call id).
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        Self::new(Some(transport))
    }

    fn new(transport: Option<Box<dyn Transport>>) -> Self {
        Self {
            transport,
            interfaces: HashMap::new(),
            addr: None,
            pool: None,
            stream_reused: false,
            options: CallOptions::default(),
            bytes_sent: 0,
            bytes_received: 0,
            timing: CallTiming::default(),
            last_timing: None,
            trace_parent: None,
            trace_process: "client".to_string(),
            cache_key: None,
            shipped_inline: Vec::new(),
            call_ctx: None,
            last_trace_id: 0,
        }
    }

    /// A client for `addr` with nothing dialed yet: the first attempt of its
    /// first operation connects.
    fn undialed(addr: &str, options: CallOptions, pool: Option<Arc<MuxPool>>) -> Self {
        Self {
            addr: Some(addr.to_owned()),
            cache_key: Some(addr.to_owned()),
            options,
            pool,
            ..Self::new(None)
        }
    }

    /// The eager constructors' tail: an operation that only connects, run
    /// under the retry policy like any other.
    fn dialed(mut self) -> ProtocolResult<Self> {
        self.with_retries(|_| Ok(()))?;
        Ok(self)
    }

    /// Whether the most recent checkout of this pooled client reused an
    /// already-open multiplexed stream (always `false` for direct
    /// connections).
    pub fn stream_reused(&self) -> bool {
        self.stream_reused
    }

    /// Timing decomposition of the most recent [`NinfClient::ninf_call`]
    /// (successful or not); `None` before the first call.
    pub fn last_timing(&self) -> Option<CallTiming> {
        self.last_timing
    }

    /// The active reliability policy.
    pub fn options(&self) -> CallOptions {
        self.options
    }

    /// Parent the next calls' traces under `parent` (a routing layer passes
    /// its own span position here); `None` reverts to fresh root traces.
    pub fn set_trace_parent(&mut self, parent: Option<TraceContext>) {
        self.trace_parent = parent;
    }

    /// Relabel the logical process stamped on spans this client records.
    pub fn set_trace_process(&mut self, process: impl Into<String>) {
        self.trace_process = process.into();
    }

    /// Trace id of the most recent traced call; 0 when tracing was off.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Context for one new operation: a child of `parent` (or of the
    /// configured trace parent), or a fresh root. `None` (free of any
    /// id/clock work) when tracing is off.
    fn mint_ctx(&self, parent: Option<TraceContext>) -> Option<TraceContext> {
        if !recorder::global().enabled() {
            return None;
        }
        Some(match parent.or(self.trace_parent) {
            Some(parent) => parent.child(),
            None => TraceContext::root(),
        })
    }

    /// Key the per-destination argument-digest memory under `key`; `None`
    /// disables content refs for this client. Dialed and pooled clients
    /// default to their address, transport-wrapping clients to `None` —
    /// this setter exists for harnesses that wrap transports by hand.
    pub fn set_cache_key(&mut self, key: Option<String>) {
        self.cache_key = key;
    }

    /// The destination key content refs are remembered under, when this
    /// client names arguments by digest at all.
    fn ref_key(&self) -> Option<&str> {
        self.cache_key.as_deref().filter(|_| self.options.arg_cache)
    }

    /// Plan how each argument ships, naming values this destination is
    /// believed to hold by content ref. A cacheable position that went
    /// inline on the previous call is expected to miss again and is
    /// planned as [`CallArg::Fold`]: encoded inline with its digest folded
    /// into the same pass, and rolled back to a ref only if the guess was
    /// wrong. Every other cacheable position is digested first. The bytes
    /// sent are the same either way; the guess only saves a miss its
    /// separate digest pass.
    fn plan_args<'v>(&self, values: &'v [Value]) -> Vec<CallArg<'v>> {
        let Some(key) = self.ref_key() else {
            return values.iter().map(CallArg::Data).collect();
        };
        values
            .iter()
            .enumerate()
            .map(|(pos, v)| {
                if !ninf_protocol::cacheable(v) {
                    CallArg::Data(v)
                } else if self.shipped_inline.get(pos) == Some(&true) {
                    CallArg::Fold(v)
                } else {
                    let d = ninf_protocol::digest_value(v);
                    if held(key, &d) {
                        CallArg::Ref(d)
                    } else {
                        CallArg::Data(v)
                    }
                }
            })
            .collect()
    }

    /// Send one call straight from the caller's values and read its reply;
    /// `policy` decides each [`CallArg::Fold`] position once its digest is
    /// known. Accounts the bytes sent and notes which cacheable positions
    /// went inline, for the next call's plan; `args` is left holding what
    /// each position shipped as.
    fn exchange_call(
        &mut self,
        call: &CallSpec<'_>,
        values: &[Value],
        args: &mut [CallArg<'_>],
        policy: fn(&str, &Digest) -> bool,
    ) -> ProtocolResult<Message> {
        self.wire()?;
        // Field borrows, not `ref_key()`: the transport is borrowed mutably
        // beside the key.
        let key = self.cache_key.as_deref().filter(|_| self.options.arg_cache);
        let wire = self.transport.as_mut().ok_or(ProtocolError::Disconnected)?;
        let reply = wire
            .send_frame(&mut |ticket| {
                encode_call(ticket, call.kind, call.routine, args, call.trace, |d| {
                    key.is_some_and(|key| policy(key, d))
                })
            })
            .and_then(|()| wire.recv());
        if reply.is_err() {
            self.drop_transport();
        }
        let refd = |a: &CallArg<'_>| matches!(a, CallArg::Ref(_));
        let refs = args.iter().filter(|a| refd(a)).count();
        if refs > 0 {
            argmem::argref_sent().add(refs as u64);
        }
        self.shipped_inline = args
            .iter()
            .zip(values)
            .map(|(a, v)| !refd(a) && ninf_protocol::cacheable(v))
            .collect();
        let saved: usize = args
            .iter()
            .zip(values)
            .filter(|(a, _)| refd(a))
            .map(|(_, v)| v.wire_bytes())
            .sum();
        let shipped = call.payload_bytes - saved;
        self.bytes_sent += shipped;
        self.timing.request_bytes += shipped;
        reply
    }

    /// Whether calls on this client use the bulk upload path: the lane
    /// switched on, a dialed destination to upload to, and content refs on
    /// (a bulk upload is useless if the call cannot ref it afterwards).
    fn bulk_enabled(&self) -> bool {
        self.options.streams >= 1
            && self.options.arg_cache
            && self.addr.is_some()
            && self.cache_key.is_some()
    }

    /// The bulk path's one upload step: ship `image` as chunks over the
    /// lane unless the destination is believed to hold it already, then
    /// remember that it does and account the transfer. Returns whether the
    /// destination now holds `digest`.
    fn bulk_put(&mut self, digest: ninf_protocol::Digest, image: &[u8]) -> bool {
        let (Some(addr), Some(key)) = (self.addr.as_deref(), self.cache_key.as_deref()) else {
            return false;
        };
        if argmem::knows(key, &digest) {
            return true;
        }
        let Ok(report) = crate::bulk::upload(
            addr,
            digest,
            image,
            self.options.chunk_bytes,
            self.options.lane_deadline.or(self.options.deadline),
            self.options.wan,
        ) else {
            return false;
        };
        argmem::remember(key, digest);
        self.bytes_sent += report.bytes as usize;
        self.timing.bulk_bytes += report.bytes as usize;
        self.timing.bulk_retransmits += report.retransmits;
        true
    }

    /// Pre-ship large arguments this destination does not hold yet as
    /// chunks over the bulk lane, so the call refs them and the Invoke
    /// itself stays small. Each image comes out of the frame writer with
    /// its digest, in one pass. A failed upload is absorbed: the value simply
    /// ships inline with the call (at-most-one transfer of the bytes either
    /// way — the digest is only remembered on success). The fallback is
    /// not lane plumbing but the inline path every non-bulk call takes, and
    /// sometimes the only way the call can succeed: a server with its
    /// argument store disabled (`--arg-cache-bytes 0`), or a value larger
    /// than the store's budget, refuses the upload.
    fn bulk_preship(&mut self, values: &[Value]) {
        if !self.bulk_enabled() {
            return;
        }
        for v in values.iter().filter(|v| ninf_protocol::cacheable(v)) {
            let (image, digest) = ninf_protocol::digested_image(v);
            if image.len() >= ninf_protocol::CHUNK_THRESHOLD {
                self.bulk_put(digest, &image);
            }
        }
    }

    /// Refill the digests a `NeedArg` named over the bulk lane: values are
    /// matched by digest, and only the named ones are imaged. Returns
    /// `true` only if every named value landed (and was remembered), so
    /// the ref'd request can simply be replayed.
    fn bulk_refill(&mut self, values: &[Value], digests: &[Digest]) -> bool {
        if !self.bulk_enabled() {
            return false;
        }
        let named: Vec<(Digest, &Value)> = values
            .iter()
            .filter(|v| ninf_protocol::cacheable(v))
            .map(|v| (ninf_protocol::digest_value(v), v))
            .filter(|(d, _)| digests.contains(d))
            .collect();
        digests.iter().all(|wanted| {
            named
                .iter()
                .find(|(d, _)| d == wanted)
                .is_some_and(|(d, v)| {
                    let image = ninf_protocol::value_image(v);
                    self.bulk_put(*d, &image)
                })
        })
    }

    /// Ship one call whose arguments may be named by content ref, and
    /// absorb `NeedArg` rounds: the named digests are forgotten, then
    /// either re-shipped as chunk uploads (bulk clients — the
    /// ref'd request is replayed afterwards) or folded inline into a
    /// re-sent request. The server executes nothing before all refs
    /// resolve, so the refill round is the call's first (and only)
    /// execution — exactly-once is preserved. A `NeedArg` for an
    /// all-inline request is a protocol violation and surfaces to the
    /// caller as an unexpected message.
    fn send_with_refill(
        &mut self,
        call: &CallSpec<'_>,
        values: &[Value],
    ) -> ProtocolResult<Message> {
        self.timing.request_bytes = 0;
        self.timing.args_refilled = 0;
        let mut args = self.plan_args(values);
        let reply = self.exchange_call(call, values, &mut args, held);
        self.timing.args_refd = args.iter().filter(|a| matches!(a, CallArg::Ref(_))).count() as u32;
        let reply = reply?;
        let Message::NeedArg { digests } = reply else {
            return Ok(reply);
        };
        if let Some(key) = self.cache_key.as_deref() {
            argmem::forget(key, &digests);
        }
        argmem::argref_refilled().add(digests.len() as u64);
        self.timing.args_refilled = digests.len() as u32;
        if self.bulk_refill(values, &digests) {
            // The lane re-primed the server's store; replay the ref'd
            // request. A second NeedArg (the server evicted again already)
            // falls through to the inline path below.
            let mut args = self.plan_args(values);
            let reply = self.exchange_call(call, values, &mut args, held)?;
            let Message::NeedArg { digests } = reply else {
                return Ok(reply);
            };
            if let Some(key) = self.cache_key.as_deref() {
                argmem::forget(key, &digests);
            }
        }
        // Everything inline. The refill re-primes the server's store, so
        // each cacheable value is digested in the encode pass and
        // remembered, and the next call refs again.
        let mut args: Vec<CallArg<'_>> = values
            .iter()
            .map(|v| match self.ref_key() {
                Some(_) if ninf_protocol::cacheable(v) => CallArg::Fold(v),
                _ => CallArg::Data(v),
            })
            .collect();
        self.exchange_call(call, values, &mut args, resent)
    }

    /// Replace the reliability policy, re-arming the transport deadline.
    pub fn set_options(&mut self, options: CallOptions) -> ProtocolResult<()> {
        if let Some(transport) = &mut self.transport {
            transport.set_deadline(options.deadline)?;
        }
        self.options = options;
        Ok(())
    }

    /// Reach the remembered address — through the pool (a checkout; dead
    /// streams were evicted) for pooled clients, by dialing for direct
    /// ones — and shape the connection when the options ask for WAN
    /// emulation. Lane id 0 is the call connection; the bulk lane takes 1 on
    /// the same shared link, so control and bulk traffic contend for one
    /// emulated bottleneck. Fails for transport-wrapping clients, which
    /// have no address.
    fn dial(&mut self) -> ProtocolResult<()> {
        let addr = self.addr.as_deref().ok_or(ProtocolError::Disconnected)?;
        let deadline = self.options.deadline;
        let t0 = Instant::now();
        let start_us = self.call_ctx.map(|_| ninf_obs::now_us());
        let dialed: ProtocolResult<Box<dyn Transport>> = match &self.pool {
            Some(pool) => pool.checkout(addr, deadline).map(|co| {
                self.stream_reused = co.reused;
                Box::new(co.handle) as Box<dyn Transport>
            }),
            None => TcpTransport::connect_with_deadline(addr, deadline)
                .map(|t| Box::new(t) as Box<dyn Transport>),
        };
        self.timing.connect += t0.elapsed().as_secs_f64();
        if let (Some(ctx), Some(start)) = (self.call_ctx, start_us) {
            recorder::global().record(
                Span::at(ctx.child(), "connect", &self.trace_process, start)
                    .with_detail(format!("addr={addr}")),
            );
        }
        let mut transport = match self.options.wan {
            Some(shape) => Box::new(ninf_protocol::LinkTransport::new(
                dialed?,
                ninf_protocol::link_for(addr, shape),
                0,
            )),
            None => dialed?,
        };
        transport.set_deadline(deadline)?;
        self.transport = Some(transport);
        Ok(())
    }

    /// The live connection, dialed first if there is none.
    fn wire(&mut self) -> ProtocolResult<&mut Box<dyn Transport>> {
        if self.transport.is_none() {
            self.dial()?;
        }
        self.transport.as_mut().ok_or(ProtocolError::Disconnected)
    }

    /// Give up the connection after a failure on it, if there is an
    /// address to reach again (see [`NinfClient::from_transport`]).
    fn drop_transport(&mut self) {
        if self.addr.is_some() {
            self.transport = None;
        }
    }

    /// Send one request and read its reply. A transport that fails either
    /// half is dropped on the spot, whether or not anything retries.
    fn exchange(&mut self, msg: &Message) -> ProtocolResult<Message> {
        let wire = self.wire()?;
        let reply = wire.send(msg).and_then(|()| wire.recv());
        if reply.is_err() {
            self.drop_transport();
        }
        reply
    }

    /// The one reply match every operation shares: the server's `Error` is
    /// the application answering ([`ProtocolError::Remote`], stream still
    /// in step); any kind `pick` hands back is a protocol violation, after
    /// which nothing on the stream can be trusted.
    fn expect<T>(
        &mut self,
        reply: Message,
        expected: &'static str,
        pick: impl FnOnce(Message) -> Result<T, Message>,
    ) -> ProtocolResult<T> {
        match reply {
            Message::Error { reason } => Err(ProtocolError::Remote(reason)),
            other => pick(other).map_err(|got| {
                self.drop_transport();
                ProtocolError::UnexpectedMessage {
                    expected,
                    got: got.kind().to_owned(),
                }
            }),
        }
    }

    /// The retry loop — the only one. An attempt is "be connected, then run
    /// `op`": the dial (or pool checkout) happens inside the attempt, so a
    /// refused or timed-out dial is that attempt's failure and is retried
    /// like any other, and because a failed transport was dropped where it
    /// failed, a retry never runs on the connection its predecessor
    /// desynchronized. Without a remembered address the first error is
    /// final.
    fn with_retries<R>(
        &mut self,
        op: impl Fn(&mut Self) -> ProtocolResult<R>,
    ) -> ProtocolResult<R> {
        let mut attempt = 0u32;
        loop {
            self.timing.attempts += 1;
            match self.wire().map(|_| ()).and_then(|()| op(self)) {
                Err(e) if e.is_retryable() && attempt < self.options.retries => {
                    let Some(addr) = self.addr.as_deref() else {
                        return Err(e);
                    };
                    std::thread::sleep(self.options.backoff_delay(attempt, addr_salt(addr)));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Array payload bytes shipped to the server so far.
    pub fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    /// Array payload bytes received from the server so far.
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }

    /// Stage 1: fetch (or reuse) the compiled interface for `routine`.
    pub fn query_interface(&mut self, routine: &str) -> ProtocolResult<&CompiledInterface> {
        if !self.interfaces.contains_key(routine) {
            let t0 = Instant::now();
            let reply = self.exchange(&Message::QueryInterface {
                routine: routine.to_owned(),
            });
            self.timing.interface += t0.elapsed().as_secs_f64();
            let interface = self.expect(reply?, "InterfaceReply", |m| match m {
                Message::InterfaceReply { interface } => Ok(interface),
                other => Err(other),
            })?;
            self.interfaces.insert(routine.to_owned(), interface);
        }
        Ok(&self.interfaces[routine])
    }

    /// `Ninf_call`: the blocking two-stage remote call.
    ///
    /// `args` are the `mode_in`/`mode_inout` values in declaration order; the
    /// return is the `mode_out`/`mode_inout` values in declaration order.
    /// Argument shapes are validated *client-side* against the interpreted
    /// IDL before a single payload byte is sent.
    ///
    /// Honors the client's [`CallOptions`]: each attempt is
    /// deadline-bounded, and retryable failures redial with backoff (see
    /// [`NinfClient::connect_with`]).
    pub fn ninf_call(&mut self, routine: &str, args: &[Value]) -> ProtocolResult<Vec<Value>> {
        self.timing = CallTiming::default();
        self.call_ctx = self.mint_ctx(None);
        let start_us = self.call_ctx.map(|_| ninf_obs::now_us());
        let t0 = Instant::now();
        let out = self.with_retries(|c| c.ninf_call_once(routine, args));
        self.timing.total = t0.elapsed().as_secs_f64();
        self.last_timing = Some(self.timing);
        if let (Some(ctx), Some(start)) = (self.call_ctx, start_us) {
            self.last_trace_id = ctx.trace_id;
            recorder::global().record(
                Span::at(ctx, "call", &self.trace_process, start).with_detail(format!(
                    "routine={routine} attempts={} ok={}",
                    self.timing.attempts,
                    out.is_ok()
                )),
            );
        }
        out
    }

    /// One two-stage call attempt, no retries.
    fn ninf_call_once(&mut self, routine: &str, args: &[Value]) -> ProtocolResult<Vec<Value>> {
        let ctx = self.call_ctx;
        let cache_miss = !self.interfaces.contains_key(routine);
        let iface_start_us = (ctx.is_some() && cache_miss).then(ninf_obs::now_us);
        let interface = self.query_interface(routine)?.clone();
        if let (Some(ctx), Some(start)) = (ctx, iface_start_us) {
            recorder::global().record(
                Span::at(ctx.child(), "interface", &self.trace_process, start)
                    .with_detail(format!("routine={routine}")),
            );
        }
        let marshal_start_us = ctx.map(|_| ninf_obs::now_us());
        let t_marshal = Instant::now();
        let layout = validate_call_args(&interface, args).map_err(ProtocolError::Remote)?;
        self.timing.marshal += t_marshal.elapsed().as_secs_f64();
        if let (Some(ctx), Some(start)) = (ctx, marshal_start_us) {
            recorder::global().record(Span::at(ctx.child(), "marshal", &self.trace_process, start));
        }
        let payload_bytes = ninf_protocol::request_payload_bytes(&layout);
        self.timing.reply_bytes = 0;
        self.bulk_preship(args);

        // The rpc span's position travels on the wire, so the server parents
        // its own spans inside the client's send→receive interval.
        let rpc_ctx = ctx.map(|c| c.child());
        let rpc_start_us = rpc_ctx.map(|_| ninf_obs::now_us());
        let t_wire = Instant::now();
        let call = CallSpec {
            kind: CallKind::Invoke,
            routine,
            trace: rpc_ctx,
            payload_bytes,
        };
        let reply = self.send_with_refill(&call, args);
        self.timing.roundtrip += t_wire.elapsed().as_secs_f64();
        if let (Some(rpc), Some(start)) = (rpc_ctx, rpc_start_us) {
            recorder::global().record(
                Span::at(rpc, "rpc", &self.trace_process, start).with_detail(format!(
                    "request_bytes={} args_refd={} args_refilled={}",
                    self.timing.request_bytes, self.timing.args_refd, self.timing.args_refilled
                )),
            );
        }
        let results = self.expect(reply?, "ResultData", |m| match m {
            Message::ResultData { results } => Ok(results),
            other => Err(other),
        })?;
        validate_results(&interface, &layout, &results).map_err(ProtocolError::Remote)?;
        let reply_bytes = ninf_protocol::reply_payload_bytes(&layout);
        self.bytes_received += reply_bytes;
        self.timing.reply_bytes = reply_bytes;
        Ok(results)
    }

    /// Two-phase call, phase 1 (§5.1): validate and ship the arguments,
    /// receive a ticket, and return — the connection may then be dropped
    /// while the server computes. Resume from *any* connection with
    /// [`NinfClient::poll_job`] / [`NinfClient::fetch_result`].
    ///
    /// Honors the client's [`CallOptions`] like [`NinfClient::ninf_call`];
    /// a retried submission whose first ticket was lost in flight may leave
    /// an orphan job on the server whose result is simply never fetched.
    pub fn submit_job(&mut self, routine: &str, args: &[Value]) -> ProtocolResult<u64> {
        self.call_ctx = self.mint_ctx(None);
        let start_us = self.call_ctx.map(|_| ninf_obs::now_us());
        let out = self.with_retries(|c| c.submit_job_once(routine, args));
        if let (Some(ctx), Some(start)) = (self.call_ctx, start_us) {
            self.last_trace_id = ctx.trace_id;
            recorder::global().record(
                Span::at(ctx, "submit", &self.trace_process, start)
                    .with_detail(format!("routine={routine} ok={}", out.is_ok())),
            );
        }
        out
    }

    /// One submission attempt, no retries.
    fn submit_job_once(&mut self, routine: &str, args: &[Value]) -> ProtocolResult<u64> {
        let interface = self.query_interface(routine)?.clone();
        let layout = validate_call_args(&interface, args).map_err(ProtocolError::Remote)?;
        let payload_bytes = ninf_protocol::request_payload_bytes(&layout);
        self.bulk_preship(args);
        let call = CallSpec {
            kind: CallKind::SubmitJob,
            routine,
            trace: self.call_ctx,
            payload_bytes,
        };
        let reply = self.send_with_refill(&call, args)?;
        self.expect(reply, "JobTicket", |m| match m {
            Message::JobTicket { job } => Ok(job),
            other => Err(other),
        })
    }

    /// Poll a two-phase ticket.
    pub fn poll_job(&mut self, job: u64) -> ProtocolResult<ninf_protocol::JobPhase> {
        let reply = self.exchange(&Message::PollJob { job })?;
        self.expect(reply, "JobStatus", |m| match m {
            Message::JobStatus { job: j, state } if j == job => Ok(state),
            other => Err(other),
        })
    }

    /// Two-phase call, phase 2: collect the results of a finished ticket.
    ///
    /// The fetch carries a trace position like the submit did: it parents
    /// under the submit's context when one is live on this client (or under
    /// the configured trace parent), so a two-phase call renders as one
    /// connected tree instead of an orphaned server-side fetch span.
    pub fn fetch_result(&mut self, job: u64) -> ProtocolResult<Vec<Value>> {
        let ctx = self.mint_ctx(self.call_ctx);
        let start_us = ctx.map(|_| ninf_obs::now_us());
        let out = self
            .exchange(&Message::FetchResult { job, trace: ctx })
            .and_then(|reply| {
                self.expect(reply, "ResultData", |m| match m {
                    Message::ResultData { results } => Ok(results),
                    other => Err(other),
                })
            });
        if let (Some(ctx), Some(start)) = (ctx, start_us) {
            self.last_trace_id = ctx.trace_id;
            recorder::global().record(
                Span::at(ctx, "fetch", &self.trace_process, start)
                    .with_detail(format!("job={job} ok={}", out.is_ok())),
            );
        }
        out
    }

    /// List the routines the server exports, with their documentation.
    pub fn list_routines(&mut self) -> ProtocolResult<Vec<(String, String)>> {
        let reply = self.exchange(&Message::ListRoutines)?;
        self.expect(reply, "RoutineList", |m| match m {
            Message::RoutineList { routines } => Ok(routines),
            other => Err(other),
        })
    }

    /// Query the server's completed-call records (§4.1 timelines) from
    /// record index `since`. Returns `(server clock now, total records,
    /// records[since..])` — the server-side half a measurement harness joins
    /// with its own [`CallTiming`] observations.
    pub fn query_stats(
        &mut self,
        since: u64,
    ) -> ProtocolResult<(f64, u64, Vec<ninf_protocol::CallStat>)> {
        let reply = self.exchange(&Message::QueryStats { since })?;
        self.expect(reply, "StatsReply", |m| match m {
            Message::StatsReply {
                now,
                total,
                records,
            } => Ok((now, total, records)),
            other => Err(other),
        })
    }

    /// Query the server's metric window series from global window index
    /// `since`: `(process label, snapshot)`. The snapshot's `interval` is 0
    /// when the remote registry has windows disarmed; its `now` is the
    /// remote window clock, which together with this call's local
    /// send/receive timestamps yields the clock-skew offset a sweep
    /// timeline needs.
    pub fn query_metrics(
        &mut self,
        since: u64,
    ) -> ProtocolResult<(String, ninf_protocol::WindowsSnapshot)> {
        let reply = self.exchange(&Message::QueryMetrics { since })?;
        self.expect(reply, "MetricsReply", |m| match m {
            Message::MetricsReply {
                process,
                now,
                interval,
                total,
                dropped,
                frames,
            } => Ok((
                process,
                ninf_protocol::WindowsSnapshot {
                    now,
                    interval,
                    total,
                    dropped,
                    frames,
                },
            )),
            other => Err(other),
        })
    }

    /// Fetch the remote process's flight recorder: `(process label, spans
    /// dropped by its ring, retained spans)`. `trace_id` 0 fetches every
    /// retained span.
    pub fn query_trace(&mut self, trace_id: u64) -> ProtocolResult<(String, u64, Vec<Span>)> {
        let reply = self.exchange(&Message::QueryTrace { trace_id })?;
        self.expect(reply, "TraceReply", |m| match m {
            Message::TraceReply {
                process,
                dropped,
                spans,
            } => Ok((process, dropped, spans)),
            other => Err(other),
        })
    }

    /// `Ninf_query` (§2.2): ask a numerical database server for a dataset
    /// (see `ninf_db::query` for the language). Returns `(description,
    /// values)`; a query the server cannot answer is
    /// [`ProtocolError::Remote`]. Honors the client's [`CallOptions`] like
    /// [`NinfClient::ninf_call`].
    pub fn ninf_query(&mut self, query: &str) -> ProtocolResult<(String, Vec<Value>)> {
        self.with_retries(|c| {
            let reply = c.exchange(&Message::DbQuery {
                query: query.to_owned(),
            })?;
            c.expect(reply, "DbReply", |m| match m {
                Message::DbReply {
                    description,
                    values,
                } => Ok((description, values)),
                other => Err(other),
            })
        })
    }

    /// Query the server's load (what the metaserver's monitor does).
    pub fn query_load(&mut self) -> ProtocolResult<ninf_protocol::LoadReport> {
        let reply = self.exchange(&Message::QueryLoad)?;
        self.expect(reply, "LoadStatus", |m| match m {
            Message::LoadStatus(r) => Ok(r),
            other => Err(other),
        })
    }
}

/// Failure of a locally-executed transaction.
#[derive(Debug)]
pub enum LocalTxError {
    /// Call at this index reads a slot no earlier call wrote.
    UnwrittenSlot(usize),
    /// A call failed remotely.
    Call {
        /// Index of the failing call in the transaction.
        call: usize,
        /// The underlying RPC error.
        error: ProtocolError,
    },
}

impl std::fmt::Display for LocalTxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalTxError::UnwrittenSlot(i) => {
                write!(f, "transaction call #{i} reads an unwritten slot")
            }
            LocalTxError::Call { call, error } => write!(f, "transaction call #{call}: {error}"),
        }
    }
}

impl std::error::Error for LocalTxError {}

/// An in-flight asynchronous call (`Ninf_call_async`, §2.2).
pub struct AsyncCall {
    handle: JoinHandle<ProtocolResult<Vec<Value>>>,
}

impl AsyncCall {
    /// Block until the call completes (`Ninf_wait` in the original API).
    pub fn wait(self) -> ProtocolResult<Vec<Value>> {
        self.handle
            .join()
            .unwrap_or_else(|_| Err(ProtocolError::Remote("async call thread panicked".into())))
    }

    /// Whether the call has already finished.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// One one-shot `Ninf_call` as a value: the destination, the routine and its
/// arguments, and everything that varies about *how* it is made. Fill in
/// what differs from [`Call::new`] struct-update style, then either
/// [`Call::run`] it or [`Call::spawn`] it (`Ninf_call_async`).
///
/// Every attempt — the first included — connects inside
/// [`NinfClient`]'s retry loop, so a server that is not up yet is retried
/// under `options` exactly like one that hung mid-call.
#[derive(Clone)]
pub struct Call {
    /// Server address (`host:port`).
    pub addr: String,
    /// Routine name.
    pub routine: String,
    /// The `mode_in`/`mode_inout` values in declaration order.
    pub args: Vec<Value>,
    /// Deadline, retries, backoff and transfer policy.
    pub options: CallOptions,
    /// Check a multiplexed stream out of this pool for each attempt instead
    /// of dialing, so concurrent calls to one server share connections; a
    /// stream failure fails exactly the calls in flight on it, and their
    /// retries land on a live or freshly dialed stream.
    pub pool: Option<Arc<MuxPool>>,
    /// Parent the call's spans here (how a routing layer keeps its
    /// forwarded leg inside the caller's trace); `None` roots a fresh trace.
    pub trace_parent: Option<TraceContext>,
    /// Process label on the call's spans.
    pub process: String,
}

impl Call {
    /// A direct, untraced-parent call under [`CallOptions::default`].
    pub fn new(addr: impl Into<String>, routine: impl Into<String>, args: Vec<Value>) -> Self {
        Self {
            addr: addr.into(),
            routine: routine.into(),
            args,
            options: CallOptions::default(),
            pool: None,
            trace_parent: None,
            process: "client".to_string(),
        }
    }

    /// A client for this call's destination, nothing dialed yet.
    fn client(&self) -> NinfClient {
        let mut client = NinfClient::undialed(&self.addr, self.options, self.pool.clone());
        client.trace_parent = self.trace_parent;
        client.trace_process.clone_from(&self.process);
        client
    }

    /// Make the call on the current thread.
    pub fn run(self) -> ProtocolResult<Vec<Value>> {
        self.client().ninf_call(&self.routine, &self.args)
    }

    /// Make the call in two phases over *separate connections* (§5.1):
    /// submit on one, disconnect, then poll and fetch on a fresh connection
    /// every `poll_interval`, so connections never pin server slots while
    /// the server computes. The submit, every poll and the fetch run under
    /// `options` (a silent server yields a typed
    /// [`ProtocolError::Timeout`], not a hang) and through `pool` when one
    /// is given.
    pub fn two_phase(self, poll_interval: Duration) -> ProtocolResult<Vec<Value>> {
        // The submitter is dropped at once: a direct connection closes while
        // the server computes (a pooled stream goes back to its pool).
        let job = self.client().submit_job(&self.routine, &self.args)?;
        loop {
            let mut poller = self.client();
            match poller.poll_job(job)? {
                ninf_protocol::JobPhase::Pending => std::thread::sleep(poll_interval),
                ninf_protocol::JobPhase::Done | ninf_protocol::JobPhase::Failed => {
                    return poller.fetch_result(job);
                }
                ninf_protocol::JobPhase::Unknown => {
                    return Err(ProtocolError::Remote(format!("job {job} vanished")));
                }
            }
        }
    }

    /// Make the call on a thread of its own; the deadline and retries apply
    /// inside it, so [`AsyncCall::wait`] returns a typed
    /// [`ProtocolError::Timeout`] instead of blocking on a silent server.
    pub fn spawn(self) -> AsyncCall {
        AsyncCall {
            handle: std::thread::spawn(move || self.run()),
        }
    }
}

/// Split a Ninf URL into `(server address, routine name)`.
///
/// Accepted forms (paper §2.2 allows
/// `Ninf_call("http://.../dmmul", ...)`-style naming):
/// `ninf://host:port/routine`, `http://host:port/path/routine`, or the bare
/// `host:port/routine`.
pub fn parse_ninf_url(url: &str) -> ProtocolResult<(String, String)> {
    let rest = url
        .strip_prefix("ninf://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    let (addr, path) = rest
        .split_once('/')
        .ok_or_else(|| ProtocolError::Remote(format!("URL `{url}` has no routine path")))?;
    let routine = path.rsplit('/').next().unwrap_or(path);
    if addr.is_empty() || routine.is_empty() {
        return Err(ProtocolError::Remote(format!("malformed Ninf URL `{url}`")));
    }
    Ok((addr.to_owned(), routine.to_owned()))
}

/// One-shot URL-form `Ninf_call`: connect to the host in the URL, call the
/// routine named by its final path segment.
pub fn ninf_call_url(url: &str, args: &[Value]) -> ProtocolResult<Vec<Value>> {
    let (addr, routine) = parse_ninf_url(url)?;
    Call::new(addr, routine, args.to_vec()).run()
}

/// `Ninf_call_async`: run one call on its own connection and thread.
///
/// Each async call opens a fresh connection so multiple outstanding calls
/// do not serialize on one socket.
pub fn call_async(addr: String, routine: String, args: Vec<Value>) -> AsyncCall {
    Call::new(addr, routine, args).spawn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::Arg;

    type SentLog = Arc<std::sync::Mutex<Vec<Message>>>;

    /// A scripted transport for unit-testing the client state machine
    /// without a server; what the client sent (each frame decoded) is
    /// readable from outside.
    struct Scripted {
        replies: std::vec::IntoIter<Message>,
        sent: SentLog,
    }

    impl Scripted {
        fn new(replies: Vec<Message>) -> Self {
            Self {
                replies: replies.into_iter(),
                sent: SentLog::default(),
            }
        }

        fn logged(replies: Vec<Message>) -> (Self, SentLog) {
            let t = Self::new(replies);
            let sent = t.sent.clone();
            (t, sent)
        }
    }

    impl Transport for Scripted {
        fn send_raw(&mut self, mut frame: &[u8]) -> ProtocolResult<()> {
            let msg = ninf_protocol::read_frame(&mut frame)?;
            self.sent.lock().unwrap().push(msg);
            Ok(())
        }
        fn recv(&mut self) -> ProtocolResult<Message> {
            self.replies.next().ok_or(ProtocolError::Disconnected)
        }
    }

    fn dmmul_iface() -> CompiledInterface {
        ninf_idl::stdlib_interfaces().remove(0)
    }

    #[test]
    fn two_stage_call_sequence() {
        let n = 2usize;
        let reply_c = Value::DoubleArray(vec![5.0; n * n]);
        let t = Scripted::new(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            Message::ResultData {
                results: vec![reply_c.clone()],
            },
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let out = client
            .ninf_call(
                "dmmul",
                &[
                    Value::Int(n as i32),
                    Value::DoubleArray(vec![1.0; n * n]),
                    Value::DoubleArray(vec![2.0; n * n]),
                ],
            )
            .unwrap();
        assert_eq!(out, vec![reply_c]);
        assert_eq!(client.bytes_sent(), 2 * 8 * n * n);
        assert_eq!(client.bytes_received(), 8 * n * n);
    }

    #[test]
    fn interface_is_cached_after_first_call() {
        let n = 1usize;
        let t = Scripted::new(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            Message::ResultData {
                results: vec![Value::DoubleArray(vec![0.0])],
            },
            // NOTE: no second InterfaceReply — the cache must serve stage 1.
            Message::ResultData {
                results: vec![Value::DoubleArray(vec![0.0])],
            },
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(vec![1.0]),
            Value::DoubleArray(vec![2.0]),
        ];
        client.ninf_call("dmmul", &args).unwrap();
        client.ninf_call("dmmul", &args).unwrap();
    }

    #[test]
    fn client_rejects_malformed_args_before_sending() {
        let t = Scripted::new(vec![Message::InterfaceReply {
            interface: dmmul_iface(),
        }]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let err = client
            .ninf_call(
                "dmmul",
                &[
                    Value::Int(3),
                    Value::DoubleArray(vec![1.0; 9]),
                    Value::DoubleArray(vec![2.0; 8]), // wrong extent
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Remote(_)));
    }

    #[test]
    fn client_rejects_malformed_results() {
        let n = 2usize;
        let t = Scripted::new(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            Message::ResultData {
                results: vec![Value::DoubleArray(vec![0.0; 3])],
            }, // wrong size
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let err = client
            .ninf_call(
                "dmmul",
                &[
                    Value::Int(n as i32),
                    Value::DoubleArray(vec![1.0; 4]),
                    Value::DoubleArray(vec![2.0; 4]),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Remote(_)));
    }

    #[test]
    fn remote_error_is_propagated() {
        let t = Scripted::new(vec![Message::Error {
            reason: "unknown routine `fft`".into(),
        }]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let err = client.ninf_call("fft", &[]).unwrap_err();
        match err {
            ProtocolError::Remote(r) => assert!(r.contains("fft")),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn ninf_urls_parse() {
        assert_eq!(
            parse_ninf_url("ninf://etl.go.jp:5656/dmmul").unwrap(),
            ("etl.go.jp:5656".into(), "dmmul".into())
        );
        assert_eq!(
            parse_ninf_url("http://phase.etl.go.jp:80/ninf/lib/dmmul").unwrap(),
            ("phase.etl.go.jp:80".into(), "dmmul".into())
        );
        assert_eq!(
            parse_ninf_url("127.0.0.1:9000/linpack").unwrap(),
            ("127.0.0.1:9000".into(), "linpack".into())
        );
        assert!(parse_ninf_url("no-path").is_err());
        assert!(parse_ninf_url("ninf:///dmmul").is_err());
        assert!(parse_ninf_url("host:1/").is_err());
    }

    #[test]
    fn unexpected_message_is_protocol_violation() {
        let t = Scripted::new(vec![Message::QueryLoad]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let err = client.query_interface("dmmul").unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedMessage { .. }));
    }

    #[test]
    fn call_timing_is_recorded_per_call() {
        let n = 2usize;
        let t = Scripted::new(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            Message::ResultData {
                results: vec![Value::DoubleArray(vec![5.0; n * n])],
            },
            Message::ResultData {
                results: vec![Value::DoubleArray(vec![5.0; n * n])],
            },
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        assert_eq!(client.last_timing(), None);
        let args = vec![
            Value::Int(n as i32),
            Value::DoubleArray(vec![1.0; n * n]),
            Value::DoubleArray(vec![2.0; n * n]),
        ];
        client.ninf_call("dmmul", &args).unwrap();
        let first = client.last_timing().unwrap();
        assert_eq!(first.attempts, 1);
        assert_eq!(first.request_bytes, 2 * 8 * n * n);
        assert_eq!(first.reply_bytes, 8 * n * n);
        assert!(first.total >= first.roundtrip);
        assert!(first.connect == 0.0); // no redial on a wrapped transport
        assert!(first.marshal >= 0.0 && first.interface >= 0.0);

        // Second call hits the interface cache: the stage-1 segment is zero,
        // and the timing is a fresh record, not an accumulation.
        client.ninf_call("dmmul", &args).unwrap();
        let second = client.last_timing().unwrap();
        assert_eq!(second.attempts, 1);
        assert_eq!(second.interface, 0.0);
    }

    #[test]
    fn failed_call_still_records_timing() {
        let t = Scripted::new(vec![Message::Error {
            reason: "unknown routine `fft`".into(),
        }]);
        let mut client = NinfClient::from_transport(Box::new(t));
        assert!(client.ninf_call("fft", &[]).is_err());
        let timing = client.last_timing().unwrap();
        assert_eq!(timing.attempts, 1);
        assert_eq!(timing.reply_bytes, 0);
        assert!(timing.total >= 0.0);
    }

    #[test]
    fn query_stats_parses_reply() {
        use ninf_protocol::CallStat;
        let rec = CallStat {
            routine: "ep".into(),
            n: Some(20),
            request_bytes: 0,
            reply_bytes: 16,
            t_submit: 0.5,
            t_enqueue: 0.5,
            t_dequeue: 0.6,
            t_complete: 0.9,
        };
        let t = Scripted::new(vec![Message::StatsReply {
            now: 1.25,
            total: 3,
            records: vec![rec.clone()],
        }]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let (now, total, records) = client.query_stats(2).unwrap();
        assert_eq!(now, 1.25);
        assert_eq!(total, 3);
        assert_eq!(records, vec![rec]);
    }

    #[test]
    fn query_metrics_parses_reply() {
        use ninf_protocol::{MetricFrame, MetricKind, MetricSample};
        let frame = MetricFrame {
            window: 4,
            t: 1.0,
            samples: vec![MetricSample {
                name: "ninf_server_calls_total".into(),
                kind: MetricKind::Counter,
                value: 2.0,
                count: 2,
            }],
        };
        let t = Scripted::new(vec![Message::MetricsReply {
            process: "server".into(),
            now: 1.25,
            interval: 0.25,
            total: 5,
            dropped: 1,
            frames: vec![frame.clone()],
        }]);
        let mut client = NinfClient::from_transport(Box::new(t));
        let (process, snap) = client.query_metrics(4).unwrap();
        assert_eq!(process, "server");
        assert_eq!(snap.now, 1.25);
        assert_eq!(snap.interval, 0.25);
        assert_eq!(snap.total, 5);
        assert_eq!(snap.dropped, 1);
        assert_eq!(snap.frames, vec![frame]);
    }

    #[test]
    fn default_options_preserve_legacy_behavior() {
        let opts = CallOptions::default();
        assert_eq!(opts.deadline, None);
        assert_eq!(opts.retries, 0);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let opts = CallOptions {
            backoff: Duration::from_millis(100),
            ..CallOptions::default()
        };
        for attempt in 0..4u32 {
            let d = opts.backoff_delay(attempt, 99);
            let nominal = Duration::from_millis(100 * (1 << attempt));
            assert!(
                d >= nominal / 2,
                "attempt {attempt}: {d:?} < half of {nominal:?}"
            );
            assert!(d <= nominal, "attempt {attempt}: {d:?} > {nominal:?}");
        }
        // Deterministic: same (attempt, salt) always yields the same delay.
        assert_eq!(opts.backoff_delay(1, 7), opts.backoff_delay(1, 7));
        // Different salts de-synchronize concurrent retriers.
        assert_ne!(opts.backoff_delay(1, 7), opts.backoff_delay(1, 8));
    }

    #[test]
    fn backoff_jitter_known_answers() {
        // Every seeded run's retry schedule depends on these values.
        let opts = CallOptions {
            backoff: Duration::from_millis(100),
            ..CallOptions::default()
        };
        for (attempt, salt, nanos) in [
            (0u32, 0u64, 94_165_540u64),
            (1, 7, 101_678_829),
            (3, 0xdead_beef, 581_877_481),
            (10, u64::MAX, 51_939_222_981),
            (u32::MAX, 1, 90_397_035_249),
        ] {
            assert_eq!(
                opts.backoff_delay(attempt, salt),
                Duration::from_nanos(nanos),
                "attempt {attempt}, salt {salt:#x}"
            );
        }
    }

    #[test]
    fn backoff_exponent_saturates_instead_of_overflowing() {
        let opts = CallOptions {
            backoff: Duration::from_secs(10),
            ..CallOptions::default()
        };
        let _ = opts.backoff_delay(u32::MAX, 1); // must not panic
    }

    #[test]
    fn transport_wrapped_client_fails_fast_without_reconnect() {
        // No dial address: a retryable error must surface immediately even
        // with retries configured, rather than spinning on a dead transport.
        let t = Scripted::new(vec![]); // recv -> Disconnected
        let mut client = NinfClient::from_transport(Box::new(t));
        client
            .set_options(CallOptions {
                retries: 3,
                ..CallOptions::default()
            })
            .unwrap();
        let start = std::time::Instant::now();
        let err = client.ninf_call("ep", &[]).unwrap_err();
        assert!(matches!(err, ProtocolError::Disconnected));
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    /// dmmul arguments big enough to clear the cacheable threshold
    /// (8·16·16 = 2048 bytes per matrix).
    fn big_dmmul_args(n: usize) -> Vec<Value> {
        vec![
            Value::Int(n as i32),
            Value::DoubleArray(vec![1.0; n * n]),
            Value::DoubleArray(vec![2.0; n * n]),
        ]
    }

    fn dmmul_reply(n: usize) -> Message {
        Message::ResultData {
            results: vec![Value::DoubleArray(vec![5.0; n * n])],
        }
    }

    fn invoke_args(msg: &Message) -> &[Arg] {
        match msg {
            Message::Invoke { args, .. } => args,
            other => panic!("expected Invoke, got {other:?}"),
        }
    }

    #[test]
    fn warm_repeat_ships_refs_instead_of_payload() {
        let key = "argcache-unit-warm";
        crate::argmem::forget_destination(key);
        let n = 16usize;
        let (t, sent) = Scripted::logged(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            dmmul_reply(n),
            dmmul_reply(n),
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        client.set_cache_key(Some(key.to_owned()));
        let args = big_dmmul_args(n);

        client.ninf_call("dmmul", &args).unwrap();
        let cold = client.last_timing().unwrap();
        assert_eq!(cold.args_refd, 0);
        assert_eq!(cold.request_bytes, 2 * 8 * n * n);

        client.ninf_call("dmmul", &args).unwrap();
        let warm = client.last_timing().unwrap();
        assert_eq!(warm.args_refd, 2);
        assert_eq!(warm.args_refilled, 0);
        assert_eq!(warm.request_bytes, 0, "both matrices refd: zero payload");
        assert_eq!(client.bytes_sent(), 2 * 8 * n * n);

        let log = sent.lock().unwrap();
        let warm_args = invoke_args(&log[2]);
        assert!(matches!(warm_args[0], Arg::Data(Value::Int(_))));
        assert!(matches!(warm_args[1], Arg::Ref(_)));
        assert!(matches!(warm_args[2], Arg::Ref(_)));
    }

    #[test]
    fn need_arg_reply_triggers_one_inline_refill() {
        let key = "argcache-unit-refill";
        crate::argmem::forget_destination(key);
        let n = 16usize;
        let args = big_dmmul_args(n);
        let d1 = ninf_protocol::digest_value(&args[1]);
        let d2 = ninf_protocol::digest_value(&args[2]);
        crate::argmem::remember(key, d1);
        crate::argmem::remember(key, d2);
        let (t, sent) = Scripted::logged(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            // Server evicted d2 between the client's ref decision and the
            // invoke: it asks for a refill without executing.
            Message::NeedArg { digests: vec![d2] },
            dmmul_reply(n),
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        client.set_cache_key(Some(key.to_owned()));
        client.ninf_call("dmmul", &args).unwrap();

        let timing = client.last_timing().unwrap();
        assert_eq!(timing.attempts, 1, "a refill is not a retry");
        assert_eq!(timing.args_refd, 2);
        assert_eq!(timing.args_refilled, 1);
        // Refd request shipped nothing; the refill shipped the full payload.
        assert_eq!(timing.request_bytes, 2 * 8 * n * n);

        let log = sent.lock().unwrap();
        let first = invoke_args(&log[1]);
        assert!(matches!(first[1], Arg::Ref(_)));
        let refill = invoke_args(&log[2]);
        assert!(refill.iter().all(|a| matches!(a, Arg::Data(_))));
        drop(log);
        // The refill re-primed the destination: both digests are known again.
        assert!(crate::argmem::knows(key, &d1));
        assert!(crate::argmem::knows(key, &d2));
    }

    #[test]
    fn arg_cache_off_always_ships_inline() {
        let key = "argcache-unit-off";
        crate::argmem::forget_destination(key);
        let n = 16usize;
        let (t, sent) = Scripted::logged(vec![
            Message::InterfaceReply {
                interface: dmmul_iface(),
            },
            dmmul_reply(n),
            dmmul_reply(n),
        ]);
        let mut client = NinfClient::from_transport(Box::new(t));
        client.set_cache_key(Some(key.to_owned()));
        client
            .set_options(CallOptions {
                arg_cache: false,
                ..CallOptions::default()
            })
            .unwrap();
        let args = big_dmmul_args(n);
        client.ninf_call("dmmul", &args).unwrap();
        client.ninf_call("dmmul", &args).unwrap();
        assert_eq!(client.last_timing().unwrap().args_refd, 0);
        assert_eq!(client.bytes_sent(), 2 * 2 * 8 * n * n);
        let log = sent.lock().unwrap();
        for msg in log.iter().skip(1) {
            assert!(invoke_args(msg).iter().all(|a| matches!(a, Arg::Data(_))));
        }
    }

    #[test]
    fn remote_errors_are_not_retryable() {
        assert!(!ProtocolError::Remote("singular".into()).is_retryable());
        assert!(ProtocolError::Disconnected.is_retryable());
        assert!(ProtocolError::Timeout {
            operation: "read",
            after: Duration::from_secs(1)
        }
        .is_retryable());
    }
}
