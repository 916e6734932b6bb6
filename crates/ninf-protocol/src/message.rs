//! Protocol messages and their XDR codecs.
//!
//! The codecs are *generated*: every struct and enum that crosses the wire
//! declares its layout once through `codec::impl_wire!`, and the
//! `Message` enum's whole encode/decode surface comes from one tag table
//! fed to `impl_message_codec!` at the bottom of this file. The payload
//! byte layout is unchanged from protocol v1 — only the frame header grew
//! a checksum word in v2.

use std::ops::Range;

use ninf_idl::CompiledInterface;
use ninf_obs::{MetricFrame, MetricKind, MetricSample, Span, TraceContext};
use ninf_xdr::{ByteCount, XdrDecoder, XdrEncoder, XdrSink};

use crate::codec::{impl_message_codec, impl_wire, Wire};
use crate::digest::Digest;
use crate::error::{ProtocolError, ProtocolResult};
use crate::value::Value;

/// A server load report (consumed by the metaserver, which "keeps track of
/// server load/availability, network bandwidth, etc.", paper §1).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Number of processing elements.
    pub pes: u32,
    /// Jobs currently running.
    pub running: u32,
    /// Jobs queued but not yet started.
    pub queued: u32,
    /// One-minute load average.
    pub load_average: f64,
    /// CPU utilization percent over the report window.
    pub cpu_utilization: f64,
}

impl_wire!(struct LoadReport {
    pes,
    running,
    queued,
    load_average,
    cpu_utilization,
});

/// One completed call as reported by the server's statistics sink, carrying
/// the §4.1 timestamp vocabulary (`T_submit`, `T_enqueue`, `T_dequeue`,
/// `T_complete`) over the wire so a measurement harness can join the
/// server-side view with its own client-side records.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStat {
    /// Routine name.
    pub routine: String,
    /// First scalar input (matrix order `n` / EP exponent `m`), when any.
    pub n: Option<i64>,
    /// Request payload bytes (arrays only).
    pub request_bytes: u64,
    /// Reply payload bytes.
    pub reply_bytes: u64,
    /// Seconds since server start at submission.
    pub t_submit: f64,
    /// Seconds since server start at acceptance.
    pub t_enqueue: f64,
    /// Seconds since server start at executable invocation.
    pub t_dequeue: f64,
    /// Seconds since server start at completion.
    pub t_complete: f64,
}

impl_wire!(struct CallStat {
    routine,
    n,
    request_bytes,
    reply_bytes,
    t_submit,
    t_enqueue,
    t_dequeue,
    t_complete,
});

impl CallStat {
    /// `T_response = T_enqueue − T_submit`.
    pub fn response(&self) -> f64 {
        self.t_enqueue - self.t_submit
    }

    /// `T_wait = T_dequeue − T_enqueue`.
    pub fn wait(&self) -> f64 {
        self.t_dequeue - self.t_enqueue
    }

    /// Pure service time (execution).
    pub fn service(&self) -> f64 {
        self.t_complete - self.t_dequeue
    }

    /// End-to-end server-side time.
    pub fn total(&self) -> f64 {
        self.t_complete - self.t_submit
    }
}

impl_wire!(struct TraceContext {
    trace_id,
    span_id,
    parent_span_id,
});

impl_wire!(struct Span {
    trace_id,
    span_id,
    parent_span_id,
    name,
    process,
    start_us,
    dur_us,
    detail,
});

impl_wire!(struct Digest { hi, lo });

impl_wire!(unit_enum MetricKind {
    Counter = 0,
    Gauge = 1,
    Histogram = 2,
});

impl_wire!(struct MetricSample {
    name,
    kind,
    value,
    count,
});

impl_wire!(struct MetricFrame {
    window,
    t,
    samples,
});

/// One argument position of an [`Message::Invoke`]/[`Message::SubmitJob`]:
/// either the marshalled value inline, or a content digest naming a value
/// the server's arg store is expected to hold.
///
/// On the wire an inline arg is byte-identical to a bare [`Value`] — the
/// `Data` case delegates to the `Value` codec, whose tags occupy 0–7 — so
/// an all-inline call encodes exactly as it did before refs existed
/// (flag-day compatibility: old captures decode, old golden bytes hold).
/// `Ref` takes the next tag up.
///
/// This is the owned form a decode yields. A client sends the borrowed
/// form, [`CallArg`], and both write a position through the same two
/// codecs: the [`Value`]'s and the ref writer.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// The marshalled value, shipped inline.
    Data(Value),
    /// Content digest of a value the server should already hold; a miss
    /// comes back as [`Message::NeedArg`] without executing the call.
    Ref(Digest),
}

/// `Arg::Ref`'s wire tag: one past the last `Value` tag (`VTAG_DOUBLE_ARR`).
const VTAG_ARG_REF: u32 = 8;

impl Arg {
    /// Wrap owned values as all-inline args (the pre-cache wire form).
    pub fn inline(values: Vec<Value>) -> Vec<Arg> {
        values.into_iter().map(Arg::Data).collect()
    }

    /// The inline value, if this arg carries one.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Arg::Data(v) => Some(v),
            Arg::Ref(_) => None,
        }
    }

    /// Unwrap an all-inline arg list back to values; `None` if any position
    /// is a ref.
    pub fn into_values(args: Vec<Arg>) -> Option<Vec<Value>> {
        args.into_iter()
            .map(|a| match a {
                Arg::Data(v) => Some(v),
                Arg::Ref(_) => None,
            })
            .collect()
    }
}

/// Write one argument position as a content ref.
pub(crate) fn put_ref<S: XdrSink>(enc: &mut XdrEncoder<S>, d: &Digest) {
    enc.put_u32(VTAG_ARG_REF);
    d.put(enc);
}

impl Wire for Arg {
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        match self {
            // A bare Value image: its own tag word (0–7) then the body.
            Arg::Data(v) => v.put(enc),
            Arg::Ref(d) => put_ref(enc, d),
        }
    }
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        let tag = dec.get_u32()?;
        if tag == VTAG_ARG_REF {
            return Ok(Arg::Ref(Digest::get(dec)?));
        }
        match Value::wire_get_variant(tag, dec)? {
            Some(v) => Ok(Arg::Data(v)),
            None => Err(ProtocolError::Frame(format!("unknown Arg tag {tag}"))),
        }
    }
}

/// One argument position of a call as a client sends it, borrowing the
/// caller's value: no position is cloned into the message, and
/// [`crate::frame::encode_call`] writes the frame straight from these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CallArg<'a> {
    /// Ship the value inline.
    Data(&'a Value),
    /// Name a value the destination holds by its digest.
    Ref(Digest),
    /// Ship the value inline and digest it in the same pass; if the
    /// destination turns out to hold that digest, the position is rolled
    /// back and written as a `Ref` instead. The bytes sent are what
    /// digesting first and then choosing would have sent.
    Fold(&'a Value),
}

impl CallArg<'_> {
    /// Write this position as planned (a `Fold` as inline data).
    pub(crate) fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        match self {
            CallArg::Data(v) | CallArg::Fold(v) => v.put(enc),
            CallArg::Ref(d) => put_ref(enc, d),
        }
    }
}

/// Which of the two call messages a borrowed call encodes as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// [`Message::Invoke`].
    Invoke,
    /// [`Message::SubmitJob`].
    SubmitJob,
}

impl CallKind {
    /// The message tag.
    pub(crate) fn tag(self) -> u32 {
        match self {
            CallKind::Invoke => TAG_INVOKE,
            CallKind::SubmitJob => TAG_SUBMIT_JOB,
        }
    }
}

/// The one writer of a call body (after its tag): routine, argument count,
/// the positions `put_args` writes, trace. The owned [`Message::Invoke`] /
/// [`Message::SubmitJob`] and a client's borrowed call both encode through
/// it, and the decode table reads the fields in this order.
pub(crate) fn put_call<S: XdrSink>(
    enc: &mut XdrEncoder<S>,
    routine: &str,
    argc: usize,
    trace: &Option<TraceContext>,
    put_args: impl FnOnce(&mut XdrEncoder<S>),
) {
    enc.put_string(routine);
    enc.put_u32(argc as u32);
    put_args(enc);
    trace.put(enc);
}

/// Where each cacheable inline argument of a call payload sits:
/// `(position, byte range of its tagged image)` for every `Arg::Data` that
/// [`crate::digest::cacheable`] accepts, in payload order. It reads the
/// header words alone — the message tag, the routine's length and XDR
/// pad, the argument count, each argument's tag and element count — and
/// skips every body unread. A payload that is not a call yields nothing;
/// one whose words run out or go wrong yields the ranges found before
/// that point (its decode fails afterwards). Nothing is allocated for a
/// claimed count: every range found is at least
/// [`ARG_CACHE_MIN_BYTES`](crate::digest::ARG_CACHE_MIN_BYTES) of real
/// payload.
pub(crate) fn cacheable_arg_ranges(payload: &[u8]) -> Vec<(usize, Range<usize>)> {
    let mut found = Vec::new();
    // An error only ends the walk; `Message::decode` reports it.
    let _ = locate_cacheable_args(payload, &mut found);
    found
}

fn locate_cacheable_args(
    payload: &[u8],
    found: &mut Vec<(usize, Range<usize>)>,
) -> ninf_xdr::XdrResult<()> {
    let mut dec = XdrDecoder::new(payload);
    if !matches!(dec.get_u32()?, TAG_INVOKE | TAG_SUBMIT_JOB) {
        return Ok(());
    }
    dec.get_opaque()?; // the routine, with its pad
    let argc = dec.get_u32()?;
    // Each position consumes at least its tag word, so the walk ends
    // with the payload whatever `argc` claims.
    for pos in 0..argc as usize {
        let start = dec.position();
        let (width, array) = match dec.get_u32()? {
            VTAG_INT | VTAG_FLOAT => (4, false),
            VTAG_LONG | VTAG_DOUBLE => (8, false),
            VTAG_INT_ARR | VTAG_FLOAT_ARR => (4, true),
            VTAG_LONG_ARR | VTAG_DOUBLE_ARR => (8, true),
            VTAG_ARG_REF => (16, false),
            _ => return Ok(()),
        };
        let body = if array {
            match (dec.get_u32()? as usize).checked_mul(width) {
                Some(body) => body,
                None => return Ok(()),
            }
        } else {
            width
        };
        dec.get_opaque_fixed(body)?;
        if array && body >= crate::digest::ARG_CACHE_MIN_BYTES {
            found.push((pos, start..dec.position()));
        }
    }
    Ok(())
}

impl Wire for CompiledInterface {
    fn put<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        self.encode_xdr(enc);
    }
    fn get(dec: &mut XdrDecoder<'_>) -> ProtocolResult<Self> {
        Ok(CompiledInterface::decode_xdr(dec)?)
    }
}

/// All Ninf RPC messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Stage 1 request: which routine does the client want?
    QueryInterface {
        /// Registered routine name (possibly a `ninf://host/name` URL path
        /// tail — resolution happens client-side).
        routine: String,
    },
    /// Stage 1 reply: the compiled IDL the client will interpret.
    InterfaceReply {
        /// Compiled interface bytecode.
        interface: CompiledInterface,
    },
    /// Stage 2 request: marshalled input arguments, in declaration order,
    /// only `mode_in`/`mode_inout` parameters.
    Invoke {
        /// Routine to run (repeated for sanity checking).
        routine: String,
        /// Input arguments. Scalars first bind dimension variables; array
        /// extents must match the IDL layout. Each position ships either
        /// inline ([`Arg::Data`]) or as a content digest ([`Arg::Ref`])
        /// the server resolves from its arg store.
        args: Vec<Arg>,
        /// Caller's trace position; the server parents its spans under it.
        trace: Option<TraceContext>,
    },
    /// Stage 2 reply: `mode_out`/`mode_inout` values in declaration order.
    ResultData {
        /// Output values.
        results: Vec<Value>,
    },
    /// Any failure: unknown routine, argument mismatch, numerical error.
    Error {
        /// Human-readable reason, carried back to the caller.
        reason: String,
    },
    /// Metaserver monitoring probe.
    QueryLoad,
    /// Reply to [`Message::QueryLoad`].
    LoadStatus(LoadReport),
    /// Two-phase call, phase 1 (§5.1): ship the arguments, get a ticket,
    /// and *disconnect* while the server computes.
    SubmitJob {
        /// Routine to run.
        routine: String,
        /// Input arguments, as in [`Message::Invoke`].
        args: Vec<Arg>,
        /// Caller's trace position; the server parents its spans under it.
        trace: Option<TraceContext>,
    },
    /// Reply to [`Message::SubmitJob`].
    JobTicket {
        /// Server-assigned job id, valid across connections.
        job: u64,
    },
    /// Ask whether a submitted job has finished.
    PollJob {
        /// The ticket.
        job: u64,
    },
    /// Reply to [`Message::PollJob`].
    JobStatus {
        /// The ticket.
        job: u64,
        /// Current phase.
        state: JobPhase,
    },
    /// Two-phase call, phase 2: collect the results (server forgets the job).
    FetchResult {
        /// The ticket.
        job: u64,
        /// Caller's trace position, so the fetch leg parents into the same
        /// trace tree as the submit that minted the ticket.
        trace: Option<TraceContext>,
    },
    /// Ask the server which routines it exports (the paper's "server
    /// registry tools" surface).
    ListRoutines,
    /// Reply to [`Message::ListRoutines`]: names and one-line docs.
    RoutineList {
        /// `(name, doc)` pairs in sorted order.
        routines: Vec<(String, String)>,
    },
    /// `Ninf_query` (§2.2): a textual query against a Ninf *database*
    /// server ("Ninf computational and database servers", §2).
    DbQuery {
        /// Query text, e.g. `GET hilbert8`, `LIST const/`, `INFO pi`.
        query: String,
    },
    /// Reply to [`Message::DbQuery`].
    DbReply {
        /// Human-readable description of the result (shape, units, source).
        description: String,
        /// The numerical payload.
        values: Vec<Value>,
    },
    /// Ask the server for its completed-call records (§4.1 timelines),
    /// starting at record index `since` — so a harness can poll
    /// incrementally without re-shipping history.
    QueryStats {
        /// Index of the first record wanted (0 = from the beginning).
        since: u64,
    },
    /// Reply to [`Message::QueryStats`].
    StatsReply {
        /// Server clock (seconds since server start) when the reply was
        /// built; lets the consumer align epochs.
        now: f64,
        /// Total records the server holds (records[0..total]).
        total: u64,
        /// The records from `since` onward.
        records: Vec<CallStat>,
    },
    /// Ask a process for the contents of its flight recorder.
    QueryTrace {
        /// Trace to fetch, or 0 for every retained span.
        trace_id: u64,
    },
    /// Reply to [`Message::QueryTrace`].
    TraceReply {
        /// Logical process label of the responder (`server`, `metaserver`).
        process: String,
        /// Spans evicted from the ring to stay within capacity.
        dropped: u64,
        /// Retained spans matching the query.
        spans: Vec<Span>,
    },
    /// Typed miss reply to an [`Message::Invoke`]/[`Message::SubmitJob`]
    /// whose [`Arg::Ref`]s name digests the server's arg store no longer
    /// holds. The call was **not** executed; the client re-sends with those
    /// positions inline (exactly-once is preserved because nothing ran).
    NeedArg {
        /// Every referenced digest the store is missing.
        digests: Vec<Digest>,
    },
    /// Ask a process for its metric window series (time-resolved telemetry),
    /// starting at global window index `since` — the windowed analogue of
    /// [`Message::QueryStats`], polled incrementally by a sweep controller.
    QueryMetrics {
        /// Index of the first window wanted (0 = everything retained).
        since: u64,
    },
    /// Reply to [`Message::QueryMetrics`].
    MetricsReply {
        /// Logical process label of the responder (`server`, `metaserver`).
        process: String,
        /// Window clock (seconds since windows were armed) when the reply
        /// was built; paired with the poller's send/receive timestamps this
        /// yields the clock-skew offset for timeline alignment.
        now: f64,
        /// Configured window interval in seconds; 0 means windows are
        /// disarmed and the reply is necessarily empty.
        interval: f64,
        /// Windows ever closed on the responder.
        total: u64,
        /// Windows evicted from the ring (frames cover
        /// `max(since, dropped) .. total`).
        dropped: u64,
        /// Retained frames from the cursor onward, oldest first.
        frames: Vec<MetricFrame>,
    },
    /// One chunk of a windowed bulk upload (WAN path): a slice of
    /// a large value's tagged XDR image, addressed by the *whole value's*
    /// content digest so reassembly lands directly in the arg store and a
    /// later [`Message::Invoke`] references it as [`Arg::Ref`]. Chunks
    /// travel through one mux stream's window, and a redial's resends
    /// through a fresh one; each carries its own CRC so a corrupt
    /// chunk is rejected individually instead of poisoning the upload.
    PutArgChunk {
        /// Digest of the complete value image (the arg-store key).
        digest: Digest,
        /// Total image length in bytes — every chunk repeats it so any
        /// one chunk pins the geometry the rest must agree with.
        total_bytes: u64,
        /// Total number of chunks in the upload.
        total: u32,
        /// This chunk's 0-based sequence number.
        seq: u32,
        /// CRC-32C of this chunk's `bytes`.
        crc: u32,
        /// The image slice: bytes `[seq·ceil(total_bytes/total), …)`.
        bytes: Vec<u8>,
    },
    /// Per-chunk ack for [`Message::PutArgChunk`]. The final chunk's ack
    /// is sent only after the full image reassembled, verified against
    /// `digest`, and landed in the arg store.
    ChunkOk {
        /// Upload being acked.
        digest: Digest,
        /// Chunk being acked.
        seq: u32,
    },
}

/// Lifecycle state of a two-phase job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Queued or executing.
    Pending,
    /// Finished; results await a [`Message::FetchResult`].
    Done,
    /// Failed; the error awaits a fetch.
    Failed,
    /// No such ticket (never issued, or already fetched).
    Unknown,
}

impl_wire!(unit_enum JobPhase {
    Pending = 0,
    Done = 1,
    Failed = 2,
    Unknown = 3,
});

const VTAG_INT: u32 = 0;
const VTAG_LONG: u32 = 1;
const VTAG_FLOAT: u32 = 2;
const VTAG_DOUBLE: u32 = 3;
const VTAG_INT_ARR: u32 = 4;
const VTAG_LONG_ARR: u32 = 5;
const VTAG_FLOAT_ARR: u32 = 6;
const VTAG_DOUBLE_ARR: u32 = 7;

/// The tag word a [`Value`]'s tagged image starts with — what
/// [`crate::digest::digest_value`] folds first without encoding the value.
pub(crate) fn value_tag(v: &Value) -> u32 {
    match v {
        Value::Int(_) => VTAG_INT,
        Value::Long(_) => VTAG_LONG,
        Value::Float(_) => VTAG_FLOAT,
        Value::Double(_) => VTAG_DOUBLE,
        Value::IntArray(_) => VTAG_INT_ARR,
        Value::LongArray(_) => VTAG_LONG_ARR,
        Value::FloatArray(_) => VTAG_FLOAT_ARR,
        Value::DoubleArray(_) => VTAG_DOUBLE_ARR,
    }
}

impl_wire!(
    enum Value {
        Int = VTAG_INT,
        Long = VTAG_LONG,
        Float = VTAG_FLOAT,
        Double = VTAG_DOUBLE,
        IntArray = VTAG_INT_ARR,
        LongArray = VTAG_LONG_ARR,
        FloatArray = VTAG_FLOAT_ARR,
        DoubleArray = VTAG_DOUBLE_ARR,
    }
);

const TAG_QUERY_INTERFACE: u32 = 1;
const TAG_INTERFACE_REPLY: u32 = 2;
const TAG_INVOKE: u32 = 3;
const TAG_RESULT_DATA: u32 = 4;
const TAG_ERROR: u32 = 5;
const TAG_QUERY_LOAD: u32 = 6;
const TAG_LOAD_STATUS: u32 = 7;
const TAG_SUBMIT_JOB: u32 = 8;
const TAG_JOB_TICKET: u32 = 9;
const TAG_POLL_JOB: u32 = 10;
const TAG_JOB_STATUS: u32 = 11;
const TAG_FETCH_RESULT: u32 = 12;
const TAG_LIST_ROUTINES: u32 = 13;
const TAG_ROUTINE_LIST: u32 = 14;
const TAG_DB_QUERY: u32 = 15;
const TAG_DB_REPLY: u32 = 16;
const TAG_QUERY_STATS: u32 = 17;
const TAG_STATS_REPLY: u32 = 18;
const TAG_QUERY_TRACE: u32 = 19;
const TAG_TRACE_REPLY: u32 = 20;
const TAG_NEED_ARG: u32 = 21;
const TAG_QUERY_METRICS: u32 = 22;
const TAG_METRICS_REPLY: u32 = 23;
const TAG_PUT_ARG_CHUNK: u32 = 24;
const TAG_CHUNK_OK: u32 = 25;

impl_message_codec! {
    units {
        QueryLoad = TAG_QUERY_LOAD,
        ListRoutines = TAG_LIST_ROUTINES,
    }
    newtypes {
        LoadStatus = TAG_LOAD_STATUS,
    }
    structs {
        QueryInterface = TAG_QUERY_INTERFACE => { routine },
        InterfaceReply = TAG_INTERFACE_REPLY => { interface },
        ResultData = TAG_RESULT_DATA => { results },
        Error = TAG_ERROR => { reason },
        JobTicket = TAG_JOB_TICKET => { job },
        PollJob = TAG_POLL_JOB => { job },
        JobStatus = TAG_JOB_STATUS => { job, state },
        FetchResult = TAG_FETCH_RESULT => { job, trace },
        RoutineList = TAG_ROUTINE_LIST => { routines },
        DbQuery = TAG_DB_QUERY => { query },
        DbReply = TAG_DB_REPLY => { description, values },
        QueryStats = TAG_QUERY_STATS => { since },
        StatsReply = TAG_STATS_REPLY => { now, total, records },
        QueryTrace = TAG_QUERY_TRACE => { trace_id },
        TraceReply = TAG_TRACE_REPLY => { process, dropped, spans },
        NeedArg = TAG_NEED_ARG => { digests },
        QueryMetrics = TAG_QUERY_METRICS => { since },
        MetricsReply = TAG_METRICS_REPLY => { process, now, interval, total, dropped, frames },
        PutArgChunk = TAG_PUT_ARG_CHUNK => { digest, total_bytes, total, seq, crc, bytes },
        ChunkOk = TAG_CHUNK_OK => { digest, seq },
    }
    calls {
        Invoke = TAG_INVOKE,
        SubmitJob = TAG_SUBMIT_JOB,
    }
}

impl Message {
    /// Payload bytes [`Message::put`] writes, measured without writing them.
    pub fn payload_len(&self) -> usize {
        let mut count = XdrEncoder::on(ByteCount::default());
        self.put(&mut count);
        count.into_sink().0
    }

    /// Encode to XDR payload bytes (without frame header).
    pub fn encode(&self) -> bytes::Bytes {
        let mut enc = XdrEncoder::with_capacity(self.payload_len());
        self.put(&mut enc);
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProtocolError;

    fn roundtrip(m: Message) {
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_query_interface() {
        roundtrip(Message::QueryInterface {
            routine: "linpack".into(),
        });
    }

    #[test]
    fn roundtrip_interface_reply() {
        for iface in ninf_idl::stdlib_interfaces() {
            roundtrip(Message::InterfaceReply { interface: iface });
        }
    }

    #[test]
    fn roundtrip_invoke_with_mixed_args() {
        roundtrip(Message::Invoke {
            routine: "dmmul".into(),
            args: Arg::inline(vec![
                Value::Int(3),
                Value::DoubleArray(vec![1.0; 9]),
                Value::DoubleArray(vec![2.0; 9]),
            ]),
            trace: None,
        });
        roundtrip(Message::Invoke {
            routine: "dmmul".into(),
            args: vec![Arg::Data(Value::Int(3))],
            trace: Some(TraceContext {
                trace_id: 0xdead_beef_cafe_f00d,
                span_id: 17,
                parent_span_id: 0,
            }),
        });
    }

    #[test]
    fn roundtrip_invoke_with_arg_refs() {
        let d = crate::digest::digest_value(&Value::DoubleArray(vec![0.25; 256]));
        roundtrip(Message::Invoke {
            routine: "dmmul".into(),
            args: vec![
                Arg::Data(Value::Int(16)),
                Arg::Ref(d),
                Arg::Data(Value::DoubleArray(vec![2.0; 256])),
            ],
            trace: None,
        });
        roundtrip(Message::NeedArg { digests: vec![d] });
        roundtrip(Message::NeedArg { digests: vec![] });
    }

    #[test]
    fn arg_helpers_roundtrip_inline_lists() {
        let values = vec![Value::Int(1), Value::DoubleArray(vec![2.0; 4])];
        let args = Arg::inline(values.clone());
        assert_eq!(args[0].as_value(), Some(&values[0]));
        assert_eq!(Arg::into_values(args), Some(values));
        let refd = vec![Arg::Ref(Digest { hi: 1, lo: 2 })];
        assert_eq!(refd[0].as_value(), None);
        assert_eq!(Arg::into_values(refd), None);
    }

    #[test]
    fn unknown_arg_tag_rejected() {
        // A raw Invoke whose single arg carries tag 9 (past Ref's 8).
        let mut enc = ninf_xdr::XdrEncoder::new();
        enc.put_u32(3); // Invoke
        enc.put_string("f");
        enc.put_u32(1); // one arg
        enc.put_u32(9); // bogus arg tag
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn roundtrip_results_and_error() {
        roundtrip(Message::ResultData {
            results: vec![
                Value::DoubleArray(vec![0.5; 4]),
                Value::IntArray(vec![1, 0]),
            ],
        });
        roundtrip(Message::Error {
            reason: "matrix is singular".into(),
        });
    }

    #[test]
    fn roundtrip_load_messages() {
        roundtrip(Message::QueryLoad);
        roundtrip(Message::LoadStatus(LoadReport {
            pes: 4,
            running: 4,
            queued: 12,
            load_average: 16.64,
            cpu_utilization: 100.0,
        }));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut enc = ninf_xdr::XdrEncoder::new();
        enc.put_u32(999);
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = Message::QueryLoad.encode().to_vec();
        wire.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Message::decode(&wire),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn trailing_garbage_after_nontrivial_message_rejected() {
        // Regression: a frame whose payload parses as a complete message but
        // is not fully consumed must be rejected — valid-prefix corruption
        // is the residual hole even a payload CRC cannot catch once the
        // prefix itself checksums clean (e.g. a resynchronized stream).
        let msgs = [
            Message::Invoke {
                routine: "linpack".into(),
                args: Arg::inline(vec![Value::Int(600), Value::DoubleArray(vec![0.5; 16])]),
                trace: Some(TraceContext {
                    trace_id: 9,
                    span_id: 3,
                    parent_span_id: 1,
                }),
            },
            Message::ResultData {
                results: vec![Value::IntArray(vec![1, 2, 3])],
            },
            Message::StatsReply {
                now: 1.0,
                total: 0,
                records: vec![],
            },
        ];
        for msg in msgs {
            let mut wire = msg.encode().to_vec();
            wire.extend_from_slice(&7u32.to_be_bytes());
            match Message::decode(&wire) {
                Err(ProtocolError::Frame(m)) => {
                    assert!(m.contains("trailing"), "unexpected message: {m}")
                }
                other => panic!("expected trailing-bytes rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn payload_encoding_is_v1_compatible() {
        // Golden bytes pinning the payload layout across the codec rewrite:
        // tag 3 (Invoke), "ep", one arg (VTAG_INT 24), absent trace.
        let msg = Message::Invoke {
            routine: "ep".into(),
            args: vec![Arg::Data(Value::Int(24))],
            trace: None,
        };
        let expected: Vec<u8> = [
            &3u32.to_be_bytes()[..],  // TAG_INVOKE
            &2u32.to_be_bytes()[..],  // strlen("ep")
            b"ep\0\0",                // padded routine name
            &1u32.to_be_bytes()[..],  // argc
            &0u32.to_be_bytes()[..],  // VTAG_INT
            &24i32.to_be_bytes()[..], // the scalar
            &0u32.to_be_bytes()[..],  // trace absent
        ]
        .concat();
        assert_eq!(&msg.encode()[..], &expected[..]);
    }

    #[test]
    fn roundtrip_two_phase_messages() {
        roundtrip(Message::SubmitJob {
            routine: "ep".into(),
            args: vec![Arg::Data(Value::Int(24))],
            trace: None,
        });
        roundtrip(Message::SubmitJob {
            routine: "ep".into(),
            args: vec![Arg::Data(Value::Int(24))],
            trace: Some(TraceContext {
                trace_id: 1,
                span_id: 2,
                parent_span_id: 3,
            }),
        });
        roundtrip(Message::JobTicket { job: 42 });
        roundtrip(Message::PollJob { job: 42 });
        for state in [
            JobPhase::Pending,
            JobPhase::Done,
            JobPhase::Failed,
            JobPhase::Unknown,
        ] {
            roundtrip(Message::JobStatus { job: 7, state });
        }
        roundtrip(Message::FetchResult {
            job: 42,
            trace: None,
        });
        roundtrip(Message::FetchResult {
            job: 42,
            trace: Some(TraceContext {
                trace_id: 4,
                span_id: 5,
                parent_span_id: 6,
            }),
        });
    }

    #[test]
    fn roundtrip_db_messages() {
        roundtrip(Message::DbQuery {
            query: "GET hilbert8".into(),
        });
        roundtrip(Message::DbReply {
            description: "8x8 Hilbert matrix, column-major".into(),
            values: vec![Value::DoubleArray(vec![1.0, 0.5, 0.5, 1.0 / 3.0])],
        });
    }

    #[test]
    fn roundtrip_routine_listing() {
        roundtrip(Message::ListRoutines);
        roundtrip(Message::RoutineList {
            routines: vec![
                ("dmmul".into(), "double precision matrix multiply".into()),
                ("ep".into(), "embarrassingly parallel trials".into()),
            ],
        });
    }

    #[test]
    fn roundtrip_stats_messages() {
        roundtrip(Message::QueryStats { since: 0 });
        roundtrip(Message::QueryStats { since: 123456 });
        roundtrip(Message::StatsReply {
            now: 42.5,
            total: 2,
            records: vec![
                CallStat {
                    routine: "linpack".into(),
                    n: Some(600),
                    request_bytes: 2_892_000,
                    reply_bytes: 4_800,
                    t_submit: 1.0,
                    t_enqueue: 1.5,
                    t_dequeue: 3.0,
                    t_complete: 10.0,
                },
                CallStat {
                    routine: "ep".into(),
                    n: None,
                    request_bytes: 0,
                    reply_bytes: 16,
                    t_submit: 2.0,
                    t_enqueue: 2.0,
                    t_dequeue: 2.5,
                    t_complete: 2.75,
                },
            ],
        });
        roundtrip(Message::StatsReply {
            now: 0.0,
            total: 0,
            records: vec![],
        });
    }

    #[test]
    fn call_stat_derived_times_match_paper_definitions() {
        let s = CallStat {
            routine: "linpack".into(),
            n: Some(600),
            request_bytes: 0,
            reply_bytes: 0,
            t_submit: 1.0,
            t_enqueue: 1.5,
            t_dequeue: 3.0,
            t_complete: 10.0,
        };
        assert!((s.response() - 0.5).abs() < 1e-12);
        assert!((s.wait() - 1.5).abs() < 1e-12);
        assert!((s.service() - 7.0).abs() < 1e-12);
        assert!((s.total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bad_call_stat_presence_flag_rejected() {
        let mut enc = ninf_xdr::XdrEncoder::new();
        enc.put_u32(18); // StatsReply
        enc.put_f64(0.0);
        enc.put_u64(1);
        enc.put_u32(1); // one record
        enc.put_string("f");
        enc.put_u32(7); // bogus n-presence flag
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn bad_job_phase_rejected() {
        let mut enc = ninf_xdr::XdrEncoder::new();
        enc.put_u32(11); // JobStatus
        enc.put_u64(1);
        enc.put_u32(99); // bogus phase
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn all_value_variants_roundtrip_in_invoke() {
        roundtrip(Message::Invoke {
            routine: "f".into(),
            args: Arg::inline(vec![
                Value::Int(1),
                Value::Long(2),
                Value::Float(3.0),
                Value::Double(4.0),
                Value::IntArray(vec![5]),
                Value::LongArray(vec![6]),
                Value::FloatArray(vec![7.0]),
                Value::DoubleArray(vec![8.0]),
            ]),
            trace: None,
        });
    }

    #[test]
    fn roundtrip_trace_messages() {
        roundtrip(Message::QueryTrace { trace_id: 0 });
        roundtrip(Message::QueryTrace { trace_id: u64::MAX });
        roundtrip(Message::TraceReply {
            process: "server".into(),
            dropped: 3,
            spans: vec![
                Span {
                    trace_id: 0xabc,
                    span_id: 0xdef,
                    parent_span_id: 0,
                    name: "request".into(),
                    process: "server".into(),
                    start_us: 1_700_000_000_000_000,
                    dur_us: 12_345,
                    detail: "routine=linpack".into(),
                },
                Span {
                    trace_id: 0xabc,
                    span_id: 0x123,
                    parent_span_id: 0xdef,
                    name: "exec".into(),
                    process: "server".into(),
                    start_us: 1_700_000_000_001_000,
                    dur_us: 10_000,
                    detail: String::new(),
                },
            ],
        });
        roundtrip(Message::TraceReply {
            process: "metaserver".into(),
            dropped: 0,
            spans: vec![],
        });
    }

    #[test]
    fn roundtrip_metrics_messages() {
        roundtrip(Message::QueryMetrics { since: 0 });
        roundtrip(Message::QueryMetrics { since: u64::MAX });
        roundtrip(Message::MetricsReply {
            process: "server".into(),
            now: 12.75,
            interval: 0.25,
            total: 51,
            dropped: 3,
            frames: vec![
                MetricFrame {
                    window: 49,
                    t: 12.25,
                    samples: vec![
                        MetricSample {
                            name: "ninf_server_calls_total".into(),
                            kind: MetricKind::Counter,
                            value: 17.0,
                            count: 17,
                        },
                        MetricSample {
                            name: "ninf_server_queued".into(),
                            kind: MetricKind::Gauge,
                            value: 3.0,
                            count: 0,
                        },
                        MetricSample {
                            name: "ninf_server_call_seconds".into(),
                            kind: MetricKind::Histogram,
                            value: 0.482,
                            count: 17,
                        },
                    ],
                },
                MetricFrame {
                    window: 50,
                    t: 12.5,
                    samples: vec![],
                },
            ],
        });
        // A disarmed responder's reply: interval 0, nothing else.
        roundtrip(Message::MetricsReply {
            process: "metaserver".into(),
            now: 0.0,
            interval: 0.0,
            total: 0,
            dropped: 0,
            frames: vec![],
        });
    }

    #[test]
    fn roundtrip_chunk_messages() {
        let d = Digest { hi: 7, lo: 9 };
        roundtrip(Message::PutArgChunk {
            digest: d,
            total_bytes: 1 << 20,
            total: 64,
            seq: 63,
            crc: 0xdead_beef,
            bytes: vec![0xAB; 1021], // non-multiple of 4: exercises opaque padding
        });
        roundtrip(Message::PutArgChunk {
            digest: d,
            total_bytes: 1,
            total: 1,
            seq: 0,
            crc: 1,
            bytes: vec![0x42],
        });
        roundtrip(Message::ChunkOk { digest: d, seq: 0 });
    }

    #[test]
    fn bad_trace_presence_flag_rejected() {
        let mut enc = ninf_xdr::XdrEncoder::new();
        enc.put_u32(3); // Invoke
        enc.put_string("f");
        enc.put_u32(0); // zero args
        enc.put_u32(9); // bogus trace presence flag
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(ProtocolError::Frame(_))
        ));
    }

    #[test]
    fn message_tag_matches_decode_table() {
        // tag() is generated from the same table as decode; a fresh decode
        // of each encoded message must agree on the leading word.
        let msgs = [
            Message::QueryLoad,
            Message::ListRoutines,
            Message::JobTicket { job: 1 },
            Message::QueryStats { since: 0 },
        ];
        for m in msgs {
            let wire = m.encode();
            let mut dec = ninf_xdr::XdrDecoder::new(&wire);
            assert_eq!(dec.get_u32().unwrap(), m.tag(), "{}", m.kind());
        }
    }
}
