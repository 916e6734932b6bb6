//! Property tests: every representable message survives the full
//! encode → frame → read → decode pipeline, truncated encodings are
//! rejected, and the decoder never panics on arbitrary bytes.
//!
//! `sample_messages`/`variant_index` below are kept exhaustive against the
//! `Message` enum by an exhaustive `match` — adding a variant without
//! covering it here is a compile error, and `every_variant_is_generated`
//! fails if the proptest generator or the sample list misses a kind.

use ninf_protocol::{
    cacheable, check_frame_payload, digest_value, digested_image, encode_call, encode_frame,
    read_frame, value_image, write_frame, Arg, CallArg, CallKind, CallStat, Crc32c, Digest,
    FrameHeader, JobPhase, LoadReport, Message, MetricFrame, MetricKind, MetricSample,
    ProtocolError, Span, TraceContext, Value, FRAME_MAGIC, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// A corrupted frame must surface as one of the typed wire-level errors:
/// framing (magic/length/tag), checksum, version, XDR, or short read.
/// Anything else — above all a successfully decoded `Message` — means
/// corruption slipped past the framing layer.
fn is_typed_rejection(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::Frame(_)
            | ProtocolError::Checksum { .. }
            | ProtocolError::UnsupportedVersion { .. }
            | ProtocolError::Xdr(_)
            | ProtocolError::Io(_)
    )
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f32>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Float),
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Double),
        proptest::collection::vec(any::<i32>(), 0..64).prop_map(Value::IntArray),
        proptest::collection::vec(any::<i64>(), 0..64).prop_map(Value::LongArray),
        proptest::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 0..64)
            .prop_map(Value::FloatArray),
        proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..64)
            .prop_map(Value::DoubleArray),
    ]
}

fn arb_arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        4 => arb_value().prop_map(Arg::Data),
        1 => (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| Arg::Ref(Digest { hi, lo })),
    ]
}

fn arb_trace(t: u64) -> Option<TraceContext> {
    // t == 0 exercises the absent-context encoding.
    (t != 0).then_some(TraceContext {
        trace_id: t,
        span_id: t ^ 0x5555,
        parent_span_id: t >> 1,
    })
}

fn arb_call_stat() -> impl Strategy<Value = CallStat> {
    (
        "[a-z][a-z0-9_]{0,15}",
        proptest::option::of(any::<i64>()),
        any::<u64>(),
        any::<u64>(),
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
    )
        .prop_map(
            |(
                routine,
                n,
                request_bytes,
                reply_bytes,
                t_submit,
                t_enqueue,
                t_dequeue,
                t_complete,
            )| {
                CallStat {
                    routine,
                    n,
                    request_bytes,
                    reply_bytes,
                    t_submit,
                    t_enqueue,
                    t_dequeue,
                    t_complete,
                }
            },
        )
}

fn arb_span() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        "[a-z_]{1,12}",
        "[a-z]{1,10}",
        any::<u64>(),
        any::<u64>(),
        "\\PC{0,32}",
    )
        .prop_map(
            |((trace_id, span_id, parent_span_id), name, process, start_us, dur_us, detail)| Span {
                trace_id,
                span_id,
                parent_span_id,
                name,
                process,
                start_us,
                dur_us,
                detail,
            },
        )
}

fn arb_metric_sample() -> impl Strategy<Value = MetricSample> {
    (
        "[a-z][a-z0-9_]{0,24}",
        prop_oneof![
            Just(MetricKind::Counter),
            Just(MetricKind::Gauge),
            Just(MetricKind::Histogram)
        ],
        0.0f64..1e9,
        any::<u64>(),
    )
        .prop_map(|(name, kind, value, count)| MetricSample {
            name,
            kind,
            value,
            count,
        })
}

fn arb_metric_frame() -> impl Strategy<Value = MetricFrame> {
    (
        any::<u64>(),
        0.0f64..1e6,
        proptest::collection::vec(arb_metric_sample(), 0..6),
    )
        .prop_map(|(window, t, samples)| MetricFrame { window, t, samples })
}

fn arb_message() -> impl Strategy<Value = Message> {
    let routine = "[a-z][a-z0-9_]{0,15}";
    prop_oneof![
        routine.prop_map(|r| Message::QueryInterface { routine: r }),
        // Arbitrary *valid* interfaces are exactly the compiler's output, so
        // sample the compiled stdlib rather than inventing a parallel
        // generator that could drift from the real invariants.
        proptest::sample::select(ninf_idl::stdlib_interfaces())
            .prop_map(|interface| Message::InterfaceReply { interface }),
        (
            routine,
            proptest::collection::vec(arb_arg(), 0..6),
            any::<u64>()
        )
            .prop_map(|(routine, args, t)| Message::Invoke {
                routine,
                args,
                trace: arb_trace(t),
            }),
        proptest::collection::vec(arb_value(), 0..6)
            .prop_map(|results| Message::ResultData { results }),
        "\\PC{0,64}".prop_map(|reason| Message::Error { reason }),
        Just(Message::QueryLoad),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            0.0f64..1e3,
            0.0f64..100.0
        )
            .prop_map(|(pes, running, queued, load_average, cpu_utilization)| {
                Message::LoadStatus(LoadReport {
                    pes,
                    running,
                    queued,
                    load_average,
                    cpu_utilization,
                })
            }),
        (
            routine,
            proptest::collection::vec(arb_arg(), 0..6),
            any::<u64>()
        )
            .prop_map(|(routine, args, t)| Message::SubmitJob {
                routine,
                args,
                trace: arb_trace(t),
            }),
        any::<u64>().prop_map(|job| Message::JobTicket { job }),
        any::<u64>().prop_map(|job| Message::PollJob { job }),
        (
            any::<u64>(),
            prop_oneof![
                Just(JobPhase::Pending),
                Just(JobPhase::Done),
                Just(JobPhase::Failed),
                Just(JobPhase::Unknown)
            ]
        )
            .prop_map(|(job, state)| Message::JobStatus { job, state }),
        (any::<u64>(), any::<u64>()).prop_map(|(job, t)| Message::FetchResult {
            job,
            trace: arb_trace(t),
        }),
        Just(Message::ListRoutines),
        proptest::collection::vec(("[a-z][a-z0-9_]{0,15}", "\\PC{0,48}"), 0..8)
            .prop_map(|routines| Message::RoutineList { routines }),
        "\\PC{0,64}".prop_map(|query| Message::DbQuery { query }),
        ("\\PC{0,64}", proptest::collection::vec(arb_value(), 0..6)).prop_map(
            |(description, values)| Message::DbReply {
                description,
                values
            }
        ),
        any::<u64>().prop_map(|since| Message::QueryStats { since }),
        (
            0.0f64..1e9,
            any::<u64>(),
            proptest::collection::vec(arb_call_stat(), 0..8)
        )
            .prop_map(|(now, total, records)| Message::StatsReply {
                now,
                total,
                records
            }),
        any::<u64>().prop_map(|trace_id| Message::QueryTrace { trace_id }),
        (
            "[a-z]{1,10}",
            any::<u64>(),
            proptest::collection::vec(arb_span(), 0..8)
        )
            .prop_map(|(process, dropped, spans)| Message::TraceReply {
                process,
                dropped,
                spans
            }),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6).prop_map(|ds| {
            Message::NeedArg {
                digests: ds.into_iter().map(|(hi, lo)| Digest { hi, lo }).collect(),
            }
        }),
        any::<u64>().prop_map(|since| Message::QueryMetrics { since }),
        (
            ("[a-z]{1,10}", 0.0f64..1e6, 0.0f64..60.0),
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(arb_metric_frame(), 0..4)
        )
            .prop_map(|((process, now, interval), (total, dropped), frames)| {
                Message::MetricsReply {
                    process,
                    now,
                    interval,
                    total,
                    dropped,
                    frames,
                }
            }),
        (
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(any::<u8>(), 1..512),
            (1u32..64, any::<u32>()),
        )
            .prop_map(|((hi, lo), bytes, (total_scale, seq))| {
                // Geometry kept self-consistent: the codec round-trips any
                // field values, but a realistic chunk keeps reviewers honest.
                let total_bytes = bytes.len() as u64 * total_scale as u64;
                Message::PutArgChunk {
                    digest: Digest { hi, lo },
                    total_bytes,
                    total: total_scale,
                    seq: seq % total_scale,
                    crc: ninf_protocol::crc32c(&bytes),
                    bytes,
                }
            }),
        ((any::<u64>(), any::<u64>()), any::<u32>()).prop_map(|((hi, lo), seq)| {
            Message::ChunkOk {
                digest: Digest { hi, lo },
                seq,
            }
        }),
    ]
}

/// Position of each variant in the canonical ordering. The `match` is
/// deliberately wildcard-free: a new `Message` variant fails to compile
/// until it is ranked here (and added to `sample_messages`).
fn variant_index(m: &Message) -> usize {
    match m {
        Message::QueryInterface { .. } => 0,
        Message::InterfaceReply { .. } => 1,
        Message::Invoke { .. } => 2,
        Message::ResultData { .. } => 3,
        Message::Error { .. } => 4,
        Message::QueryLoad => 5,
        Message::LoadStatus(_) => 6,
        Message::SubmitJob { .. } => 7,
        Message::JobTicket { .. } => 8,
        Message::PollJob { .. } => 9,
        Message::JobStatus { .. } => 10,
        Message::FetchResult { .. } => 11,
        Message::ListRoutines => 12,
        Message::RoutineList { .. } => 13,
        Message::DbQuery { .. } => 14,
        Message::DbReply { .. } => 15,
        Message::QueryStats { .. } => 16,
        Message::StatsReply { .. } => 17,
        Message::QueryTrace { .. } => 18,
        Message::TraceReply { .. } => 19,
        Message::NeedArg { .. } => 20,
        Message::QueryMetrics { .. } => 21,
        Message::MetricsReply { .. } => 22,
        Message::PutArgChunk { .. } => 23,
        Message::ChunkOk { .. } => 24,
    }
}

const VARIANT_COUNT: usize = 25;

/// One concrete witness per variant, used by the exhaustiveness test and
/// the deterministic truncation test.
fn sample_messages() -> Vec<Message> {
    let ctx = TraceContext {
        trace_id: 7,
        span_id: 8,
        parent_span_id: 0,
    };
    vec![
        Message::QueryInterface {
            routine: "linpack".into(),
        },
        Message::InterfaceReply {
            interface: ninf_idl::stdlib_interfaces().remove(0),
        },
        Message::Invoke {
            routine: "linpack".into(),
            args: vec![
                Arg::Data(Value::Int(64)),
                Arg::Ref(Digest {
                    hi: 0xfeed_beef,
                    lo: 0x1234,
                }),
                Arg::Data(Value::DoubleArray(vec![1.0, 2.0])),
            ],
            trace: Some(ctx),
        },
        Message::ResultData {
            results: vec![Value::Double(3.5)],
        },
        Message::Error {
            reason: "no such routine".into(),
        },
        Message::QueryLoad,
        Message::LoadStatus(LoadReport {
            pes: 4,
            running: 1,
            queued: 2,
            load_average: 0.5,
            cpu_utilization: 40.0,
        }),
        Message::SubmitJob {
            routine: "ep".into(),
            args: vec![Arg::Data(Value::Int(12))],
            trace: None,
        },
        Message::JobTicket { job: 42 },
        Message::PollJob { job: 42 },
        Message::JobStatus {
            job: 42,
            state: JobPhase::Done,
        },
        Message::FetchResult {
            job: 42,
            trace: Some(ctx),
        },
        Message::ListRoutines,
        Message::RoutineList {
            routines: vec![("linpack".into(), "solve".into())],
        },
        Message::DbQuery {
            query: "select capability".into(),
        },
        Message::DbReply {
            description: "one row".into(),
            values: vec![Value::Long(1)],
        },
        Message::QueryStats { since: 3 },
        Message::StatsReply {
            now: 12.5,
            total: 9,
            records: vec![CallStat {
                routine: "linpack".into(),
                n: Some(64),
                request_bytes: 1024,
                reply_bytes: 2048,
                t_submit: 1.0,
                t_enqueue: 1.1,
                t_dequeue: 1.2,
                t_complete: 2.0,
            }],
        },
        Message::QueryTrace { trace_id: 77 },
        Message::TraceReply {
            process: "server".into(),
            dropped: 1,
            spans: vec![Span {
                trace_id: 77,
                span_id: 5,
                parent_span_id: 0,
                name: "invoke".into(),
                process: "server".into(),
                start_us: 100,
                dur_us: 50,
                detail: "linpack".into(),
            }],
        },
        Message::NeedArg {
            digests: vec![Digest {
                hi: 0xfeed_beef,
                lo: 0x1234,
            }],
        },
        Message::QueryMetrics { since: 5 },
        Message::MetricsReply {
            process: "server".into(),
            now: 9.25,
            interval: 0.25,
            total: 37,
            dropped: 2,
            frames: vec![MetricFrame {
                window: 36,
                t: 9.0,
                samples: vec![MetricSample {
                    name: "ninf_server_calls_total".into(),
                    kind: MetricKind::Counter,
                    value: 11.0,
                    count: 11,
                }],
            }],
        },
        Message::PutArgChunk {
            digest: Digest {
                hi: 0xfeed_beef,
                lo: 0x1234,
            },
            total_bytes: 21,
            total: 3,
            seq: 2,
            crc: ninf_protocol::crc32c(&[9, 9, 9, 9, 9, 9, 9]),
            bytes: vec![9; 7],
        },
        Message::ChunkOk {
            digest: Digest {
                hi: 0xfeed_beef,
                lo: 0x1234,
            },
            seq: 2,
        },
    ]
}

/// Every `Message` variant appears exactly once in `sample_messages`, in
/// `variant_index` order, and all round-trip through the codec.
#[test]
fn variant_list_is_exhaustive() {
    let samples = sample_messages();
    assert_eq!(samples.len(), VARIANT_COUNT);
    let mut kinds = Vec::new();
    for (i, m) in samples.iter().enumerate() {
        assert_eq!(
            variant_index(m),
            i,
            "sample_messages out of order at {} ({})",
            i,
            m.kind()
        );
        assert!(
            !kinds.contains(&m.kind()),
            "duplicate sample for {}",
            m.kind()
        );
        kinds.push(m.kind());
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(&back, m);
    }
}

/// Every strict prefix of every sample encoding is rejected — a
/// deterministic companion to the property below, one case per variant.
#[test]
fn sample_prefixes_all_rejected() {
    for m in sample_messages() {
        let wire = m.encode();
        for cut in 0..wire.len() {
            assert!(
                Message::decode(&wire[..cut]).is_err(),
                "{}-byte prefix of {} decoded",
                cut,
                m.kind()
            );
        }
    }
}

proptest! {
    #[test]
    fn message_codec_roundtrip(msg in arb_message()) {
        let wire = msg.encode();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn frame_roundtrip(msg in arb_message()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn frames_concatenate(msgs in proptest::collection::vec(arb_message(), 1..5)) {
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut reader = buf.as_slice();
        for m in &msgs {
            prop_assert_eq!(&read_frame(&mut reader).unwrap(), m);
        }
        prop_assert!(reader.is_empty());
    }

    /// The proptest generator itself covers every variant: any sampled
    /// message maps to a legal variant rank (paired with
    /// `variant_list_is_exhaustive`, which pins the rank list to the enum).
    #[test]
    fn every_variant_is_generated(msg in arb_message()) {
        prop_assert!(variant_index(&msg) < VARIANT_COUNT);
    }

    /// Truncating an encoding anywhere must yield a decode error, never a
    /// silently shorter message: no valid encoding is a strict prefix of
    /// another.
    #[test]
    fn truncated_prefix_is_rejected(msg in arb_message(), cut in any::<prop::sample::Index>()) {
        let wire = msg.encode();
        let cut = cut.index(wire.len());
        prop_assert!(Message::decode(&wire[..cut]).is_err());
    }

    /// Decoding arbitrary garbage yields an error, never a panic.
    #[test]
    fn decode_garbage_is_safe(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&data);
        let _ = read_frame(&mut data.as_slice());
    }

    /// Flipping any single bit of a valid frame — header or payload —
    /// yields a typed rejection: under v2 checksummed framing a corrupted
    /// frame can never decode as a message, and never panics the reader.
    #[test]
    fn single_bit_flip_is_always_rejected(msg in arb_message(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let i = pos.index(buf.len());
        buf[i] ^= 1 << bit;
        match read_frame(&mut buf.as_slice()) {
            Ok(m) => prop_assert!(false, "bit {bit} of byte {i} flipped yet frame decoded as {}", m.kind()),
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped rejection: {e}"),
        }
    }
}

/// Deterministic companion to `single_bit_flip_is_always_rejected`: for
/// one witness of *every* `Message` variant, every single-bit flip of the
/// framed bytes is rejected with a typed error. CRC-32C detects all
/// single-bit errors, so the payload is covered bit-for-bit; the header's
/// magic/version/length/checksum words each have their own typed check.
#[test]
fn every_variant_rejects_every_single_bit_flip() {
    for m in sample_messages() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                match read_frame(&mut buf.as_slice()) {
                    Ok(got) => panic!(
                        "{}: bit {bit} of byte {i} flipped yet frame decoded as {}",
                        m.kind(),
                        got.kind()
                    ),
                    Err(e) => assert!(
                        is_typed_rejection(&e),
                        "{}: byte {i} bit {bit}: untyped rejection {e}",
                        m.kind()
                    ),
                }
                buf[i] ^= 1 << bit;
            }
        }
    }
}

/// A frame as a reference builds it by hand: the 24-byte header with
/// `crc32c(call id ++ payload)`, then the payload from the owned codec
/// into a plain buffer — no sizing pass, no folded CRC.
fn reference_frame(call_id: u64, msg: &Message) -> Vec<u8> {
    let payload = msg.encode();
    let mut crc = Crc32c::new();
    crc.update(&call_id.to_be_bytes()).update(&payload);
    [
        &FRAME_MAGIC.to_be_bytes()[..],
        &PROTOCOL_VERSION.to_be_bytes()[..],
        &(payload.len() as u32).to_be_bytes()[..],
        &call_id.to_be_bytes()[..],
        &crc.finish().to_be_bytes()[..],
        &payload[..],
    ]
    .concat()
}

/// Values long enough to span several of the encoder's 2 KiB blocks and
/// the digest's 64-byte groups, with every tail length.
fn arb_wide_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        proptest::collection::vec(any::<i32>(), 0..1100).prop_map(Value::IntArray),
        proptest::collection::vec(any::<i64>(), 0..600).prop_map(Value::LongArray),
        proptest::collection::vec(any::<u32>(), 0..1100)
            .prop_map(|v| Value::FloatArray(v.into_iter().map(|b| (b % 4096) as f32).collect())),
        proptest::collection::vec(any::<u64>(), 0..600)
            .prop_map(|v| Value::DoubleArray(v.into_iter().map(|b| (b % 65536) as f64).collect())),
    ]
}

fn borrowed(args: &[Arg]) -> Vec<CallArg<'_>> {
    args.iter()
        .map(|a| match a {
            Arg::Data(v) => CallArg::Data(v),
            Arg::Ref(d) => CallArg::Ref(*d),
        })
        .collect()
}

fn call_message(
    kind: CallKind,
    routine: &str,
    args: Vec<Arg>,
    trace: Option<TraceContext>,
) -> Message {
    let routine = routine.to_owned();
    match kind {
        CallKind::Invoke => Message::Invoke {
            routine,
            args,
            trace,
        },
        CallKind::SubmitJob => Message::SubmitJob {
            routine,
            args,
            trace,
        },
    }
}

proptest! {
    /// The one frame writer's frame is the reference frame, byte for
    /// byte, for every message and call id.
    #[test]
    fn frame_writer_matches_reference(msg in arb_message(), call_id in any::<u64>()) {
        prop_assert_eq!(encode_frame(call_id, &msg).unwrap(), reference_frame(call_id, &msg));
    }

    /// A call written straight from borrowed values is the reference
    /// frame of the owned message it describes.
    #[test]
    fn borrowed_call_matches_owned_message(
        args in proptest::collection::vec(arb_arg(), 0..6),
        call_id in any::<u64>(),
        submit in any::<bool>(),
        t in any::<u64>(),
    ) {
        let kind = if submit { CallKind::SubmitJob } else { CallKind::Invoke };
        let trace = arb_trace(t);
        let mut call = borrowed(&args);
        let frame = encode_call(call_id, kind, "dgesl", &mut call, trace, |_| {
            unreachable!("no position folds")
        })
        .unwrap();
        let msg = call_message(kind, "dgesl", args, trace);
        prop_assert_eq!(frame, reference_frame(call_id, &msg));
    }

    /// Digesting an argument in the pass that encodes it gives
    /// `digest_value`, for every value kind and length (odd tails
    /// included) and wherever in the frame the argument starts; the
    /// frame itself is unchanged by the fold.
    #[test]
    fn folded_digest_is_digest_value(
        lead in proptest::collection::vec(arb_value(), 0..3),
        v in arb_wide_value(),
        call_id in any::<u64>(),
    ) {
        let mut call: Vec<CallArg<'_>> = lead.iter().map(CallArg::Data).collect();
        call.push(CallArg::Fold(&v));
        let mut seen = Vec::new();
        let frame = encode_call(call_id, CallKind::Invoke, "f", &mut call, None, |d| {
            seen.push(*d);
            false
        })
        .unwrap();
        prop_assert_eq!(seen, vec![digest_value(&v)]);
        prop_assert_eq!(call.last(), Some(&CallArg::Data(&v)));
        let mut args = Arg::inline(lead.clone());
        args.push(Arg::Data(v.clone()));
        prop_assert_eq!(frame, reference_frame(call_id, &call_message(CallKind::Invoke, "f", args, None)));
        let (image, digest) = digested_image(&v);
        prop_assert_eq!(&image[..], &value_image(&v)[..]);
        prop_assert_eq!(digest, digest_value(&v));
    }

    /// Folding every position and rolling the held ones back to refs (a
    /// mispredicted hit) ships the bytes the digest-first path ships, and
    /// leaves the same plan behind.
    #[test]
    fn mispredicted_hit_ships_digest_first_bytes(
        values in proptest::collection::vec(arb_wide_value(), 1..5),
        known in proptest::collection::vec(any::<bool>(), 5),
        call_id in any::<u64>(),
        t in any::<u64>(),
    ) {
        let held: Vec<Digest> = values
            .iter()
            .zip(&known)
            .filter(|(_, &k)| k)
            .map(|(v, _)| digest_value(v))
            .collect();
        let mut first: Vec<CallArg<'_>> = values
            .iter()
            .map(|v| {
                let d = digest_value(v);
                if held.contains(&d) { CallArg::Ref(d) } else { CallArg::Data(v) }
            })
            .collect();
        let digest_first = encode_call(call_id, CallKind::Invoke, "f", &mut first, arb_trace(t), |_| {
            unreachable!("nothing folds")
        })
        .unwrap();
        let mut folded: Vec<CallArg<'_>> = values.iter().map(CallArg::Fold).collect();
        let guessed = encode_call(call_id, CallKind::Invoke, "f", &mut folded, arb_trace(t), |d| {
            held.contains(d)
        })
        .unwrap();
        prop_assert_eq!(guessed, digest_first);
        prop_assert_eq!(folded, first);
    }
}

/// A header whose CRC matches `payload`.
fn header_for(call_id: u64, payload: &[u8]) -> FrameHeader {
    let mut crc = Crc32c::new();
    crc.update(&call_id.to_be_bytes()).update(payload);
    FrameHeader {
        len: payload.len() as u32,
        call_id,
        crc: crc.finish(),
    }
}

/// The reference frame check, with no digests: CRC-32C over call id ++
/// payload in a pass of its own, then the decode.
fn reference_check(header: &FrameHeader, payload: &[u8]) -> Result<Message, ProtocolError> {
    let got = header_for(header.call_id, payload).crc;
    if got != header.crc {
        return Err(ProtocolError::Checksum {
            expected: header.crc,
            got,
        });
    }
    Message::decode(payload)
}

/// The digests a check of `msg` must hand over: `digest_value` at each
/// cacheable inline position of a call, `None` at every other position,
/// and none at all for any other message.
fn expected_digests(msg: &Message) -> Vec<Option<Digest>> {
    match msg {
        Message::Invoke { args, .. } | Message::SubmitJob { args, .. } => args
            .iter()
            .map(|a| match a {
                Arg::Data(v) if cacheable(v) => Some(digest_value(v)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The check agrees with the reference on any payload: the same message
/// with exactly the expected digests, or the same typed error.
fn check_matches_reference(header: &FrameHeader, payload: &[u8]) -> Result<(), TestCaseError> {
    match (
        check_frame_payload(header, payload),
        reference_check(header, payload),
    ) {
        (Ok(checked), Ok(msg)) => {
            prop_assert_eq!(checked.digests, expected_digests(&msg));
            prop_assert_eq!(checked.message, msg);
        }
        (Err(got), Err(want)) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
        (got, want) => prop_assert!(
            false,
            "check gave {:?}, reference {:?}",
            got.map(|c| c.message.kind()),
            want.map(|m| m.kind())
        ),
    }
    Ok(())
}

/// Argument values whose image straddles `ARG_CACHE_MIN_BYTES` (256
/// four-byte or 128 eight-byte elements) and the digest's 64-byte groups,
/// of every value kind.
fn arb_call_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        arb_wide_value(),
        proptest::collection::vec(any::<i32>(), 240..272).prop_map(Value::IntArray),
        proptest::collection::vec(any::<i64>(), 112..144).prop_map(Value::LongArray),
        proptest::collection::vec(any::<u32>(), 240..272)
            .prop_map(|v| Value::FloatArray(v.into_iter().map(|b| (b % 4096) as f32).collect())),
        proptest::collection::vec(any::<u64>(), 112..144)
            .prop_map(|v| Value::DoubleArray(v.into_iter().map(|b| (b % 65536) as f64).collect())),
    ]
}

/// An `Invoke` or `SubmitJob` with refs mixed in, a routine of 0–7 bytes
/// (every XDR pad), with or without a trace, under any call id.
fn arb_call() -> impl Strategy<Value = (u64, Message)> {
    (
        proptest::collection::vec(
            prop_oneof![
                4 => arb_call_value().prop_map(Arg::Data),
                1 => (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| Arg::Ref(Digest { hi, lo })),
            ],
            0..6,
        ),
        "[a-z]{0,7}",
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(args, routine, submit, t, call_id)| {
            let kind = if submit {
                CallKind::SubmitJob
            } else {
                CallKind::Invoke
            };
            (call_id, call_message(kind, &routine, args, arb_trace(t)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The check's digests pair with exactly the cacheable inline
    /// positions of the decoded call, each equal to `digest_value`.
    #[test]
    fn check_digests_exactly_the_cacheable_inline_args((call_id, msg) in arb_call()) {
        let frame = encode_frame(call_id, &msg).unwrap();
        let payload = &frame[ninf_protocol::FRAME_HEADER_BYTES..];
        let checked = check_frame_payload(&header_for(call_id, payload), payload).unwrap();
        prop_assert_eq!(checked.digests, expected_digests(&msg));
        prop_assert_eq!(checked.message, msg);
    }

    /// Every message kind checks as the reference does; only a call
    /// carries digests.
    #[test]
    fn check_of_any_message_is_the_reference(msg in arb_message(), call_id in any::<u64>()) {
        let payload = msg.encode();
        check_matches_reference(&header_for(call_id, &payload), &payload)?;
    }

    /// Arbitrary bytes, led by a call tag or not, under a matching or an
    /// arbitrary CRC: never a panic, always the reference's answer.
    #[test]
    fn check_of_garbage_is_the_reference(
        tag in prop_oneof![Just(3u32), Just(8u32), any::<u32>()],
        body in proptest::collection::vec(any::<u8>(), 0..512),
        call_id in any::<u64>(),
        crc in proptest::option::of(any::<u32>()),
    ) {
        let payload = [&tag.to_be_bytes()[..], &body].concat();
        let mut header = header_for(call_id, &payload);
        if let Some(crc) = crc {
            header.crc = crc;
        }
        check_matches_reference(&header, &payload)?;
    }

    /// A call cut short anywhere, its CRC recomputed so the cut reaches
    /// the locator and the decode: the reference's typed error.
    #[test]
    fn check_of_truncated_call_is_the_reference(
        (call_id, msg) in arb_call(),
        cut in any::<prop::sample::Index>(),
    ) {
        let payload = msg.encode();
        let payload = &payload[..cut.index(payload.len())];
        check_matches_reference(&header_for(call_id, payload), payload)?;
    }

    /// One bit of a call flipped. Under the sender's CRC the answer is
    /// `Checksum`, ranges found or not; under a recomputed CRC the flip
    /// reaches the locator and the decode, and the check is still the
    /// reference, digests included.
    #[test]
    fn check_of_bit_flipped_call_is_the_reference(
        (call_id, msg) in arb_call(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut payload = msg.encode().to_vec();
        let sent = header_for(call_id, &payload);
        let at = pos.index(payload.len());
        payload[at] ^= 1 << bit;
        let flipped = header_for(call_id, &payload);
        prop_assert!(
            matches!(
                check_frame_payload(&sent, &payload),
                Err(ProtocolError::Checksum { expected, got })
                    if expected == sent.crc && got == flipped.crc
            ),
            "a flipped bit must fail the sender's CRC"
        );
        check_matches_reference(&flipped, &payload)?;
    }
}
