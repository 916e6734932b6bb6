//! Per-layer replay: one call's request and reply — exactly the messages the
//! workload puts on the wire in its steady state — pushed single-threaded
//! through each layer's public API, timed from outside.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninf_client::CallOptions;
use ninf_protocol::{
    cacheable, check_frame_payload, chunk_count, crc32c, digest_value, encode_frame,
    parse_frame_header, split_chunks, value_image, Arg, Digest, Message, Reassembly, Transport,
    Value, Wire, CHUNK_THRESHOLD, FRAME_HEADER_BYTES,
};
use ninf_reactor::{MuxStream, Reactor, ReactorConfig, ReactorHooks};
use ninf_server::exec::JobGate;
use ninf_server::{ArgStore, JobInfo, SchedPolicy, DEFAULT_ARG_CACHE_BYTES};
use ninf_xdr::{XdrDecoder, XdrEncoder};

use crate::gen;
use crate::span::Recorder;
use crate::spec::{Metrics, Workload};
use crate::stats;

/// Iterations a replay row aims for; it stops earlier once its time budget
/// is spent (but never before [`MIN_ITERS`]).
const TARGET_ITERS: usize = 200;
const MIN_ITERS: usize = 5;

/// Median wall time of `f` in microseconds. Operations shorter than ~20 µs
/// are timed in batches so the clock reads do not dominate.
pub fn median_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let batch = ((20e-6 / once.max(1e-9)).ceil() as usize).clamp(1, 4096);
    let started = Instant::now();
    let mut samples = Vec::with_capacity(TARGET_ITERS);
    while samples.len() < TARGET_ITERS && (samples.len() < MIN_ITERS || started.elapsed() < budget)
    {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    stats::median(&samples)
}

/// The chunked-upload geometry of a workload that ships an argument over a
/// bulk lane.
pub struct BulkShape {
    pub image: Vec<u8>,
    pub digest: Digest,
    pub chunk_bytes: u32,
    pub chunks: u32,
    /// Frame bytes of all `PutArgChunk`s of one upload plus their acks.
    pub upload_wire_bytes: usize,
    /// Frame bytes of the largest single chunk (what a retransmit resends).
    pub chunk_frame_bytes: usize,
}

/// One call's messages as the wire sees them in the steady state, and the
/// frame sizes `wire_bytes_per_call` is computed from.
pub struct Frames {
    pub args: Vec<Value>,
    pub results: Vec<Value>,
    pub wire_args: Vec<Arg>,
    pub invoke: Message,
    pub reply: Message,
    pub invoke_frame_bytes: usize,
    pub inline_invoke_frame_bytes: usize,
    pub reply_frame_bytes: usize,
    /// Frame bytes of a `NeedArg` naming no digest, and per digest named.
    pub need_arg_frame_bytes: (usize, usize),
    /// Array bytes of the inputs alone / of inputs plus results.
    pub request_payload_bytes: usize,
    pub payload_bytes: usize,
    pub bulk: Option<BulkShape>,
}

fn frame_len(msg: &Message) -> usize {
    encode_frame(0, msg)
        .expect("benchmark frames fit the frame cap")
        .len()
}

impl Frames {
    pub fn build(w: &Workload, args: Vec<Value>) -> Frames {
        let results = gen::reference(w.routine, &args);
        let chunk_bytes = CallOptions::default().chunk_bytes;
        let mut bulk = None;
        let wire_args: Vec<Arg> = args
            .iter()
            .enumerate()
            .map(|(pos, v)| {
                if !cacheable(v) {
                    return Arg::Data(v.clone());
                }
                let image = value_image(v);
                let bulk_shipped = w.wan && image.len() >= CHUNK_THRESHOLD;
                if bulk_shipped {
                    let digest = Digest::of(&image);
                    let chunks = split_chunks(digest, &image, chunk_bytes);
                    let ack = frame_len(&Message::ChunkOk { digest, seq: 0 });
                    let lens: Vec<usize> = chunks.iter().map(frame_len).collect();
                    bulk = Some(BulkShape {
                        digest,
                        chunk_bytes,
                        chunks: chunk_count(image.len() as u64, chunk_bytes),
                        upload_wire_bytes: lens.iter().sum::<usize>() + ack * lens.len(),
                        chunk_frame_bytes: lens.iter().copied().max().unwrap_or(0),
                        image: image.to_vec(),
                    });
                }
                // Unsalted cacheable arguments are known to the server after
                // warm-up; bulk-shipped ones are named by the digest their
                // upload just landed under.
                if bulk_shipped || !w.salted.contains(&pos) {
                    Arg::Ref(Digest::of(&image))
                } else {
                    Arg::Data(v.clone())
                }
            })
            .collect();
        let invoke = Message::Invoke {
            routine: w.routine.to_owned(),
            args: wire_args.clone(),
            trace: None,
        };
        let inline = Message::Invoke {
            routine: w.routine.to_owned(),
            args: Arg::inline(args.clone()),
            trace: None,
        };
        let reply = Message::ResultData {
            results: results.clone(),
        };
        let need0 = frame_len(&Message::NeedArg { digests: vec![] });
        let need1 = frame_len(&Message::NeedArg {
            digests: vec![Digest { hi: 0, lo: 0 }],
        });
        Frames {
            invoke_frame_bytes: frame_len(&invoke),
            inline_invoke_frame_bytes: frame_len(&inline),
            reply_frame_bytes: frame_len(&reply),
            need_arg_frame_bytes: (need0, need1 - need0),
            request_payload_bytes: gen::payload_bytes(&args, &[]),
            payload_bytes: gen::payload_bytes(&args, &results),
            args,
            results,
            wire_args,
            invoke,
            reply,
            bulk,
        }
    }

    /// Arguments worth naming by digest at all.
    pub fn cacheable_args(&self) -> usize {
        self.args.iter().filter(|v| cacheable(v)).count()
    }

    /// Frame bytes of `calls` `Invoke`s that together ship `shipped` of
    /// their array bytes inline and name `refd` positions by digest: a ref
    /// replaces an array's count word and body with a 16-byte digest.
    pub fn invoke_bytes(&self, calls: usize, shipped: usize, refd: usize) -> usize {
        calls * self.inline_invoke_frame_bytes - (calls * self.request_payload_bytes - shipped)
            + 12 * refd
    }
}

/// Trace id of the replay tree (live calls count from 1).
pub const REPLAY_TRACE: u64 = 0;

/// The replay rows by metric name; the replay span tree goes into `rec`.
pub fn run(w: &Workload, frames: &Frames, budget: Duration, rec: &mut Recorder) -> Metrics {
    let mut m = Metrics::new();
    let bb = std::hint::black_box::<usize>;

    // xdr: the argument and result images through XdrEncoder / XdrDecoder.
    let encode = |enc: &mut XdrEncoder| {
        frames.wire_args.iter().for_each(|a| a.put(enc));
        frames.results.iter().for_each(|v| v.put(enc));
    };
    m.insert(
        "xdr.encode_us",
        median_us(budget, || {
            let mut enc = XdrEncoder::new();
            encode(&mut enc);
            bb(enc.len());
        }),
    );
    let image = {
        let mut enc = XdrEncoder::new();
        encode(&mut enc);
        enc.finish()
    };
    m.insert(
        "xdr.decode_us",
        median_us(budget, || {
            let mut dec = XdrDecoder::new(&image);
            for _ in 0..frames.wire_args.len() {
                std::hint::black_box(Arg::get(&mut dec).expect("replayed image decodes"));
            }
            for _ in 0..frames.results.len() {
                std::hint::black_box(Value::get(&mut dec).expect("replayed image decodes"));
            }
        }),
    );

    // idl: interpreting the compiled interface for the call's scalars.
    let interface = stdlib_interface(w.routine);
    let scalars: Vec<(&str, i64)> = interface
        .scalar_table
        .iter()
        .map(|name| (name.as_str(), w.n as i64))
        .collect();
    m.insert(
        "idl.layout_us",
        median_us(budget, || {
            let layout = interface.layout(&scalars).expect("stdlib layout resolves");
            bb(layout.len());
        }),
    );

    // protocol: digest, CRC, framing, chunking.
    let cacheable_args: Vec<&Value> = frames.args.iter().filter(|v| cacheable(v)).collect();
    m.insert(
        "protocol.digest_us",
        median_us(budget, || {
            for v in &cacheable_args {
                std::hint::black_box(digest_value(v));
            }
        }),
    );
    let invoke_frame = encode_frame(1, &frames.invoke).expect("invoke frames");
    let reply_frame = encode_frame(1, &frames.reply).expect("reply frames");
    m.insert(
        "protocol.crc_us",
        median_us(budget, || {
            bb(crc32c(&invoke_frame[FRAME_HEADER_BYTES..]) as usize);
            bb(crc32c(&reply_frame[FRAME_HEADER_BYTES..]) as usize);
        }),
    );
    m.insert(
        "protocol.frame_encode_us",
        median_us(budget, || {
            bb(encode_frame(1, &frames.invoke)
                .expect("invoke frames")
                .len());
            bb(encode_frame(1, &frames.reply).expect("reply frames").len());
        }),
    );
    m.insert(
        "protocol.frame_decode_us",
        median_us(budget, || {
            for frame in [&invoke_frame, &reply_frame] {
                let header: &[u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES]
                    .try_into()
                    .expect("frame holds a header");
                let header = parse_frame_header(header).expect("own header parses");
                let msg = check_frame_payload(&header, &frame[FRAME_HEADER_BYTES..])
                    .expect("own payload checks");
                std::hint::black_box(msg);
            }
        }),
    );
    let (split_us, reassembly_us) = match &frames.bulk {
        Some(b) => {
            let chunks = split_chunks(b.digest, &b.image, b.chunk_bytes);
            (
                median_us(budget, || {
                    bb(split_chunks(b.digest, &b.image, b.chunk_bytes).len());
                }),
                median_us(budget, || {
                    let mut r = Reassembly::new(b.digest, b.image.len() as u64, b.chunks)
                        .expect("own geometry is legal");
                    for c in &chunks {
                        let Message::PutArgChunk {
                            total_bytes,
                            total,
                            seq,
                            crc,
                            bytes,
                            ..
                        } = c
                        else {
                            unreachable!("split yields only PutArgChunk")
                        };
                        r.accept(*total_bytes, *total, *seq, *crc, bytes)
                            .expect("own chunk lands");
                    }
                    bb(r.into_image().expect("own image verifies").len());
                }),
            )
        }
        None => (0.0, 0.0),
    };
    m.insert("protocol.chunk_split_us", split_us);
    m.insert("protocol.reassembly_us", reassembly_us);
    m.insert("protocol.shape_floor_ms", shape_floor_ms(w, frames));

    // reactor: a constant-reply handler behind the real event loop, driven
    // over MuxStream with this workload's frames — socket, poll, dispatch
    // and hand-off with no server logic.
    let (rtt_us, echo_rate) = reactor_echo(frames, budget);
    m.insert("reactor.echo_rtt_us", rtt_us);
    m.insert("reactor.echo_calls_per_s", echo_rate);

    // server: the arg store on the call's cacheable values, the uncontended
    // gate.
    let store = ArgStore::new(DEFAULT_ARG_CACHE_BYTES);
    let (mut refd, mut inline) = (Vec::new(), Vec::new());
    for (a, v) in frames.wire_args.iter().zip(&frames.args) {
        match a {
            Arg::Ref(d) => {
                store.insert(*d, v.clone());
                refd.push(*d);
            }
            Arg::Data(v) if cacheable(v) => inline.push(v),
            Arg::Data(_) => {}
        }
    }
    m.insert(
        "server.argstore_get_us",
        if refd.is_empty() {
            0.0
        } else {
            median_us(budget, || {
                for d in &refd {
                    std::hint::black_box(store.get(d));
                }
            })
        },
    );
    let mut fresh = 0u64;
    m.insert(
        "server.argstore_insert_us",
        if inline.is_empty() {
            0.0
        } else {
            // A new digest every time, as a fresh value has: the store fills
            // to its budget and then evicts, like the live server's.
            median_us(budget, || {
                for v in &inline {
                    fresh += 1;
                    bb(store.insert(
                        Digest {
                            hi: fresh,
                            lo: !fresh,
                        },
                        (*v).clone(),
                    ));
                }
            })
        },
    );
    let gate = JobGate::new(w.pes, SchedPolicy::Fcfs);
    m.insert(
        "server.jobgate_us",
        median_us(budget, || {
            drop(gate.acquire(JobInfo {
                arrival_seq: 0,
                estimated_cost: 0.0,
                pes_required: 1,
            }));
        }),
    );

    // exec: the kernel alone.
    let mut kernel = Vec::with_capacity(TARGET_ITERS);
    let started = Instant::now();
    while kernel.len() < TARGET_ITERS && (kernel.len() < MIN_ITERS || started.elapsed() < budget) {
        gen::local_kernel(w.routine, &frames.args, &mut |run| {
            let t = Instant::now();
            run();
            kernel.push(t.elapsed().as_secs_f64() * 1e6);
        });
    }
    let kernel_us = stats::median(&kernel);
    m.insert("exec.kernel_ms", kernel_us / 1e3);
    m.insert(
        "exec.kernel_mflops",
        gen::flops(w.routine, w.n) / kernel_us.max(1e-3),
    );

    // Not a metric of its own, but on the blocking path: the server digests
    // every cacheable argument that arrived inline before storing it.
    let server_digest_us = if inline.is_empty() {
        0.0
    } else {
        median_us(budget, || {
            for v in &inline {
                std::hint::black_box(digest_value(v));
            }
        })
    };
    lay_spans(&m, server_digest_us, frames, rec);
    m
}

/// What the shaped link alone costs one call, computed (not measured) from
/// the spec: every shaped send holds the link for `bytes / bw` and then
/// sleeps the one-way delay. 0 on unshaped workloads.
fn shape_floor_ms(w: &Workload, frames: &Frames) -> f64 {
    if !w.wan {
        return 0.0;
    }
    let shape = crate::live::wan_shape();
    let (mut sends, mut bytes) = (1usize, frames.invoke_frame_bytes);
    if let Some(b) = &frames.bulk {
        let acks = b.chunks as usize
            * frame_len(&Message::ChunkOk {
                digest: b.digest,
                seq: 0,
            });
        sends += b.chunks as usize;
        bytes += b.upload_wire_bytes - acks;
    }
    let tx_s = if shape.bytes_per_sec == 0 {
        0.0
    } else {
        bytes as f64 / shape.bytes_per_sec as f64
    };
    (tx_s + sends as f64 * shape.delay_us as f64 * 1e-6) * 1e3
}

fn stdlib_interface(routine: &str) -> ninf_idl::CompiledInterface {
    let mut registry = ninf_server::Registry::new();
    ninf_server::builtin::register_stdlib(&mut registry, false);
    registry
        .lookup(routine)
        .unwrap_or_else(|| panic!("stdlib has no routine `{routine}`"))
        .interface
        .clone()
}

/// Median round trip on one connection and calls per second over two.
fn reactor_echo(frames: &Frames, budget: Duration) -> (f64, f64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let reply = frames.reply.clone();
    let handle = Reactor::start(
        listener,
        ReactorConfig::default(),
        Arc::new(move |_req| Some(reply.clone())),
        ReactorHooks::default(),
    )
    .expect("reactor starts");
    let addr = handle.local_addr().to_string();
    let echo = |stream: &MuxStream| {
        let mut h = stream.handle();
        move || {
            h.send(&frames.invoke).expect("echo send");
            std::hint::black_box(h.recv().expect("echo reply"));
        }
    };
    let dial = || MuxStream::connect(&addr, None, 1).expect("echo dial");

    let one = dial();
    let rtt_us = median_us(budget, echo(&one));
    drop(one);

    let streams = [dial(), dial()];
    let started = Instant::now();
    let calls: usize = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let mut call = echo(stream);
                s.spawn(move || {
                    let mut n = 0usize;
                    while n < MIN_ITERS || started.elapsed() < budget {
                        call();
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("echo worker"))
            .sum()
    });
    let rate = calls as f64 / started.elapsed().as_secs_f64();
    drop(streams);
    handle.shutdown();
    (rtt_us, rate)
}

/// Lay the replay rows end to end along one call's blocking path, nested
/// so that a span's self time is its row minus the rows it contains: the
/// echo round trip contains both frames' encode and decode, which contain
/// their XDR and CRC passes.
fn lay_spans(m: &Metrics, server_digest_us: f64, frames: &Frames, rec: &mut Recorder) {
    let row = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let mut at = 0.0f64;
    let root = rec.record(REPLAY_TRACE, None, "replay.call", 0.0, 0.0);
    let leaf = |rec: &mut Recorder, parent: u32, name: &'static str, dur: f64, at: &mut f64| {
        let id = rec.record(REPLAY_TRACE, Some(parent), name, *at, *at + dur);
        *at += dur;
        id
    };
    leaf(rec, root, "idl.layout", row("idl.layout_us"), &mut at);
    leaf(
        rec,
        root,
        "protocol.digest",
        row("protocol.digest_us"),
        &mut at,
    );

    // The echo row measured socket + reactor + both frames' codec at once.
    let echo = row("reactor.echo_rtt_us");
    let codec = row("protocol.frame_encode_us") + row("protocol.frame_decode_us");
    let echo_id = rec.record(
        REPLAY_TRACE,
        Some(root),
        "reactor.echo",
        at,
        at + echo.max(codec),
    );
    let mut inner = at;
    for (name, xdr, total) in [
        (
            "protocol.frame_encode",
            row("xdr.encode_us"),
            row("protocol.frame_encode_us"),
        ),
        (
            "protocol.frame_decode",
            row("xdr.decode_us"),
            row("protocol.frame_decode_us"),
        ),
    ] {
        let id = rec.record(REPLAY_TRACE, Some(echo_id), name, inner, inner + total);
        let mut t = inner;
        // Each direction pays one CRC pass over both payloads.
        let crc = row("protocol.crc_us").min(total);
        leaf(rec, id, "protocol.crc", crc, &mut t);
        leaf(rec, id, "xdr", xdr.min(total - crc), &mut t);
        inner += total;
    }
    at += echo.max(codec);

    // Server side: an inline cacheable argument is digested again and
    // inserted; a ref is looked up.
    leaf(
        rec,
        root,
        "protocol.digest(server)",
        server_digest_us,
        &mut at,
    );
    leaf(
        rec,
        root,
        "server.argstore_insert",
        row("server.argstore_insert_us"),
        &mut at,
    );
    leaf(
        rec,
        root,
        "server.argstore_get",
        row("server.argstore_get_us"),
        &mut at,
    );
    leaf(
        rec,
        root,
        "server.jobgate",
        row("server.jobgate_us"),
        &mut at,
    );
    leaf(
        rec,
        root,
        "exec.kernel",
        row("exec.kernel_ms") * 1e3,
        &mut at,
    );
    if frames.bulk.is_some() {
        leaf(
            rec,
            root,
            "protocol.chunk_split",
            row("protocol.chunk_split_us"),
            &mut at,
        );
        leaf(
            rec,
            root,
            "protocol.reassembly",
            row("protocol.reassembly_us"),
            &mut at,
        );
    }
    leaf(
        rec,
        root,
        "protocol.shape_floor(computed)",
        row("protocol.shape_floor_ms") * 1e3,
        &mut at,
    );
    rec.set_end(root, at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    /// `wan-bulk`'s call over an unshaped connection: the matrix travels
    /// inline on every call, which no shipped workload small enough for a
    /// unit test does.
    fn inline_linpack() -> Workload {
        Workload {
            name: "inline-linpack",
            wan: false,
            ..*workload("wan-bulk").unwrap()
        }
    }

    /// Argument positions the steady-state `Invoke` names by digest.
    fn refd(f: &Frames) -> usize {
        f.wire_args
            .iter()
            .filter(|a| matches!(a, Arg::Ref(_)))
            .count()
    }

    #[test]
    fn invoke_bytes_formula_matches_the_codec() {
        // Not the n=1024 workloads: factorising is too slow for a unit test.
        let inline = inline_linpack();
        let small = ["small-call", "wan-bulk"].map(|name| workload(name).unwrap());
        for w in small.into_iter().chain([&inline]) {
            let name = w.name;
            let f = Frames::build(w, gen::base_args(w, 5));
            let shipped: usize = f
                .wire_args
                .iter()
                .map(|a| match a {
                    Arg::Data(v) if !v.is_scalar() => v.wire_bytes(),
                    _ => 0,
                })
                .sum();
            assert_eq!(
                f.invoke_bytes(1, shipped, refd(&f)),
                f.invoke_frame_bytes,
                "{name}"
            );
            assert_eq!(
                f.invoke_bytes(1, f.request_payload_bytes, 0),
                f.inline_invoke_frame_bytes,
                "{name}"
            );
        }
    }

    fn wan_bulk_frames() -> Frames {
        let w = workload("wan-bulk").unwrap();
        Frames::build(w, gen::base_args(w, 5))
    }

    #[test]
    fn wan_bulk_ships_its_matrix_in_chunks() {
        let f = wan_bulk_frames();
        let b = f
            .bulk
            .as_ref()
            .expect("matrix is above the chunk threshold");
        assert_eq!(b.chunks, 5);
        assert!(b.upload_wire_bytes > b.image.len());
        assert_eq!(refd(&f), 1);
        let lan = inline_linpack();
        assert!(Frames::build(&lan, gen::base_args(&lan, 5)).bulk.is_none());
    }

    #[test]
    fn median_us_times_short_and_long_operations() {
        let short = median_us(Duration::from_millis(5), || {
            std::hint::black_box(1 + 1);
        });
        let long = median_us(Duration::from_millis(5), || {
            std::thread::sleep(Duration::from_micros(300));
        });
        assert!(short < 5.0, "short={short}");
        assert!(long >= 300.0, "long={long}");
    }
}
