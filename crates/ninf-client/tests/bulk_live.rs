//! Live tests of the bulk upload path: chunked uploads over one windowed,
//! multiplexed lane against a real server, with the call itself naming the
//! shipped value by content ref.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ninf_client::{upload, CallOptions, NinfClient};
use ninf_protocol::{LinkShape, Value};
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

fn start_server() -> NinfServer {
    start_server_with(ServerConfig::default())
}

fn start_server_with(config: ServerConfig) -> NinfServer {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    NinfServer::start("127.0.0.1:0", registry, config).unwrap()
}

/// A TCP relay in front of `upstream` that counts the connections it
/// accepts. It relays until either side hangs up.
fn counting_relay(upstream: String) -> (String, Arc<AtomicU32>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepted = Arc::new(AtomicU32::new(0));
    let count = accepted.clone();
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { break };
            count.fetch_add(1, Ordering::SeqCst);
            let server = TcpStream::connect(&upstream).unwrap();
            let legs = [
                (client.try_clone().unwrap(), server.try_clone().unwrap()),
                (server, client),
            ];
            for (mut from, mut to) in legs {
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Write);
                });
            }
        }
    });
    (addr, accepted)
}

/// Whether a linpack reply carries the solution of `args`' system,
/// computed here with the kernel the server runs.
fn solves(args: &[Value], out: &[Value]) -> bool {
    let [Value::Int(n), Value::DoubleArray(a), Value::DoubleArray(b)] = args else {
        panic!("not linpack arguments")
    };
    let mut a = ninf_exec::Matrix::from_col_major(*n as usize, *n as usize, a.clone());
    let ipvt = ninf_exec::dgefa(&mut a).unwrap();
    let mut x = b.clone();
    ninf_exec::dgesl(&a, &ipvt, &mut x);
    out.first() == Some(&Value::DoubleArray(x))
}

fn bulk_opts(streams: u32) -> CallOptions {
    CallOptions {
        streams,
        chunk_bytes: 4096,
        ..CallOptions::with_deadline(Duration::from_secs(10))
    }
}

/// linpack arguments whose matrix clears the 64 KiB chunking threshold
/// (8·128·128 = 128 KiB image).
fn big_linpack_args() -> Vec<Value> {
    let n = 128usize;
    let (a, b) = ninf_exec::matgen(n);
    vec![
        Value::Int(n as i32),
        Value::DoubleArray(a.as_slice().to_vec()),
        Value::DoubleArray(b),
    ]
}

#[test]
fn large_args_preship_over_one_lane_and_the_call_refs_them() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect_with(&addr, bulk_opts(1)).unwrap();
    // Fresh per-server-address digest memory: the dial address has a fresh
    // port, so nothing is believed held yet.
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(solves(&args, &out));

    let timing = client.last_timing().unwrap();
    let image_len = ninf_protocol::value_image(&args[1]).len();
    assert_eq!(
        timing.bulk_bytes, image_len,
        "exactly the matrix pre-shipped"
    );
    assert_eq!(timing.args_refd, 1, "the call names the upload by ref");
    assert!(
        timing.request_bytes < image_len,
        "the Invoke itself stays small: {} bytes",
        timing.request_bytes
    );

    let (chunks, rejects, uploads, chunk_bytes) = server.metrics().chunked();
    assert_eq!(uploads, 1);
    assert_eq!(rejects, 0);
    assert_eq!(chunk_bytes, image_len as u64);
    assert_eq!(chunks, (image_len as u64).div_ceil(4096));
    assert!(server
        .arg_store()
        .contains(&ninf_protocol::digest_value(&args[1])));
    server.shutdown();
}

/// Any stream count past zero means one windowed lane: the call opens its
/// own connection and exactly one more for the upload, never one per
/// requested stream.
#[test]
fn streams_four_still_opens_exactly_one_bulk_connection() {
    let server = start_server();
    let (relay, accepted) = counting_relay(server.addr().to_string());
    let mut client = NinfClient::connect_with(&relay, bulk_opts(4)).unwrap();
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(solves(&args, &out));
    let timing = client.last_timing().unwrap();
    assert_eq!(
        timing.bulk_bytes,
        ninf_protocol::value_image(&args[1]).len(),
        "the matrix went over the bulk lane"
    );
    // Both connections carried traffic, so the relay has accepted both.
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        2,
        "one bulk connection beside the call's"
    );
    let (_, _, uploads, _) = server.metrics().chunked();
    assert_eq!(uploads, 1);
    server.shutdown();
}

/// Why a failed upload still falls back inline: a server with its argument
/// store disabled refuses every upload, and shipping the value with the
/// call is then the only way the call can succeed.
#[test]
fn a_store_disabled_server_refuses_the_upload_and_the_call_succeeds_inline() {
    let server = start_server_with(ServerConfig {
        arg_cache_bytes: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect_with(&addr, bulk_opts(1)).unwrap();
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(solves(&args, &out), "a wrong answer");
    let timing = client.last_timing().unwrap();
    assert_eq!(timing.bulk_bytes, 0, "the refused upload is not accounted");
    let image_len = ninf_protocol::value_image(&args[1]).len();
    assert!(
        timing.request_bytes >= image_len,
        "the matrix went inline: {} request bytes",
        timing.request_bytes
    );
    let (_, _, uploads, _) = server.metrics().chunked();
    assert_eq!(uploads, 0, "nothing landed in a disabled store");
    server.shutdown();
}

/// The tripwire for a split digest definition: an upload is named by
/// `Digest::of` over the image, a call by `digest_value` over the value.
/// Were they two functions, every call would find its upload unknown and
/// ship the matrix inline as well — slower, never wrong, so only the
/// client's own counters can tell.
#[test]
fn an_uploaded_value_is_named_by_ref_and_never_shipped_inline_again() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect_with(&addr, bulk_opts(1)).unwrap();
    let args = big_linpack_args();
    let image_len = ninf_protocol::value_image(&args[1]).len();
    for call in 0..3 {
        client.ninf_call("linpack", &args).unwrap();
        let t = client.last_timing().unwrap();
        let uploaded = if call == 0 { image_len } else { 0 };
        assert_eq!(t.bulk_bytes, uploaded, "call {call}: one upload, ever");
        // The rhs ships inline once, then is named by ref like the matrix.
        assert_eq!(t.args_refd, if call == 0 { 1 } else { 2 }, "call {call}");
        assert_eq!(t.args_refilled, 0, "call {call}");
        assert!(
            t.request_bytes < 2048,
            "call {call}: no inline copy of the matrix ({} bytes)",
            t.request_bytes
        );
    }
    let (_, _, uploads, _) = server.metrics().chunked();
    assert_eq!(uploads, 1);
    server.shutdown();
}

#[test]
fn need_arg_refills_over_the_bulk_lanes_and_replays_the_refs() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect_with(&addr, bulk_opts(1)).unwrap();
    let args = big_linpack_args();
    client.ninf_call("linpack", &args).unwrap();

    // Evict everything server-side: the next ref'd call draws NeedArg (for
    // the matrix *and* the 1 KiB rhs, both cacheable), and the refill must
    // travel back over the bulk lane — the replayed request still ships
    // refs, so its inline payload is zero.
    server.arg_store().clear();
    client.ninf_call("linpack", &args).unwrap();
    let timing = client.last_timing().unwrap();
    assert_eq!(timing.args_refilled, 2);
    let refilled =
        ninf_protocol::value_image(&args[1]).len() + ninf_protocol::value_image(&args[2]).len();
    assert_eq!(timing.bulk_bytes, refilled, "both refills went as chunks");
    assert_eq!(timing.request_bytes, 0, "no inline fallback");
    let (_, _, uploads, _) = server.metrics().chunked();
    assert_eq!(uploads, 3, "cold matrix pre-ship plus two refills");
    server.shutdown();
}

#[test]
fn shaped_bulk_upload_still_lands_byte_identically() {
    // A lossy, delayed, capped link between the lane and the server: the
    // transfer must still complete exactly (retransmits recover every lost
    // chunk) — the correctness half of the WAN story.
    let server = start_server();
    let addr = server.addr().to_string();
    let shape = LinkShape::parse("bw=64m,delay=1ms,loss=0.02,seed=7").unwrap();
    let v = Value::DoubleArray((0..25_000).map(|i| i as f64 * 0.5).collect());
    let image = ninf_protocol::value_image(&v);
    let digest = ninf_protocol::Digest::of(&image);
    let report = upload(
        &addr,
        digest,
        &image,
        8192,
        Some(Duration::from_millis(300)),
        Some(shape),
    )
    .unwrap();
    assert_eq!(report.bytes, image.len() as u64);
    // loss=2% over ~25 chunks usually costs a retransmit, but the schedule
    // is seed-dependent; what matters is the image landed and verified.
    assert!(server.arg_store().contains(&digest));
    let (_, rejects, uploads, _) = server.metrics().chunked();
    assert_eq!((rejects, uploads), (0, 1));
    server.shutdown();
}

#[test]
fn a_dead_connection_loses_only_its_unacked_chunks_and_a_fresh_one_finishes_them() {
    // What the upload's one redial relies on, at the chunk-protocol level:
    // a connection lands some chunks and dies; the server keeps them (its
    // reassembly is keyed by digest, not by connection), so a fresh
    // connection sends only the rest — starting with one the dead
    // connection had landed (as when its ack is lost with the connection),
    // which the server re-acks instead of rejecting.
    let server = start_server();
    let addr = server.addr().to_string();
    let v = Value::DoubleArray((0..20_000).map(|i| (i as f64).sin()).collect());
    let image = ninf_protocol::value_image(&v);
    let digest = ninf_protocol::Digest::of(&image);
    let chunks = ninf_protocol::split_chunks(digest, &image, 8192);
    assert!(
        chunks.len() >= 6,
        "need a real upload: {} chunks",
        chunks.len()
    );

    fn send_chunk(conn: &mut ninf_protocol::TcpTransport, m: &ninf_protocol::Message) {
        use ninf_protocol::Transport;
        conn.send(m).unwrap();
        match conn.recv().unwrap() {
            ninf_protocol::Message::ChunkOk { .. } => {}
            other => panic!("expected ChunkOk, got {other:?}"),
        }
    }

    // The first connection lands k chunks, then dies.
    let k = 3;
    let mut first = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    for m in &chunks[..k] {
        send_chunk(&mut first, m);
    }
    drop(first);
    assert!(
        !server.arg_store().contains(&digest),
        "the upload must not complete while chunks are missing"
    );

    // The fresh one resends the last chunk the dead one landed, then
    // everything the dead one never sent.
    let mut fresh = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    for m in &chunks[k - 1..] {
        send_chunk(&mut fresh, m);
    }
    assert!(server.arg_store().contains(&digest));
    let (accepted, rejects, uploads, bytes) = server.metrics().chunked();
    assert_eq!(rejects, 0, "a duplicate retransmit re-acks, never rejects");
    assert_eq!(uploads, 1);
    assert_eq!(
        accepted,
        chunks.len() as u64,
        "the overlap is re-acked, not landed twice"
    );
    assert!(bytes >= image.len() as u64);
    server.shutdown();
}

#[test]
fn when_the_lane_dies_the_call_falls_back_inline_and_still_succeeds() {
    // A lane deadline no loopback round trip can beat: every chunk times
    // out, the lane gives up, and the upload fails. The *call* must absorb
    // that — ship the value inline over the healthy call connection — and
    // the failed upload may not be accounted as bulk.
    let server = start_server();
    let addr = server.addr().to_string();
    let opts = CallOptions {
        streams: 1,
        chunk_bytes: 4096,
        lane_deadline: Some(Duration::from_nanos(1)),
        ..CallOptions::with_deadline(Duration::from_secs(30))
    };
    let mut client = NinfClient::connect_with(&addr, opts).unwrap();
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(solves(&args, &out));
    let timing = client.last_timing().unwrap();
    assert_eq!(timing.bulk_bytes, 0, "a failed upload is not accounted");
    assert_eq!(timing.args_refd, 0, "nothing pre-shipped, so nothing ref'd");
    let image_len = ninf_protocol::value_image(&args[1]).len();
    assert!(
        timing.request_bytes >= image_len,
        "the matrix went inline: {} request bytes",
        timing.request_bytes
    );
    server.shutdown();
}

#[test]
fn transport_wrapped_clients_ignore_the_streams_knob() {
    // No dial address: a bulk upload is impossible, and the call must fall
    // back to plain inline shipping instead of failing.
    let server = start_server();
    let addr = server.addr().to_string();
    let t = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    let mut client = NinfClient::from_transport(Box::new(t));
    client.set_options(bulk_opts(8)).unwrap();
    let args = big_linpack_args();
    client.ninf_call("linpack", &args).unwrap();
    let timing = client.last_timing().unwrap();
    assert_eq!(timing.bulk_bytes, 0);
    server.shutdown();
}

#[test]
fn a_silent_server_sees_each_chunk_four_times_and_only_one_connection() {
    // A peer that takes every chunk and acks none. Deadlines are not
    // deaths: the upload must give up after `MAX_CHUNK_ATTEMPTS` sends of a
    // chunk on the connection it has, not redial a healthy one and send a
    // fifth copy down it.
    use std::sync::atomic::AtomicBool;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let done = Arc::new(AtomicBool::new(false));
    let (conns, frames) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let acceptor = {
        let (done, conns, frames) = (done.clone(), conns.clone(), frames.clone());
        std::thread::spawn(move || {
            let mut readers = Vec::new();
            for stream in listener.incoming() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                conns.fetch_add(1, Ordering::SeqCst);
                let frames = frames.clone();
                readers.push(std::thread::spawn(move || {
                    let mut reader = std::io::BufReader::new(stream.unwrap());
                    while let Ok((_, msg)) = ninf_protocol::read_frame_mux(&mut reader) {
                        assert_eq!(msg.kind(), "PutArgChunk");
                        frames.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for r in readers {
                r.join().unwrap();
            }
        })
    };

    let image = vec![0x5a_u8; 3 * 1024];
    let digest = ninf_protocol::Digest::of(&image);
    let err = upload(
        &addr,
        digest,
        &image,
        1024,
        Some(Duration::from_millis(40)),
        None,
    )
    .unwrap_err();
    assert!(err.is_timeout(), "{err}");
    // The upload has hung up (its readers see EOF); wake the acceptor.
    done.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(&addr).unwrap());
    acceptor.join().unwrap();
    assert_eq!(
        conns.load(Ordering::SeqCst),
        1,
        "a deadline caused a redial"
    );
    assert_eq!(
        frames.load(Ordering::SeqCst),
        3 * ninf_client::MAX_CHUNK_ATTEMPTS,
        "every chunk goes MAX_CHUNK_ATTEMPTS times, no more"
    );
}

/// The call rides the upload's lane: over a 400 ms link with no bandwidth
/// cap, a bulk call pays the link delay once — its matrix and its `Invoke`
/// cross together — where uploading first and calling after the last ack
/// paid it twice (≥ 800 ms). The delay is long beside the call's own work
/// (digest, reassembly, a 128² linpack, unoptimised in a debug build), so
/// the 1.5 × delay bound leaves room for a slow host and none for a second
/// crossing. That the call's round trip overlapped the upload is checked
/// apart from the clock: a call sent after the last ack makes the two
/// intervals disjoint, so they could not sum past the call's total.
#[test]
fn a_shaped_bulk_call_pays_the_link_delay_once() {
    let server = start_server();
    let addr = server.addr().to_string();
    let delay = Duration::from_millis(400);
    let opts = CallOptions {
        wan: Some(LinkShape::parse("delay=400ms").unwrap()),
        ..bulk_opts(1)
    };
    let mut client = NinfClient::connect_with(&addr, opts).unwrap();
    let mut args = big_linpack_args();
    // The first call also fetches the interface over the link.
    client.ninf_call("linpack", &args).unwrap();
    // A fresh matrix: the second call uploads again and rides again.
    let Value::DoubleArray(a) = &mut args[1] else {
        unreachable!()
    };
    a[0] += 1.0;
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(solves(&args, &out));
    let t = client.last_timing().unwrap();
    assert_eq!(t.bulk_bytes, ninf_protocol::value_image(&args[1]).len());
    // By ref: the fresh matrix, and the rhs the first call shipped.
    assert_eq!((t.attempts, t.args_refd), (1, 2));
    assert!(
        t.total < delay.as_secs_f64() * 1.5,
        "a bulk call took {:.1} ms over a {delay:?} link: {t:?}",
        t.total * 1e3
    );
    assert!(t.upload > 0.0 && t.roundtrip > 0.0, "{t:?}");
    // A reply cannot precede its request's arrival: the link was crossed.
    assert!(t.roundtrip >= delay.as_secs_f64(), "{t:?}");
    assert!(
        t.upload + t.roundtrip > t.total,
        "the call was sent after the upload's last ack: {t:?}"
    );
    let (_, _, uploads, _) = server.metrics().chunked();
    assert_eq!(uploads, 2);
    server.shutdown();
}

/// A server that answers the interface query and then nothing — no chunk
/// ack, no reply to the call riding behind the chunks. The upload gives up
/// after its bounded retransmits, the call falls back to shipping its
/// matrix inline on the call connection, and that ends in a typed timeout:
/// never a hang.
#[test]
fn a_never_acking_server_ends_in_a_typed_error_after_the_inline_fallback() {
    use ninf_protocol::{encode_frame, read_frame_mux, Arg, Message};
    use std::io::Write;
    use std::sync::Mutex;

    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    let linpack = registry.lookup("linpack").unwrap().interface.clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Each `Invoke` the server saw: whether its matrix came by ref.
    let invokes = Arc::new(Mutex::new(Vec::new()));
    {
        let invokes = invokes.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let (invokes, linpack) = (invokes.clone(), linpack.clone());
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = std::io::BufReader::new(stream);
                    while let Ok((id, msg)) = read_frame_mux(&mut reader) {
                        match msg {
                            Message::QueryInterface { .. } => {
                                let reply = Message::InterfaceReply {
                                    interface: linpack.clone(),
                                };
                                writer
                                    .write_all(&encode_frame(id, &reply).unwrap())
                                    .unwrap();
                            }
                            Message::Invoke { args, .. } => {
                                let by_ref = matches!(args[1], Arg::Ref(_));
                                invokes.lock().unwrap().push(by_ref);
                            }
                            _ => {}
                        }
                    }
                });
            }
        });
    }
    let opts = CallOptions {
        lane_deadline: Some(Duration::from_millis(20)),
        ..bulk_opts(1)
    };
    let opts = CallOptions {
        deadline: Some(Duration::from_millis(500)),
        ..opts
    };
    let mut client = NinfClient::connect_with(&addr, opts).unwrap();
    let err = client
        .ninf_call("linpack", &big_linpack_args())
        .unwrap_err();
    assert!(err.is_timeout(), "{err}");
    let t = client.last_timing().unwrap();
    assert_eq!(t.bulk_bytes, 0, "a failed upload is not accounted");
    assert!(
        t.request_bytes >= 8 * 128 * 128,
        "the matrix went inline: {} request bytes",
        t.request_bytes
    );
    // The riding call named the matrix by ref; the fallback shipped it.
    assert_eq!(*invokes.lock().unwrap(), [true, false]);
}
