//! Live tests of the parallel-stream bulk-transfer path: chunked uploads
//! fanned out over multiplexed lanes against a real server, with the call
//! itself naming the shipped value by content ref.

use std::time::Duration;

use ninf_client::{parallel_put, CallOptions, NinfClient};
use ninf_protocol::{LinkShape, Value};
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

fn start_server() -> NinfServer {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap()
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
fn large_args_preship_over_parallel_lanes_and_the_call_refs_them() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect_with(&addr, bulk_opts(4)).unwrap();
    // Fresh per-server-address digest memory: the dial address has a fresh
    // port, so nothing is believed held yet.
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(!out.is_empty());

    let timing = client.last_timing().unwrap();
    assert_eq!(timing.bulk_streams, 4, "four lanes requested and used");
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
    let mut client = NinfClient::connect_with(&addr, bulk_opts(2)).unwrap();
    let args = big_linpack_args();
    client.ninf_call("linpack", &args).unwrap();

    // Evict everything server-side: the next ref'd call draws NeedArg (for
    // the matrix *and* the 1 KiB rhs, both cacheable), and the refill must
    // travel back over the bulk lanes — the replayed request still ships
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
    // A lossy, delayed, capped link between the lanes and the server: the
    // transfer must still complete exactly (retransmits recover every lost
    // chunk) — the correctness half of the WAN story.
    let server = start_server();
    let addr = server.addr().to_string();
    let shape = LinkShape::parse("bw=64m,delay=1ms,loss=0.02,seed=7").unwrap();
    let v = Value::DoubleArray((0..25_000).map(|i| i as f64 * 0.5).collect());
    let image = ninf_protocol::value_image(&v);
    let digest = ninf_protocol::Digest::of(&image);
    let report = parallel_put(
        &addr,
        digest,
        &image,
        4,
        8192,
        Some(Duration::from_millis(300)),
        Some(shape),
    )
    .unwrap();
    assert_eq!(report.streams, 4);
    assert_eq!(report.bytes, image.len() as u64);
    // loss=2% over ~25 chunks usually costs a retransmit, but the schedule
    // is seed-dependent; what matters is the image landed and verified.
    assert!(server.arg_store().contains(&digest));
    let (_, rejects, uploads, _) = server.metrics().chunked();
    assert_eq!((rejects, uploads), (0, 1));
    server.shutdown();
}

#[test]
fn a_dead_lane_loses_only_its_own_chunks_and_a_fresh_lane_finishes_them() {
    // The partition story at the chunk-protocol level: two lanes with
    // strided chunk ownership, one dies mid-upload. The survivor's chunks
    // must all land and be retained; only the dead lane's stride is
    // missing, and a replacement connection can finish exactly that
    // stride — including an idempotent re-ack of the chunk the dead lane
    // did deliver.
    let server = start_server();
    let addr = server.addr().to_string();
    let v = Value::DoubleArray((0..20_000).map(|i| (i as f64).sin()).collect());
    let image = ninf_protocol::value_image(&v);
    let digest = ninf_protocol::Digest::of(&image);
    let chunks = ninf_protocol::split_chunks(digest, &image, 8192);
    assert!(
        chunks.len() >= 6,
        "need a real fan-out: {} chunks",
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

    // Lane A (even seqs) ships exactly one chunk, then dies.
    let mut lane_a = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    send_chunk(&mut lane_a, &chunks[0]);
    drop(lane_a);

    // Lane B (odd seqs) delivers its whole stride untouched.
    let mut lane_b = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    for m in chunks.iter().skip(1).step_by(2) {
        send_chunk(&mut lane_b, m);
    }
    assert!(
        !server.arg_store().contains(&digest),
        "the upload must not complete while the dead lane's chunks are missing"
    );

    // A replacement lane re-walks the dead lane's stride from the top.
    let mut lane_a2 = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    for m in chunks.iter().step_by(2) {
        send_chunk(&mut lane_a2, m);
    }
    assert!(server.arg_store().contains(&digest));
    let (_, rejects, uploads, bytes) = server.metrics().chunked();
    assert_eq!(rejects, 0, "a duplicate retransmit re-acks, never rejects");
    assert_eq!(uploads, 1);
    assert!(bytes >= image.len() as u64);
    server.shutdown();
}

#[test]
fn when_every_lane_dies_the_call_falls_back_inline_and_still_succeeds() {
    // A lane deadline no loopback round trip can beat: every chunk times
    // out, every lane dies, and the upload as a whole fails. The *call*
    // must absorb that — ship the value inline over the healthy call
    // connection — and the failed upload may not be accounted as bulk.
    let server = start_server();
    let addr = server.addr().to_string();
    let opts = CallOptions {
        streams: 4,
        chunk_bytes: 4096,
        lane_deadline: Some(Duration::from_nanos(1)),
        ..CallOptions::with_deadline(Duration::from_secs(30))
    };
    let mut client = NinfClient::connect_with(&addr, opts).unwrap();
    let args = big_linpack_args();
    let out = client.ninf_call("linpack", &args).unwrap();
    assert!(!out.is_empty());
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
    // No dial address: bulk fan-out is impossible, and the call must fall
    // back to plain inline shipping instead of failing.
    let server = start_server();
    let addr = server.addr().to_string();
    let t = ninf_protocol::TcpTransport::connect(&addr).unwrap();
    let mut client = NinfClient::from_transport(Box::new(t));
    client.set_options(bulk_opts(8)).unwrap();
    let args = big_linpack_args();
    client.ninf_call("linpack", &args).unwrap();
    let timing = client.last_timing().unwrap();
    assert_eq!(timing.bulk_streams, 0);
    assert_eq!(timing.bulk_bytes, 0);
    server.shutdown();
}

#[test]
fn a_silent_server_sees_each_chunk_four_times_and_only_one_connection() {
    // A peer that takes every chunk and acks none. Deadlines are not
    // deaths: the lane must give up after `MAX_CHUNK_ATTEMPTS` sends of a
    // chunk on the connection it has, not redial a healthy one and send a
    // fifth copy down it.
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

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
    let err = parallel_put(
        &addr,
        digest,
        &image,
        1,
        1024,
        Some(Duration::from_millis(40)),
        None,
    )
    .unwrap_err();
    assert!(err.is_timeout(), "{err}");
    // The lane has hung up (its readers see EOF); wake the acceptor.
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
