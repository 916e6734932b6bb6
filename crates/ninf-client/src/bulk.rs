//! Parallel-stream chunked bulk transfer — the client half of the
//! GridFTP-style WAN path.
//!
//! A large argument's XDR image is split into CRC-tagged chunks
//! ([`ninf_protocol::chunk`]) and fanned out over `N` dedicated
//! multiplexed streams to the server, which reassembles and lands the
//! value in its argument store; the call itself then names the value by
//! content ref. On a long-fat link, `N` concurrent stop-and-wait lanes
//! pipeline through each other's propagation gaps, so goodput rises with
//! `N` until the link saturates — the parallel-TCP shape WAN data movers
//! exploit.
//!
//! Lane `w` owns chunks `w, w+N, w+2N, …`: ownership is static, so a
//! failed lane fails *only its own chunks* and the upload as a whole
//! (the caller falls back to shipping the value inline), never a
//! half-written image — the server's reassembly holds partial state
//! until every chunk lands and the digest verifies.
//!
//! Loss recovery is per chunk: a lane whose ack does not arrive within
//! the deadline retransmits the same chunk (bounded by
//! [`MAX_CHUNK_ATTEMPTS`]); the server re-acks duplicates idempotently,
//! so a lost ack is indistinguishable from a lost chunk and both heal
//! the same way. A dead connection is redialed once per lane.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use ninf_protocol::{
    link_for, split_chunks, Digest, LinkShape, LinkTransport, Message, ProtocolError,
    ProtocolResult, Transport,
};
use ninf_reactor::MuxStream;

/// Send-plus-ack attempts per chunk before a lane gives up.
pub const MAX_CHUNK_ATTEMPTS: u32 = 4;

/// Per-operation deadline a bulk lane uses when the caller set none —
/// without one, a lost chunk on a lossy link would hang the lane forever
/// instead of triggering a retransmit.
pub const DEFAULT_LANE_DEADLINE: Duration = Duration::from_secs(2);

/// What one parallel upload did, for timing/throughput accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UploadReport {
    /// Chunks the image split into.
    pub chunks: u32,
    /// Lanes actually used (≤ requested: never more than one per chunk).
    pub streams: u32,
    /// Image bytes shipped (chunk payloads, excluding retransmits).
    pub bytes: u64,
    /// Chunk retransmits after a lost chunk or ack.
    pub retransmits: u32,
    /// Lanes that tore down a dead connection and redialed.
    pub redials: u32,
}

/// One lane's connection: the mux stream must outlive its handle (dropping
/// a [`MuxStream`] shuts the socket down), and the handle may be wrapped
/// in client-side WAN shaping.
struct Lane {
    _stream: MuxStream,
    transport: Box<dyn Transport>,
}

/// Dial one bulk lane. Shaped lanes contend for the destination's shared
/// link with deterministic, decorrelated per-lane loss schedules
/// (lane id 0 is reserved for the call connection itself).
fn dial_lane(
    addr: &str,
    deadline: Duration,
    wan: Option<LinkShape>,
    lane_id: u32,
) -> ProtocolResult<Lane> {
    let stream = MuxStream::connect(addr, Some(deadline), 1)?;
    let mut handle = stream.handle();
    handle.set_deadline(Some(deadline))?;
    let transport: Box<dyn Transport> = match wan {
        Some(shape) => Box::new(LinkTransport::new(handle, link_for(addr, shape), lane_id)),
        None => Box::new(handle),
    };
    Ok(Lane {
        _stream: stream,
        transport,
    })
}

/// Counters the lanes share while an upload is in flight.
#[derive(Default)]
struct LaneCounters {
    retransmits: AtomicU32,
    redials: AtomicU32,
}

/// Run one lane: ship every chunk it owns, stop-and-wait, with bounded
/// retransmission and one redial.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    addr: &str,
    chunks: &[Message],
    lane: u32,
    streams: u32,
    deadline: Duration,
    wan: Option<LinkShape>,
    counters: &LaneCounters,
) -> ProtocolResult<()> {
    let mut conn = dial_lane(addr, deadline, wan, lane + 1)?;
    let mut redialed = false;
    let mut idx = lane as usize;
    while idx < chunks.len() {
        let msg = &chunks[idx];
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let outcome = conn
                .transport
                .send(msg)
                .and_then(|()| conn.transport.recv());
            match outcome {
                Ok(Message::ChunkOk { seq, .. }) if seq == idx as u32 => break,
                Ok(Message::Error { reason }) => return Err(ProtocolError::Remote(reason)),
                Ok(other) => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "ChunkOk",
                        got: other.kind().to_owned(),
                    })
                }
                Err(ProtocolError::Timeout { .. }) if attempts < MAX_CHUNK_ATTEMPTS => {
                    // Chunk or ack lost in flight: same frame, same lane.
                    counters.retransmits.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.is_retryable() && !redialed => {
                    // The connection died mid-fan-out; one fresh dial, then
                    // resume from the chunk in hand. The server re-acks
                    // anything the dead lane already landed.
                    redialed = true;
                    counters.redials.fetch_add(1, Ordering::Relaxed);
                    conn = dial_lane(addr, deadline, wan, lane + 1)?;
                }
                Err(e) => return Err(e),
            }
        }
        idx += streams as usize;
    }
    Ok(())
}

/// Ship one value image to `addr` as chunks fanned out over `streams`
/// parallel lanes, blocking until the server has reassembled, verified,
/// and stored it under `digest` — or until any lane exhausts its
/// retries, which fails the whole upload (the caller then ships the
/// value inline; nothing partial ever escapes).
pub fn parallel_put(
    addr: &str,
    digest: Digest,
    image: &[u8],
    streams: u32,
    chunk_bytes: u32,
    deadline: Option<Duration>,
    wan: Option<LinkShape>,
) -> ProtocolResult<UploadReport> {
    let chunks = split_chunks(digest, image, chunk_bytes.max(1));
    let total = chunks.len() as u32;
    let streams = streams.clamp(1, total);
    let deadline = deadline.unwrap_or(DEFAULT_LANE_DEADLINE);
    let counters = LaneCounters::default();
    let outcome: ProtocolResult<()> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..streams)
            .map(|w| {
                let chunks = &chunks;
                let counters = &counters;
                s.spawn(move || run_lane(addr, chunks, w, streams, deadline, wan, counters))
            })
            .collect();
        let mut first_err = None;
        for w in workers {
            let lane_result = w
                .join()
                .unwrap_or_else(|_| Err(ProtocolError::Remote("bulk lane panicked".into())));
            if let Err(e) = lane_result {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    });
    outcome.map(|()| UploadReport {
        chunks: total,
        streams,
        bytes: image.len() as u64,
        retransmits: counters.retransmits.load(Ordering::Relaxed),
        redials: counters.redials.load(Ordering::Relaxed),
    })
}
