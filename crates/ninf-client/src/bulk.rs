//! Windowed, chunked bulk transfer — the client half of the GridFTP-style
//! WAN path.
//!
//! A large argument's XDR image is split into CRC-tagged chunks
//! ([`ninf_protocol::chunk`]) and shipped over dedicated multiplexed
//! streams to the server, which reassembles and lands the value in its
//! argument store; the call itself then names the value by content ref.
//!
//! Each lane keeps a **sliding window** of un-acked chunks
//! ([`ninf_protocol::lane_window`]: the link's bandwidth-delay product in
//! chunks when the link is named, a fixed cap when it is not): it sends
//! while fewer than `W` are outstanding and slides on every `ChunkOk`, in
//! whatever order acks return. On a long-fat link that is what fills the
//! pipe — one lane pays the propagation delay once per upload, not once per
//! chunk. More lanes than one are a workaround for a window smaller than
//! the bandwidth-delay product; with the window sized they add only
//! congestion (`results/BENCH_wan.json`).
//!
//! Lane `w` owns chunks `w, w+N, w+2N, …`: ownership is static, so a
//! failed lane fails *only its own chunks* and the upload as a whole
//! (the caller falls back to shipping the value inline), never a
//! half-written image — the server's reassembly holds partial state
//! until every chunk lands and the digest verifies.
//!
//! Loss recovery is selective repeat: every send carries its own deadline,
//! and only the chunk whose deadline passed is sent again (at most
//! [`MAX_CHUNK_ATTEMPTS`] sends per chunk, then the lane fails). The server
//! re-acks duplicates idempotently, so a lost ack is indistinguishable from
//! a lost chunk and both heal the same way. A connection that *dies* is
//! redialed once per lane, and everything un-acked is sent again on the
//! fresh one; a deadline is not a death and never causes a redial.
//!
//! A lane sends from one thread, in one order, so the link events its sends
//! draw are the same pure function of `(seed, lane, lanes, op)` whatever the
//! window is.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use ninf_protocol::{
    lane_window, link_for, split_chunks, Digest, LinkShape, LinkTransport, Message, Pipelined,
    ProtocolError, ProtocolResult, Transport,
};
use ninf_reactor::MuxStream;

/// Sends per chunk (the first and its retransmits) before a lane gives up.
pub const MAX_CHUNK_ATTEMPTS: u32 = 4;

/// Per-chunk ack deadline a bulk lane uses when the caller set none —
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
    /// Chunk sends beyond each chunk's first: after a lost chunk or ack,
    /// and after a redial.
    pub retransmits: u32,
    /// Lanes that tore down a dead connection and redialed.
    pub redials: u32,
}

/// Dial one bulk lane with room for `window` open chunks: the handle
/// (wrapped in client-side WAN shaping when a link is named) and the mux
/// stream that must outlive it — dropping a [`MuxStream`] shuts the socket
/// down. Shaped lanes contend for the destination's shared link with
/// deterministic, decorrelated per-lane loss schedules (lane id 0 is
/// reserved for the call connection itself).
fn dial_lane(
    addr: &str,
    deadline: Duration,
    wan: Option<LinkShape>,
    lane_id: u32,
    window: u32,
) -> ProtocolResult<(Box<dyn Pipelined>, MuxStream)> {
    let stream = MuxStream::connect(addr, Some(deadline), window as usize)?;
    let mut handle = stream.handle();
    handle.set_deadline(Some(deadline))?;
    let transport: Box<dyn Pipelined> = match wan {
        Some(shape) => Box::new(LinkTransport::new(handle, link_for(addr, shape), lane_id)),
        None => Box::new(handle),
    };
    Ok((transport, stream))
}

/// Counters the lanes share while an upload is in flight.
#[derive(Default)]
struct LaneCounters {
    retransmits: AtomicU32,
    redials: AtomicU32,
}

/// A chunk sent and not yet acked.
struct Flying {
    chunk: usize,
    ticket: u64,
    /// When its ack is overdue.
    due: Instant,
}

/// One lane's upload state, apart from the connection it runs over.
struct Upload<'a> {
    chunks: &'a [Message],
    window: usize,
    deadline: Duration,
    counters: &'a LaneCounters,
    /// Owned chunks never sent yet.
    fresh: std::iter::StepBy<std::ops::Range<usize>>,
    /// Chunks to send again, ahead of fresh ones.
    again: VecDeque<usize>,
    /// Un-acked sends, oldest first — which is also earliest-due first,
    /// since every send gets the same deadline.
    flying: VecDeque<Flying>,
    /// Sends so far, per chunk.
    sends: Vec<u32>,
}

impl Upload<'_> {
    /// Send until the window is full or nothing is left to send. A chunk
    /// that has used up its sends fails the lane instead.
    fn fill(&mut self, conn: &mut dyn Pipelined) -> ProtocolResult<()> {
        while self.flying.len() < self.window {
            let Some(chunk) = self.again.pop_front().or_else(|| self.fresh.next()) else {
                break;
            };
            if self.sends[chunk] >= MAX_CHUNK_ATTEMPTS {
                return Err(ProtocolError::Timeout {
                    operation: "read",
                    after: self.deadline,
                });
            }
            if self.sends[chunk] > 0 {
                self.counters.retransmits.fetch_add(1, Ordering::Relaxed);
            }
            self.sends[chunk] += 1;
            let ticket = conn
                .post(&self.chunks[chunk])
                .inspect_err(|_| self.again.push_front(chunk))?;
            self.flying.push_back(Flying {
                chunk,
                ticket,
                due: Instant::now() + self.deadline,
            });
        }
        Ok(())
    }

    /// Run the window over `conn` until every owned chunk is acked. An
    /// error leaves the un-acked chunks in `flying` and `again`.
    fn run(&mut self, conn: &mut dyn Pipelined) -> ProtocolResult<()> {
        loop {
            self.fill(conn)?;
            let Some(oldest) = self.flying.front() else {
                return Ok(());
            };
            let wait = oldest.due.saturating_duration_since(Instant::now());
            match conn.recv_any(wait) {
                // (An ack for a ticket already given up on is dropped
                // below us, so an ack that gets here is for a flying send.)
                Ok((ticket, Message::ChunkOk { seq, .. }))
                    if self
                        .flying
                        .iter()
                        .any(|f| f.ticket == ticket && f.chunk == seq as usize) =>
                {
                    self.flying.retain(|f| f.ticket != ticket);
                }
                Ok((_, Message::Error { reason })) => return Err(ProtocolError::Remote(reason)),
                Ok((_, other)) => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "ChunkOk",
                        got: other.kind().to_owned(),
                    })
                }
                // The oldest send's chunk or ack was lost in flight: that
                // chunk, and only that chunk, goes again.
                Err(e) if e.is_timeout() => {
                    let lost = self.flying.pop_front().expect("front was just seen");
                    conn.forget(lost.ticket);
                    self.again.push_back(lost.chunk);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Run one lane: ship every chunk it owns through a sliding window of
/// `window` un-acked chunks, with bounded per-chunk retransmission and one
/// redial if the connection dies. `dial` yields the connection and whatever
/// has to stay alive under it.
fn run_lane<K>(
    mut dial: impl FnMut() -> ProtocolResult<(Box<dyn Pipelined>, K)>,
    chunks: &[Message],
    lane: u32,
    streams: u32,
    window: u32,
    deadline: Duration,
    counters: &LaneCounters,
) -> ProtocolResult<()> {
    let mut upload = Upload {
        chunks,
        window: window.max(1) as usize,
        deadline,
        counters,
        fresh: (lane as usize..chunks.len()).step_by(streams.max(1) as usize),
        again: VecDeque::new(),
        flying: VecDeque::new(),
        sends: vec![0; chunks.len()],
    };
    let (mut conn, mut _keep) = dial()?;
    match upload.run(&mut *conn) {
        Err(e) if e.is_retryable() && !e.is_timeout() => {
            // The connection died mid-window; one fresh dial, then send
            // everything un-acked again (oldest first, ahead of what else
            // was queued). The server re-acks whatever the dead connection
            // already landed.
            counters.redials.fetch_add(1, Ordering::Relaxed);
            for f in upload.flying.drain(..).rev() {
                upload.again.push_front(f.chunk);
            }
            (conn, _keep) = dial()?;
            upload.run(&mut *conn)
        }
        outcome => outcome,
    }
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
    let chunk_bytes = chunk_bytes.max(1);
    let chunks = split_chunks(digest, image, chunk_bytes);
    let total = chunks.len() as u32;
    let streams = streams.clamp(1, total);
    let window = lane_window(wan.as_ref(), chunk_bytes);
    let deadline = deadline.unwrap_or(DEFAULT_LANE_DEADLINE);
    let counters = LaneCounters::default();
    let outcome: ProtocolResult<()> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..streams)
            .map(|w| {
                let chunks = &chunks;
                let counters = &counters;
                let dial = move || dial_lane(addr, deadline, wan, w + 1, window);
                s.spawn(move || run_lane(dial, chunks, w, streams, window, deadline, counters))
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

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{
        encode_frame, link_schedule, read_frame_mux, LinkEvent, Reassembly, SharedLink,
    };
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    /// What every connection of one scripted upload did, shared with the
    /// test after the lane has consumed the connections.
    struct Ledger {
        reassembly: Option<Reassembly>,
        /// Chunk seq of every send attempted on a live connection, in
        /// order, across connections.
        staged: Vec<usize>,
        /// Chunk seq of every frame that arrived, in order.
        arrived: Vec<usize>,
        dials: u32,
        most_open: usize,
    }

    /// What the far end does with an arriving chunk.
    #[derive(Clone, Copy, PartialEq)]
    enum Fate {
        Ack,
        Silence,
        /// The connection dies instead of carrying this frame.
        Die,
    }

    /// An in-memory far end in virtual time: arrivals are acked (or not) at
    /// once, and a wait with no ack queued times out at once.
    struct Peer {
        ledger: Arc<Mutex<Ledger>>,
        /// Fate of chunk `seq` on its `nth` staging (0-based, all
        /// connections).
        fate: fn(usize, usize) -> Fate,
        tickets: u64,
        open: Vec<u64>,
        acks: VecDeque<(u64, Message)>,
        dead: bool,
    }

    impl Transport for Peer {
        fn send(&mut self, _: &Message) -> ProtocolResult<()> {
            unreachable!("a lane posts")
        }
        fn recv(&mut self) -> ProtocolResult<Message> {
            unreachable!("a lane takes replies in any order")
        }
        fn stage(&mut self, msg: &Message) -> ProtocolResult<(u64, Vec<u8>)> {
            let Message::PutArgChunk { seq, .. } = msg else {
                panic!("a lane ships chunks, not {}", msg.kind())
            };
            let mut ledger = self.ledger.lock().unwrap();
            let nth = ledger
                .staged
                .iter()
                .filter(|&&s| s == *seq as usize)
                .count();
            if self.dead {
                return Err(ProtocolError::Disconnected);
            }
            ledger.staged.push(*seq as usize);
            if (self.fate)(*seq as usize, nth) == Fate::Die {
                self.dead = true;
                return Err(ProtocolError::Disconnected);
            }
            self.tickets += 1;
            self.open.push(self.tickets);
            ledger.most_open = ledger.most_open.max(self.open.len());
            Ok((self.tickets, encode_frame(self.tickets, msg)?))
        }
        fn send_raw(&mut self, mut frame: &[u8]) -> ProtocolResult<()> {
            let (ticket, msg) = read_frame_mux(&mut frame)?;
            let Message::PutArgChunk {
                digest,
                total_bytes,
                total,
                seq,
                crc,
                bytes,
            } = msg
            else {
                panic!("not a chunk")
            };
            let mut ledger = self.ledger.lock().unwrap();
            let nth = ledger.staged.iter().filter(|&&s| s == seq as usize).count() - 1;
            ledger.arrived.push(seq as usize);
            if (self.fate)(seq as usize, nth) == Fate::Ack {
                let r = ledger
                    .reassembly
                    .get_or_insert_with(|| Reassembly::new(digest, total_bytes, total).unwrap());
                // A duplicate re-acks, as the server's does.
                let _ = r.accept(total_bytes, total, seq, crc, &bytes);
                self.acks
                    .push_back((ticket, Message::ChunkOk { digest, seq }));
            }
            Ok(())
        }
    }

    impl Pipelined for Peer {
        fn recv_any(&mut self, wait: Duration) -> ProtocolResult<(u64, Message)> {
            if self.dead {
                return Err(ProtocolError::Disconnected);
            }
            while let Some((ticket, ack)) = self.acks.pop_front() {
                if let Some(at) = self.open.iter().position(|&t| t == ticket) {
                    self.open.remove(at);
                    return Ok((ticket, ack));
                }
            }
            Err(ProtocolError::Timeout {
                operation: "read",
                after: wait,
            })
        }
        fn forget(&mut self, ticket: u64) {
            self.open.retain(|&t| t != ticket);
        }
    }

    fn image(chunks: usize) -> (Vec<u8>, Vec<Message>) {
        let image: Vec<u8> = (0..chunks * 64).map(|i| (i * 31 % 251) as u8).collect();
        let split = split_chunks(Digest::of(&image), &image, 64);
        assert_eq!(split.len(), chunks);
        (image, split)
    }

    /// Run one lane (lane 0 of 1) against scripted connections.
    fn drive(
        chunks: &[Message],
        window: u32,
        fate: fn(usize, usize) -> Fate,
        wrap: impl Fn(Peer) -> Box<dyn Pipelined>,
    ) -> (ProtocolResult<()>, UploadReport, Ledger) {
        let ledger = Arc::new(Mutex::new(Ledger {
            reassembly: None,
            staged: Vec::new(),
            arrived: Vec::new(),
            dials: 0,
            most_open: 0,
        }));
        let counters = LaneCounters::default();
        let dial = || {
            ledger.lock().unwrap().dials += 1;
            let peer = wrap(Peer {
                ledger: ledger.clone(),
                fate,
                tickets: 0,
                open: Vec::new(),
                acks: VecDeque::new(),
                dead: false,
            });
            Ok((peer, ()))
        };
        let deadline = Duration::from_secs(5);
        let outcome = run_lane(dial, chunks, 0, 1, window, deadline, &counters);
        let report = UploadReport {
            retransmits: counters.retransmits.load(Ordering::Relaxed),
            redials: counters.redials.load(Ordering::Relaxed),
            ..UploadReport::default()
        };
        let ledger = Arc::into_inner(ledger).unwrap().into_inner().unwrap();
        (outcome, report, ledger)
    }

    fn bare(peer: Peer) -> Box<dyn Pipelined> {
        Box::new(peer)
    }

    #[test]
    fn a_chunk_is_sent_at_most_max_attempts_times_and_a_deadline_never_redials() {
        // Chunk 2 is never acked; everything else is, first time.
        let (_, chunks) = image(5);
        let fate = |seq, _| if seq == 2 { Fate::Silence } else { Fate::Ack };
        let (outcome, report, ledger) = drive(&chunks, 3, fate, bare);
        assert!(outcome.unwrap_err().is_timeout());
        let sends = |seq| ledger.staged.iter().filter(|&&s| s == seq).count() as u32;
        assert_eq!(sends(2), MAX_CHUNK_ATTEMPTS, "staged: {:?}", ledger.staged);
        for seq in [0, 1, 3, 4] {
            assert_eq!(
                sends(seq),
                1,
                "an acked chunk went again: {:?}",
                ledger.staged
            );
        }
        assert_eq!(
            (ledger.dials, report.redials),
            (1, 0),
            "a deadline is not a death"
        );
        assert_eq!(report.retransmits, MAX_CHUNK_ATTEMPTS - 1);
        assert!(ledger.most_open <= 3);
    }

    #[test]
    fn a_dead_connection_is_redialed_once_and_only_the_unacked_go_again() {
        // The first connection dies carrying chunk 3's first send, with
        // chunk 2 sent and never acked; the second one works.
        let (image_bytes, chunks) = image(6);
        let fate = |seq, nth| match (seq, nth) {
            (2, 0) => Fate::Silence,
            (3, 0) => Fate::Die,
            _ => Fate::Ack,
        };
        let (outcome, report, ledger) = drive(&chunks, 2, fate, bare);
        outcome.unwrap();
        assert_eq!((ledger.dials, report.redials), (2, 1));
        assert_eq!(
            ledger.staged,
            [0, 1, 2, 3, 2, 3, 4, 5],
            "oldest un-acked first"
        );
        assert_eq!(
            report.retransmits,
            (ledger.staged.len() - chunks.len()) as u32,
            "exactly the sends beyond each chunk's first"
        );
        assert_eq!(
            ledger.reassembly.unwrap().into_image().unwrap(),
            image_bytes
        );
        // A second death is the lane's: no third dial.
        let fate = |seq, _| if seq == 3 { Fate::Die } else { Fate::Ack };
        let (outcome, report, ledger) = drive(&chunks, 2, fate, bare);
        assert!(matches!(outcome, Err(ProtocolError::Disconnected)));
        assert_eq!((ledger.dials, report.redials), (2, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any chunk count, window and seeded loss schedule, through the
        /// real link model: the lane's k-th send takes op k of the planned
        /// schedule, never more than `window` chunks are open, every send
        /// the link did not forward costs exactly one retransmit, and the
        /// image lands bit for bit — or, if some chunk drew
        /// `MAX_CHUNK_ATTEMPTS` losses in a row, the lane gives up on time.
        #[test]
        fn windowed_upload_over_a_lossy_link(
            n in 1usize..40,
            window in 1u32..=16,
            loss_ppm in 0u32..300_000,
            seed in any::<u64>(),
        ) {
            let shape = LinkShape { loss_ppm, seed, ..LinkShape::default() };
            let link = Arc::new(SharedLink::new(shape));
            let history = Arc::new(Mutex::new(None));
            let (image_bytes, chunks) = image(n);
            let wrap = |peer| {
                let lane = LinkTransport::new(peer, link.clone(), 1);
                *history.lock().unwrap() = Some(lane.history());
                Box::new(lane) as Box<dyn Pipelined>
            };
            let (outcome, report, ledger) = drive(&chunks, window, |_, _| Fate::Ack, wrap);
            let events = history.lock().unwrap().take().unwrap().snapshot();
            prop_assert_eq!(ledger.dials, 1);
            prop_assert_eq!(&events, &link_schedule(&shape, 1, 1, events.len() as u64));
            prop_assert_eq!(events.len(), ledger.staged.len());
            let forwarded: Vec<usize> = ledger
                .staged
                .iter()
                .zip(&events)
                .filter(|(_, e)| **e == LinkEvent::Forward)
                .map(|(seq, _)| *seq)
                .collect();
            prop_assert_eq!(&ledger.arrived, &forwarded);
            prop_assert!(ledger.most_open <= window as usize);
            let lost = (events.len() - forwarded.len()) as u32;
            match outcome {
                Ok(()) => {
                    prop_assert_eq!(report.retransmits, lost);
                    prop_assert_eq!(ledger.staged.len(), n + lost as usize);
                    let landed = ledger.reassembly.unwrap().into_image().unwrap();
                    prop_assert_eq!(landed, image_bytes);
                }
                Err(e) => {
                    prop_assert!(e.is_timeout());
                    let spent = (0..n).any(|seq| {
                        let fates: Vec<_> = ledger
                            .staged
                            .iter()
                            .zip(&events)
                            .filter(|(s, _)| **s == seq)
                            .map(|(_, e)| *e)
                            .collect();
                        fates == [LinkEvent::Lose; MAX_CHUNK_ATTEMPTS as usize]
                    });
                    prop_assert!(spent, "gave up with sends to spare: {:?}", ledger.staged);
                }
            }
        }
    }
}
