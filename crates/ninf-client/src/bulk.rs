//! Windowed, chunked bulk transfer — the client half of the WAN upload
//! path.
//!
//! A large argument's XDR image is split into CRC-tagged chunks
//! ([`ninf_protocol::chunk`]) and shipped over one dedicated multiplexed
//! connection to the server, which reassembles and lands the value in its
//! argument store; the call itself then names the value by content ref.
//! The upload runs on the caller's thread.
//!
//! The connection keeps a **sliding window** of un-acked chunks
//! ([`ninf_protocol::lane_window`]: the link's bandwidth-delay product in
//! chunks when the link is named, a fixed cap when it is not): it sends
//! while fewer than `W` are outstanding and slides on every `ChunkOk`, in
//! whatever order acks return. On a long-fat link that is what fills the
//! pipe — an upload pays the propagation delay once, not once per chunk.
//! Parallel streams are the workaround for a window smaller than the
//! bandwidth-delay product; with the window sized they add only congestion
//! (EXPERIMENTS.md, "WAN bulk upload"), so there is one.
//!
//! Loss recovery is selective repeat: every send carries its own deadline,
//! and only the chunk whose deadline passed is sent again (at most
//! [`MAX_CHUNK_ATTEMPTS`] sends per chunk, then the upload fails). The
//! server re-acks duplicates idempotently, so a lost ack is
//! indistinguishable from a lost chunk and both heal the same way. A
//! connection that *dies* is redialed once, and everything un-acked is sent
//! again on the fresh one — the server keys reassembly by digest, not by
//! connection, so the fresh connection continues where the dead one
//! stopped. A deadline is not a death and never causes a redial. An ack
//! that names a chunk its ticket did not carry, or a ticket never posted,
//! ends the upload with [`ProtocolError::AckMismatch`].
//!
//! A failed upload is never half-visible: the server holds partial state
//! out of its store until every chunk lands and the digest verifies, and
//! the caller ships the value inline instead.
//!
//! The upload sends in one order, so the link events its sends draw are the
//! same pure function of `(seed, lane, lanes, op)` whatever the window is.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use ninf_protocol::{
    lane_window, link_for, split_chunks, Digest, LinkShape, LinkTransport, Message, Pipelined,
    ProtocolError, ProtocolResult, Transport,
};
use ninf_reactor::MuxStream;

/// Sends per chunk (the first and its retransmits) before an upload gives
/// up.
pub const MAX_CHUNK_ATTEMPTS: u32 = 4;

/// Per-chunk ack deadline an upload uses when the caller set none —
/// without one, a lost chunk on a lossy link would hang the upload forever
/// instead of triggering a retransmit.
pub const DEFAULT_LANE_DEADLINE: Duration = Duration::from_secs(2);

/// Link lane id of the bulk connection on its destination's shared link;
/// the call connection is lane 0.
const BULK_LANE: u32 = 1;

/// What one upload did, for timing/throughput accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UploadReport {
    /// Chunks the image split into.
    pub chunks: u32,
    /// Image bytes shipped (chunk payloads, excluding retransmits).
    pub bytes: u64,
    /// Chunk sends beyond each chunk's first: after a lost chunk or ack,
    /// and after a redial.
    pub retransmits: u32,
    /// Times the upload tore down a dead connection and redialed.
    pub redials: u32,
}

/// Dial the bulk connection with room for `window` open chunks: the handle
/// (wrapped in client-side WAN shaping when a link is named) and the mux
/// stream that must outlive it — dropping a [`MuxStream`] shuts the socket
/// down. Shaped, it contends for the destination's shared link as
/// [`BULK_LANE`], with its own deterministic loss schedule.
fn dial_lane(
    addr: &str,
    deadline: Duration,
    wan: Option<LinkShape>,
    window: u32,
) -> ProtocolResult<(Box<dyn Pipelined>, MuxStream)> {
    let stream = MuxStream::connect(addr, Some(deadline), window as usize)?;
    let mut handle = stream.handle();
    handle.set_deadline(Some(deadline))?;
    let transport: Box<dyn Pipelined> = match wan {
        Some(shape) => Box::new(LinkTransport::new(handle, link_for(addr, shape), BULK_LANE)),
        None => Box::new(handle),
    };
    Ok((transport, stream))
}

/// A chunk sent and not yet acked.
struct Flying {
    chunk: usize,
    ticket: u64,
    /// When its ack is overdue.
    due: Instant,
}

/// One upload's state, apart from the connection it runs over.
struct Upload<'a> {
    chunks: &'a [Message],
    window: usize,
    deadline: Duration,
    /// Chunks never sent yet.
    fresh: Range<usize>,
    /// Chunks to send again, ahead of fresh ones.
    again: VecDeque<usize>,
    /// Un-acked sends, oldest first — which is also earliest-due first,
    /// since every send gets the same deadline.
    flying: VecDeque<Flying>,
    /// Sends so far, per chunk.
    sends: Vec<u32>,
    retransmits: u32,
    redials: u32,
}

impl<'a> Upload<'a> {
    fn new(chunks: &'a [Message], window: u32, deadline: Duration) -> Self {
        Self {
            chunks,
            window: window.max(1) as usize,
            deadline,
            fresh: 0..chunks.len(),
            again: VecDeque::new(),
            flying: VecDeque::new(),
            sends: vec![0; chunks.len()],
            retransmits: 0,
            redials: 0,
        }
    }

    /// Send until the window is full or nothing is left to send. A chunk
    /// that has used up its sends fails the upload instead.
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
                self.retransmits += 1;
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

    /// Run the window over `conn` until every chunk is acked. An error
    /// leaves the un-acked chunks in `flying` and `again`.
    fn run(&mut self, conn: &mut dyn Pipelined) -> ProtocolResult<()> {
        loop {
            self.fill(conn)?;
            let Some(oldest) = self.flying.front() else {
                return Ok(());
            };
            let wait = oldest.due.saturating_duration_since(Instant::now());
            match conn.recv_any(wait) {
                // An ack for a ticket already given up on is dropped below
                // us, so one that gets here must be for a flying send, and
                // for the chunk that send carried.
                Ok((ticket, Message::ChunkOk { seq, .. })) => {
                    let Some(at) = self.flying.iter().position(|f| f.ticket == ticket) else {
                        return Err(ProtocolError::AckMismatch {
                            ticket,
                            sent: None,
                            acked: seq,
                        });
                    };
                    let sent = self.flying[at].chunk;
                    if sent != seq as usize {
                        return Err(ProtocolError::AckMismatch {
                            ticket,
                            sent: Some(sent as u32),
                            acked: seq,
                        });
                    }
                    self.flying.remove(at);
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

    /// Ship every chunk through the window, with bounded per-chunk
    /// retransmission and one redial if the connection dies. `dial` yields
    /// the connection and whatever has to stay alive under it.
    fn finish<K>(
        &mut self,
        mut dial: impl FnMut() -> ProtocolResult<(Box<dyn Pipelined>, K)>,
    ) -> ProtocolResult<()> {
        let (mut conn, mut _keep) = dial()?;
        match self.run(&mut *conn) {
            Err(e) if e.is_retryable() && !e.is_timeout() => {
                // The connection died mid-window; one fresh dial, then send
                // everything un-acked again (oldest first, ahead of what
                // else was queued). The server re-acks whatever the dead
                // connection already landed.
                self.redials += 1;
                for f in self.flying.drain(..).rev() {
                    self.again.push_front(f.chunk);
                }
                (conn, _keep) = dial()?;
                self.run(&mut *conn)
            }
            outcome => outcome,
        }
    }
}

/// Ship one value image to `addr` as chunks over one windowed connection,
/// blocking until the server has reassembled, verified, and stored it
/// under `digest` — or until a chunk exhausts its retries, the connection
/// dies twice, or the server refuses the upload, any of which fails it
/// (the caller then ships the value inline; nothing partial ever escapes).
pub fn upload(
    addr: &str,
    digest: Digest,
    image: &[u8],
    chunk_bytes: u32,
    deadline: Option<Duration>,
    wan: Option<LinkShape>,
) -> ProtocolResult<UploadReport> {
    let chunk_bytes = chunk_bytes.max(1);
    let chunks = split_chunks(digest, image, chunk_bytes);
    let window = lane_window(wan.as_ref(), chunk_bytes);
    let deadline = deadline.unwrap_or(DEFAULT_LANE_DEADLINE);
    let mut upload = Upload::new(&chunks, window, deadline);
    upload.finish(|| dial_lane(addr, deadline, wan, window))?;
    Ok(UploadReport {
        chunks: chunks.len() as u32,
        bytes: image.len() as u64,
        retransmits: upload.retransmits,
        redials: upload.redials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{
        link_schedule, read_frame_mux, FrameFn, LinkEvent, Reassembly, SharedLink,
    };
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    /// What every connection of one scripted upload did, shared with the
    /// test after the upload has consumed the connections.
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
        /// Acked on its own ticket, naming the next chunk instead.
        MisAck,
        /// Acked on a ticket that was never posted.
        Phantom,
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
            unreachable!("an upload posts")
        }
        fn recv(&mut self) -> ProtocolResult<Message> {
            unreachable!("an upload takes replies in any order")
        }
        fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
            let frame = encode(self.tickets + 1)?;
            let (_, msg) = read_frame_mux(&mut frame.as_slice())?;
            let Message::PutArgChunk { seq, .. } = msg else {
                panic!("an upload ships chunks, not {}", msg.kind())
            };
            let mut ledger = self.ledger.lock().unwrap();
            let nth = ledger.staged.iter().filter(|&&s| s == seq as usize).count();
            if self.dead {
                return Err(ProtocolError::Disconnected);
            }
            ledger.staged.push(seq as usize);
            if (self.fate)(seq as usize, nth) == Fate::Die {
                self.dead = true;
                return Err(ProtocolError::Disconnected);
            }
            self.tickets += 1;
            self.open.push(self.tickets);
            ledger.most_open = ledger.most_open.max(self.open.len());
            Ok((self.tickets, frame))
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
            let ack = |seq| Message::ChunkOk { digest, seq };
            match (self.fate)(seq as usize, nth) {
                Fate::Ack => {
                    let r = ledger.reassembly.get_or_insert_with(|| {
                        Reassembly::new(digest, total_bytes, total).unwrap()
                    });
                    // A duplicate re-acks, as the server's does.
                    let _ = r.accept(total_bytes, total, seq, crc, &bytes);
                    self.acks.push_back((ticket, ack(seq)));
                }
                Fate::MisAck => self.acks.push_back((ticket, ack(seq + 1))),
                Fate::Phantom => self.acks.push_back((u64::MAX - ticket, ack(seq))),
                Fate::Silence | Fate::Die => {}
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
                // A ticket this connection never issued is a hostile peer's
                // doing, handed up as it came; a forgotten one is dropped.
                if ticket > self.tickets {
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

    /// Run one upload against scripted connections.
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
        let mut upload = Upload::new(chunks, window, Duration::from_secs(5));
        let outcome = upload.finish(dial);
        let report = UploadReport {
            retransmits: upload.retransmits,
            redials: upload.redials,
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
        // A second death is the upload's: no third dial.
        let fate = |seq, _| if seq == 3 { Fate::Die } else { Fate::Ack };
        let (outcome, report, ledger) = drive(&chunks, 2, fate, bare);
        assert!(matches!(outcome, Err(ProtocolError::Disconnected)));
        assert_eq!((ledger.dials, report.redials), (2, 1));
    }

    #[test]
    fn an_ack_naming_another_chunk_ends_the_upload_within_one_window() {
        // Chunk 0's ack comes back on its own ticket but names chunk 1.
        let (_, chunks) = image(8);
        let fate = |seq, _| if seq == 0 { Fate::MisAck } else { Fate::Ack };
        let (outcome, report, ledger) = drive(&chunks, 4, fate, bare);
        assert!(
            matches!(
                outcome,
                Err(ProtocolError::AckMismatch {
                    sent: Some(0),
                    acked: 1,
                    ..
                })
            ),
            "{outcome:?}"
        );
        assert!(ledger.staged.len() <= 4, "staged: {:?}", ledger.staged);
        assert_eq!((ledger.dials, report.redials), (1, 0), "a liar is no death");
    }

    #[test]
    fn an_ack_for_a_ticket_never_posted_ends_the_upload_within_one_window() {
        let (_, chunks) = image(8);
        let fate = |seq, _| if seq == 0 { Fate::Phantom } else { Fate::Ack };
        let (outcome, report, ledger) = drive(&chunks, 4, fate, bare);
        assert!(
            matches!(
                outcome,
                Err(ProtocolError::AckMismatch {
                    sent: None,
                    acked: 0,
                    ..
                })
            ),
            "{outcome:?}"
        );
        assert!(ledger.staged.len() <= 4, "staged: {:?}", ledger.staged);
        assert_eq!((ledger.dials, report.redials), (1, 0), "a liar is no death");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any chunk count, window and seeded loss schedule, through the
        /// real link model: the upload's k-th send takes op k of the planned
        /// schedule, never more than `window` chunks are open, every send
        /// the link did not forward costs exactly one retransmit, and the
        /// image lands bit for bit — or, if some chunk drew
        /// `MAX_CHUNK_ATTEMPTS` losses in a row, the upload gives up on time.
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
                let lane = LinkTransport::new(peer, link.clone(), BULK_LANE);
                *history.lock().unwrap() = Some(lane.history());
                Box::new(lane) as Box<dyn Pipelined>
            };
            let (outcome, report, ledger) = drive(&chunks, window, |_, _| Fate::Ack, wrap);
            let events = history.lock().unwrap().take().unwrap().snapshot();
            prop_assert_eq!(ledger.dials, 1);
            prop_assert_eq!(&events, &link_schedule(&shape, BULK_LANE, 1, events.len() as u64));
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
