//! Windowed, chunked bulk transfer — the client half of the WAN upload
//! path, and the one way a large argument ships.
//!
//! `ride` takes the large arguments of one call — each value whose XDR
//! image is at least [`ninf_protocol::CHUNK_THRESHOLD`] bytes and which the
//! destination lacks — splits every image into CRC-tagged chunks
//! ([`ninf_protocol::chunk`]) and ships them, one image after another,
//! through one window on one dedicated connection to the
//! server, which reassembles each image and lands it in its argument store.
//! The transfer runs on the caller's thread.
//!
//! The call that names the values rides the same connection: it is posted
//! directly behind the last chunk's first send, inside the window, naming
//! every image by content ref. The server parks a call whose ref names an
//! upload still reassembling and runs it once the value lands, so a bulk
//! call crosses the link once — *latency + bytes ÷ bandwidth + compute*,
//! the paper's §3.1 cost — however many images it carries. A refill after
//! `NeedArg` is the same ride again.
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
//! stopped; a riding call still owed its reply is posted again behind the
//! resent chunks. A deadline is not a death and never causes a redial. An
//! ack must name the `(digest, seq)` its ticket carried: one that names
//! another chunk — of its own image or of another — or comes back on a
//! ticket never posted ends the upload with
//! [`ProtocolError::AckMismatch`]. The riding call has a deadline of its
//! own, the call's: a call whose reply misses it comes back as a timeout
//! once the upload is done, for the caller's retry loop.
//!
//! A failed upload is never half-visible: the server holds partial state
//! out of its store until every chunk of an image lands and its digest
//! verifies, and the caller ships the values inline instead, whatever
//! became of the riding call.
//!
//! The upload sends in one order, so the link events its sends draw are the
//! same pure function of `(seed, lane, lanes, op)` whatever the window is.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use ninf_protocol::{
    lane_window, link_for, split_chunks, Digest, FrameFn, LinkShape, LinkTransport, Message,
    Pipelined, ProtocolError, ProtocolResult,
};
use ninf_reactor::TcpTransport;

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

/// What one ride's upload did, for timing/throughput accounting.
pub(crate) struct UploadReport {
    /// Image bytes shipped (chunk payloads, excluding retransmits).
    pub bytes: u64,
    /// Chunk sends beyond each chunk's first: after a lost chunk or ack,
    /// and after a redial.
    pub retransmits: u32,
    /// From the first chunk sent to the last chunk acked.
    pub elapsed: Duration,
}

/// The call that rides an upload's connection (see the module docs).
pub(crate) struct Rider<'a> {
    /// Writes the call's frame for the ticket the connection hands it; run
    /// again if the call is posted again on a redialed connection.
    pub encode: FrameFn<'a>,
    /// How long its reply may take once posted; `None` waits as long as
    /// it takes.
    pub deadline: Option<Duration>,
}

/// What [`ride`] brings back.
pub(crate) struct Carried {
    /// The upload, complete.
    pub upload: UploadReport,
    /// The riding call's reply, or the timeout its reply came to.
    pub reply: ProtocolResult<Message>,
    /// From the call's post to that outcome.
    pub roundtrip: Duration,
}

/// Where the riding call is.
enum Riding {
    /// Not posted on the live connection.
    Waiting,
    /// Posted, its reply owed by `due` (never, if `None`).
    Flying {
        ticket: u64,
        posted: Instant,
        due: Option<Instant>,
    },
    /// Answered or given up on, with the time since its post.
    Done(ProtocolResult<Message>, Duration),
}

/// Dial the bulk connection, wrapped in client-side WAN shaping when a
/// link is named. Shaped, it contends for the destination's shared link as
/// [`BULK_LANE`], with its own deterministic loss schedule.
fn dial_lane(
    addr: &str,
    deadline: Duration,
    wan: Option<LinkShape>,
) -> ProtocolResult<Box<dyn Pipelined>> {
    let conn = TcpTransport::connect_with_deadline(addr, Some(deadline))?;
    Ok(match wan {
        Some(shape) => Box::new(LinkTransport::new(conn, link_for(addr, shape), BULK_LANE)),
        None => Box::new(conn),
    })
}

/// The `(digest, seq)` a chunk carries, which its ack must name.
fn chunk_name(chunk: &Message) -> (Digest, u32) {
    match *chunk {
        Message::PutArgChunk { digest, seq, .. } => (digest, seq),
        _ => unreachable!("an upload holds only chunks"),
    }
}

/// A chunk sent and not yet acked.
struct Flying {
    chunk: usize,
    ticket: u64,
    /// When its ack is overdue.
    due: Instant,
}

/// One upload's state, apart from the connection it runs over.
struct Upload<'a, 'r> {
    /// Every image's chunks, image after image.
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
    /// The call riding behind the last chunk, and where it is.
    rider: Rider<'r>,
    riding: Riding,
    /// First chunk send and latest ack.
    started: Option<Instant>,
    last_ack: Option<Instant>,
}

impl<'a, 'r> Upload<'a, 'r> {
    fn new(chunks: &'a [Message], window: u32, deadline: Duration, rider: Rider<'r>) -> Self {
        Self {
            chunks,
            window: window.max(1) as usize,
            deadline,
            fresh: 0..chunks.len(),
            again: VecDeque::new(),
            flying: VecDeque::new(),
            sends: vec![0; chunks.len()],
            retransmits: 0,
            rider,
            riding: Riding::Waiting,
            started: None,
            last_ack: None,
        }
    }

    /// Send until the window is full or nothing is left to send, then post
    /// the riding call once every chunk has had its first send. A chunk
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
            self.started.get_or_insert_with(Instant::now);
            let ticket = conn
                .post(&self.chunks[chunk])
                .inspect_err(|_| self.again.push_front(chunk))?;
            self.flying.push_back(Flying {
                chunk,
                ticket,
                due: Instant::now() + self.deadline,
            });
        }
        if self.fresh.is_empty() && matches!(self.riding, Riding::Waiting) {
            let posted = Instant::now();
            let ticket = conn.post_frame(&mut *self.rider.encode)?;
            self.riding = Riding::Flying {
                ticket,
                posted,
                due: self.rider.deadline.map(|d| Instant::now() + d),
            };
        }
        Ok(())
    }

    /// Run the window over `conn` until every chunk is acked and the riding
    /// call is answered or overdue. An error leaves the un-acked chunks in
    /// `flying` and `again`.
    fn run(&mut self, conn: &mut dyn Pipelined) -> ProtocolResult<()> {
        loop {
            self.fill(conn)?;
            let call = match self.riding {
                Riding::Flying { ticket, due, .. } => Some((ticket, due)),
                _ => None,
            };
            let chunk_due = self.flying.front().map(|f| f.due);
            // The wait runs to the earlier deadline, and a timeout is that
            // one's: the oldest chunk's, or the call's.
            let call_first = match (chunk_due, call) {
                (None, None) => return Ok(()),
                (None, Some(_)) => true,
                (Some(chunk), Some((_, Some(call)))) => call < chunk,
                (Some(_), _) => false,
            };
            let until = match call {
                Some((_, due)) if call_first => due,
                _ => chunk_due,
            };
            let wait = until.map_or(DEFAULT_LANE_DEADLINE, |t| {
                t.saturating_duration_since(Instant::now())
            });
            match conn.recv_any(wait) {
                Ok((ticket, reply)) if call.is_some_and(|(t, _)| t == ticket) => {
                    self.settle_call(Ok(reply));
                }
                // An ack for a ticket already given up on is dropped below
                // us, so one that gets here must be for a flying send, and
                // for the chunk that send carried.
                Ok((ticket, Message::ChunkOk { digest, seq })) => {
                    let Some(at) = self.flying.iter().position(|f| f.ticket == ticket) else {
                        return Err(ProtocolError::AckMismatch {
                            ticket,
                            sent: None,
                            acked: seq,
                        });
                    };
                    let sent = chunk_name(&self.chunks[self.flying[at].chunk]);
                    if sent != (digest, seq) {
                        return Err(ProtocolError::AckMismatch {
                            ticket,
                            sent: Some(sent.1),
                            acked: seq,
                        });
                    }
                    self.flying.remove(at);
                    self.last_ack = Some(Instant::now());
                }
                Ok((_, Message::Error { reason })) => return Err(ProtocolError::Remote(reason)),
                Ok((_, other)) => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "ChunkOk",
                        got: other.kind().to_owned(),
                    })
                }
                // The call's reply is overdue: it was lost, or it parked
                // past the server's bound behind a lost chunk.
                Err(e) if e.is_timeout() && call_first => {
                    if let Some((ticket, Some(_))) = call {
                        conn.forget(ticket);
                        self.settle_call(Err(e));
                    }
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

    /// The riding call is answered (or overdue): keep the outcome.
    fn settle_call(&mut self, outcome: ProtocolResult<Message>) {
        if let Riding::Flying { posted, .. } = self.riding {
            self.riding = Riding::Done(outcome, posted.elapsed());
        }
    }

    /// Ship every chunk through the window, with bounded per-chunk
    /// retransmission and one redial if the connection dies.
    fn finish(
        &mut self,
        mut dial: impl FnMut() -> ProtocolResult<Box<dyn Pipelined>>,
    ) -> ProtocolResult<()> {
        let mut conn = dial()?;
        match self.run(&mut *conn) {
            Err(e) if e.is_retryable() && !e.is_timeout() => {
                // The connection died mid-window; one fresh dial, then send
                // everything un-acked again (oldest first, ahead of what
                // else was queued) and post a call still owed its reply
                // behind them. The server re-acks whatever the dead
                // connection already landed.
                for f in self.flying.drain(..).rev() {
                    self.again.push_front(f.chunk);
                }
                if let Riding::Flying { .. } = self.riding {
                    self.riding = Riding::Waiting;
                }
                conn = dial()?;
                self.run(&mut *conn)
            }
            outcome => outcome,
        }
    }

    fn report(&self, bytes: usize) -> UploadReport {
        UploadReport {
            bytes: bytes as u64,
            retransmits: self.retransmits,
            elapsed: match (self.started, self.last_ack) {
                (Some(from), Some(to)) => to.saturating_duration_since(from),
                _ => Duration::ZERO,
            },
        }
    }
}

/// Ship `images` — each value's digest and XDR image — through one window
/// on one lane connection to `addr`, with `call` riding behind the last
/// chunk's first send (see the module docs). Returns once the server has
/// reassembled, verified and stored every image under its digest and the
/// call is answered or overdue. A chunk that exhausts its sends, a
/// connection that dies twice, or a server that refuses a chunk fails the
/// ride, whatever became of the call: the caller then ships the values
/// inline (nothing partial ever escapes), and since the server may still
/// run a call it had parked, that fallback is an at-least-once retry.
pub(crate) fn ride(
    addr: &str,
    images: Vec<(Digest, Vec<u8>)>,
    chunk_bytes: u32,
    deadline: Option<Duration>,
    wan: Option<LinkShape>,
    call: Rider<'_>,
) -> ProtocolResult<Carried> {
    let chunk_bytes = chunk_bytes.max(1);
    let bytes = images.iter().map(|(_, image)| image.len()).sum();
    let chunks: Vec<Message> = images
        .into_iter()
        .flat_map(|(digest, image)| split_chunks(digest, &image, chunk_bytes))
        .collect();
    let window = lane_window(wan.as_ref(), chunk_bytes);
    let deadline = deadline.unwrap_or(DEFAULT_LANE_DEADLINE);
    let mut upload = Upload::new(&chunks, window, deadline, call);
    upload.finish(|| dial_lane(addr, deadline, wan))?;
    let report = upload.report(bytes);
    let Riding::Done(reply, roundtrip) = upload.riding else {
        unreachable!("a complete upload has settled its rider")
    };
    Ok(Carried {
        upload: report,
        reply,
        roundtrip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{
        link_schedule, read_frame_mux, FrameFn, LinkEvent, Reassembly, SharedLink, Transport,
    };
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// What every connection of one scripted upload did, shared with the
    /// test after the upload has consumed the connections.
    struct Ledger {
        /// Per image digest, what has landed of it.
        reassemblies: HashMap<Digest, Reassembly>,
        /// Chunk index (in the upload's order) of every send attempted on a
        /// live connection, in order, across connections; [`CALL`] for the
        /// riding call.
        staged: Vec<usize>,
        /// Chunk index of every frame that arrived, in order.
        arrived: Vec<usize>,
        dials: u32,
        /// Most chunks open at once on one connection (the call aside).
        most_open: usize,
    }

    impl Ledger {
        /// The image stored under `digest`, complete.
        fn landed(&mut self, digest: &Digest) -> Vec<u8> {
            let r = self.reassemblies.remove(digest).expect("image never began");
            r.into_image().unwrap()
        }
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
        /// Acked on its own ticket and seq, under another image's digest.
        Foreign,
        /// Acked on a ticket that was never posted.
        Phantom,
    }

    /// An in-memory far end in virtual time: arrivals are acked (or not) at
    /// once, and a wait with no ack queued times out at once.
    struct Peer {
        ledger: Arc<Mutex<Ledger>>,
        /// `(digest, seq)` of each chunk, in the upload's order.
        order: Arc<Vec<(Digest, u32)>>,
        /// Fate of chunk `index` on its `nth` staging (0-based, all
        /// connections).
        fate: fn(usize, usize) -> Fate,
        tickets: u64,
        open: Vec<u64>,
        /// The riding call's ticket on this connection.
        call: Option<u64>,
        acks: VecDeque<(u64, Message)>,
        dead: bool,
        /// A riding call that arrived before every image was complete: the
        /// far end parks it, as the server does, and answers it once the
        /// last image lands.
        parked: Option<u64>,
    }

    /// What the ledgers record for the riding call, in place of a chunk
    /// index; its fate is asked under this index too (`Ack`: answered once
    /// every image is complete, `Silence`: never).
    const CALL: usize = usize::MAX;

    fn answer() -> Message {
        Message::ResultData { results: vec![] }
    }

    impl Peer {
        /// Which send `msg` is: a chunk's index, or [`CALL`].
        fn index(&self, msg: &Message) -> usize {
            match *msg {
                Message::PutArgChunk { digest, seq, .. } => {
                    self.order.iter().position(|&n| n == (digest, seq)).unwrap()
                }
                Message::Invoke { .. } => CALL,
                ref other => panic!("an upload ships chunks and a call, not {}", other.kind()),
            }
        }

        fn complete(&self, ledger: &Ledger) -> bool {
            self.order
                .iter()
                .all(|(d, _)| ledger.reassemblies.get(d).is_some_and(Reassembly::complete))
        }
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
            let index = self.index(&msg);
            let mut ledger = self.ledger.lock().unwrap();
            let nth = ledger.staged.iter().filter(|&&s| s == index).count();
            if self.dead {
                return Err(ProtocolError::Disconnected);
            }
            ledger.staged.push(index);
            if (self.fate)(index, nth) == Fate::Die {
                self.dead = true;
                return Err(ProtocolError::Disconnected);
            }
            self.tickets += 1;
            self.open.push(self.tickets);
            if index == CALL {
                self.call = Some(self.tickets);
            }
            let chunks_open = self.open.iter().filter(|&&t| Some(t) != self.call).count();
            ledger.most_open = ledger.most_open.max(chunks_open);
            Ok((self.tickets, frame))
        }
        fn send_raw(&mut self, mut frame: &[u8]) -> ProtocolResult<()> {
            let (ticket, msg) = read_frame_mux(&mut frame)?;
            let index = self.index(&msg);
            let mut ledger = self.ledger.lock().unwrap();
            let nth = ledger.staged.iter().filter(|&&s| s == index).count() - 1;
            ledger.arrived.push(index);
            let fate = (self.fate)(index, nth);
            let Message::PutArgChunk {
                digest,
                total_bytes,
                total,
                seq,
                crc,
                bytes,
            } = msg
            else {
                if fate == Fate::Ack {
                    match self.complete(&ledger) {
                        true => self.acks.push_back((ticket, answer())),
                        false => self.parked = Some(ticket),
                    }
                }
                return Ok(());
            };
            let ack = |digest, seq| Message::ChunkOk { digest, seq };
            match fate {
                Fate::Ack => {
                    let r = ledger
                        .reassemblies
                        .entry(digest)
                        .or_insert_with(|| Reassembly::new(digest, total_bytes, total).unwrap());
                    // A duplicate re-acks, as the server's does.
                    let _ = r.accept(total_bytes, total, seq, crc, &bytes);
                    self.acks.push_back((ticket, ack(digest, seq)));
                    if self.complete(&ledger) {
                        if let Some(call) = self.parked.take() {
                            self.acks.push_back((call, answer()));
                        }
                    }
                }
                Fate::MisAck => self.acks.push_back((ticket, ack(digest, seq + 1))),
                Fate::Foreign => {
                    let (other, _) = self.order.iter().find(|(d, _)| *d != digest).unwrap();
                    self.acks.push_back((ticket, ack(*other, seq)));
                }
                Fate::Phantom => self.acks.push_back((u64::MAX - ticket, ack(digest, seq))),
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

    /// An image of `chunks` 64-byte chunks, its content keyed by `salt`.
    fn salted(chunks: usize, salt: usize) -> (Vec<u8>, Vec<Message>) {
        let image: Vec<u8> = (0..chunks * 64)
            .map(|i| ((i + salt) * 31 % 251) as u8)
            .collect();
        let split = split_chunks(Digest::of(&image), &image, 64);
        assert_eq!(split.len(), chunks);
        (image, split)
    }

    fn image(chunks: usize) -> (Vec<u8>, Vec<Message>) {
        salted(chunks, 0)
    }

    /// What one scripted ride did.
    struct Driven {
        outcome: ProtocolResult<()>,
        retransmits: u32,
        riding: Riding,
        ledger: Ledger,
    }

    /// Run one upload, with a call riding behind its last chunk, against
    /// scripted connections.
    fn drive(
        chunks: &[Message],
        window: u32,
        fate: fn(usize, usize) -> Fate,
        wrap: impl Fn(Peer) -> Box<dyn Pipelined>,
    ) -> Driven {
        let ledger = Arc::new(Mutex::new(Ledger {
            reassemblies: HashMap::new(),
            staged: Vec::new(),
            arrived: Vec::new(),
            dials: 0,
            most_open: 0,
        }));
        let order = Arc::new(chunks.iter().map(chunk_name).collect::<Vec<_>>());
        let dial = || {
            ledger.lock().unwrap().dials += 1;
            let peer = wrap(Peer {
                ledger: ledger.clone(),
                order: order.clone(),
                fate,
                tickets: 0,
                open: Vec::new(),
                call: None,
                acks: VecDeque::new(),
                dead: false,
                parked: None,
            });
            Ok(peer)
        };
        let invoke = Message::Invoke {
            routine: "linpack".into(),
            args: vec![],
            trace: None,
        };
        let mut encode = |ticket| ninf_protocol::encode_frame(ticket, &invoke);
        let rider = Rider {
            encode: &mut encode,
            deadline: Some(Duration::from_secs(60)),
        };
        let mut upload = Upload::new(chunks, window, Duration::from_secs(5), rider);
        let outcome = upload.finish(dial);
        let (retransmits, riding) = (upload.retransmits, upload.riding);
        let ledger = Arc::into_inner(ledger).unwrap().into_inner().unwrap();
        Driven {
            outcome,
            retransmits,
            riding,
            ledger,
        }
    }

    fn answered(riding: &Riding) -> bool {
        matches!(riding, Riding::Done(Ok(Message::ResultData { .. }), _))
    }

    /// The call goes out directly behind the last chunk's first send — not
    /// behind its ack — and is answered once the image is complete, even
    /// when a lost chunk's retransmit completes it after the call arrived.
    #[test]
    fn the_call_rides_behind_the_last_chunk_and_waits_for_its_image() {
        let (_, chunks) = image(6);
        // Chunk 2's first send is lost; everything else arrives.
        let fate = |seq, nth| match (seq, nth) {
            (2, 0) => Fate::Silence,
            _ => Fate::Ack,
        };
        let d = drive(&chunks, 3, fate, bare);
        d.outcome.unwrap();
        let staged = &d.ledger.staged;
        let first_of_last = staged.iter().position(|&s| s == 5).unwrap();
        assert_eq!(staged.get(first_of_last + 1), Some(&CALL), "{staged:?}");
        assert_eq!(staged.iter().filter(|&&s| s == CALL).count(), 1);
        // The call arrived before the lost chunk's retransmit: it waited.
        let arrived = &d.ledger.arrived;
        let call_at = arrived.iter().position(|&s| s == CALL).unwrap();
        let resent_at = arrived.iter().rposition(|&s| s == 2).unwrap();
        assert!(call_at < resent_at, "arrived: {arrived:?}");
        assert_eq!(d.retransmits, 1);
        assert!(answered(&d.riding), "the call was answered");
    }

    /// Several images share one window and one connection, image after
    /// image; the call rides behind the last chunk of the last image and is
    /// answered once both have landed.
    #[test]
    fn two_images_ride_one_window_behind_one_call() {
        let (first, mut chunks) = salted(3, 0);
        let (second, more) = salted(2, 1);
        chunks.extend(more);
        let d = drive(&chunks, 4, |_, _| Fate::Ack, bare);
        d.outcome.unwrap();
        let mut ledger = d.ledger;
        assert_eq!(ledger.staged, [0, 1, 2, 3, 4, CALL]);
        assert_eq!((ledger.dials, ledger.most_open), (1, 4));
        assert!(answered(&d.riding));
        assert_eq!(ledger.landed(&Digest::of(&first)), first);
        assert_eq!(ledger.landed(&Digest::of(&second)), second);
    }

    /// An ack is checked against the `(digest, seq)` its ticket carried,
    /// not the seq alone: with two images in one window, the right seq
    /// under the other image's digest is a lie.
    #[test]
    fn an_ack_naming_the_right_seq_of_another_image_is_a_mismatch() {
        let (_, mut chunks) = salted(2, 0);
        chunks.extend(salted(2, 1).1);
        // The second image's chunk 0 is acked as the first image's chunk 0.
        let fate = |index, _| if index == 2 { Fate::Foreign } else { Fate::Ack };
        let d = drive(&chunks, 4, fate, bare);
        assert!(
            matches!(
                d.outcome,
                Err(ProtocolError::AckMismatch {
                    sent: Some(0),
                    acked: 0,
                    ..
                })
            ),
            "{:?}",
            d.outcome
        );
        assert_eq!(d.ledger.dials, 1, "a liar is no death");
    }

    /// A call whose reply never comes ends the upload no later than its
    /// deadline, as a timeout the caller's retry loop takes; the upload
    /// itself completes.
    #[test]
    fn an_unanswered_call_times_out_once_the_upload_is_done() {
        let (_, chunks) = image(4);
        let fate = |seq, _| {
            if seq == CALL {
                Fate::Silence
            } else {
                Fate::Ack
            }
        };
        let d = drive(&chunks, 4, fate, bare);
        d.outcome.unwrap();
        assert_eq!(d.ledger.arrived.len(), 5, "four chunks and the call");
        let Riding::Done(Err(e), _) = d.riding else {
            panic!("the call was not given up on")
        };
        assert!(e.is_timeout(), "{e}");
    }

    /// A connection that dies under a riding call: the call goes again on
    /// the fresh connection, behind the resent chunks.
    #[test]
    fn a_redial_posts_the_call_again() {
        let (_, chunks) = image(3);
        // Chunk 1's first send is lost and the connection dies carrying its
        // resend, with the call posted and unanswered on it.
        let fate = |seq, nth| match (seq, nth) {
            (CALL, 0) => Fate::Silence,
            (1, 0) => Fate::Silence,
            (1, 1) => Fate::Die,
            _ => Fate::Ack,
        };
        let d = drive(&chunks, 3, fate, bare);
        d.outcome.unwrap();
        assert_eq!(d.ledger.dials, 2);
        assert_eq!(d.ledger.staged, [0, 1, 2, CALL, 1, 1, CALL]);
        assert!(answered(&d.riding));
    }

    fn bare(peer: Peer) -> Box<dyn Pipelined> {
        Box::new(peer)
    }

    #[test]
    fn a_chunk_is_sent_at_most_max_attempts_times_and_a_deadline_never_redials() {
        // Chunk 2 is never acked; everything else is, first time.
        let (_, chunks) = image(5);
        let fate = |seq, _| if seq == 2 { Fate::Silence } else { Fate::Ack };
        let d = drive(&chunks, 3, fate, bare);
        assert!(d.outcome.unwrap_err().is_timeout());
        let staged = &d.ledger.staged;
        let sends = |seq| staged.iter().filter(|&&s| s == seq).count() as u32;
        assert_eq!(sends(2), MAX_CHUNK_ATTEMPTS, "staged: {staged:?}");
        for seq in [0, 1, 3, 4] {
            assert_eq!(sends(seq), 1, "an acked chunk went again: {staged:?}");
        }
        assert_eq!(d.ledger.dials, 1, "a deadline is not a death");
        assert_eq!(d.retransmits, MAX_CHUNK_ATTEMPTS - 1);
        assert!(d.ledger.most_open <= 3);
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
        let d = drive(&chunks, 2, fate, bare);
        d.outcome.unwrap();
        let mut ledger = d.ledger;
        assert_eq!(ledger.dials, 2);
        assert_eq!(
            ledger.staged,
            [0, 1, 2, 3, 2, 3, 4, 5, CALL],
            "oldest un-acked first"
        );
        assert_eq!(
            d.retransmits,
            (ledger.staged.len() - 1 - chunks.len()) as u32,
            "exactly the sends beyond each chunk's first"
        );
        assert_eq!(ledger.landed(&Digest::of(&image_bytes)), image_bytes);
        // A second death is the upload's: no third dial.
        let fate = |seq, _| if seq == 3 { Fate::Die } else { Fate::Ack };
        let d = drive(&chunks, 2, fate, bare);
        assert!(matches!(d.outcome, Err(ProtocolError::Disconnected)));
        assert_eq!(d.ledger.dials, 2);
    }

    #[test]
    fn an_ack_naming_another_chunk_ends_the_upload_within_one_window() {
        // Chunk 0's ack comes back on its own ticket but names chunk 1.
        let (_, chunks) = image(8);
        let fate = |seq, _| if seq == 0 { Fate::MisAck } else { Fate::Ack };
        let d = drive(&chunks, 4, fate, bare);
        assert!(
            matches!(
                d.outcome,
                Err(ProtocolError::AckMismatch {
                    sent: Some(0),
                    acked: 1,
                    ..
                })
            ),
            "{:?}",
            d.outcome
        );
        assert!(d.ledger.staged.len() <= 4, "staged: {:?}", d.ledger.staged);
        assert_eq!(d.ledger.dials, 1, "a liar is no death");
    }

    #[test]
    fn an_ack_for_a_ticket_never_posted_ends_the_upload_within_one_window() {
        let (_, chunks) = image(8);
        let fate = |seq, _| if seq == 0 { Fate::Phantom } else { Fate::Ack };
        let d = drive(&chunks, 4, fate, bare);
        assert!(
            matches!(
                d.outcome,
                Err(ProtocolError::AckMismatch {
                    sent: None,
                    acked: 0,
                    ..
                })
            ),
            "{:?}",
            d.outcome
        );
        assert!(d.ledger.staged.len() <= 4, "staged: {:?}", d.ledger.staged);
        assert_eq!(d.ledger.dials, 1, "a liar is no death");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any chunk count, window and seeded loss schedule, through the
        /// real link model: the upload's k-th send (the riding call's among
        /// them) takes op k of the planned schedule, never more than
        /// `window` chunks are open, every chunk send the link did not
        /// forward costs exactly one retransmit, the image lands bit for bit
        /// and the call is answered exactly when the link forwarded it — or,
        /// if some chunk drew `MAX_CHUNK_ATTEMPTS` losses in a row, the
        /// upload gives up on time.
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
            let d = drive(&chunks, window, |_, _| Fate::Ack, wrap);
            let mut ledger = d.ledger;
            let events = history.lock().unwrap().take().unwrap().snapshot();
            prop_assert_eq!(ledger.dials, 1);
            prop_assert_eq!(&events, &link_schedule(&shape, BULK_LANE, 1, events.len() as u64));
            prop_assert_eq!(events.len(), ledger.staged.len());
            let sends: Vec<(usize, LinkEvent)> =
                ledger.staged.iter().copied().zip(events.iter().copied()).collect();
            let forwarded: Vec<usize> = sends
                .iter()
                .filter(|(_, e)| *e == LinkEvent::Forward)
                .map(|(seq, _)| *seq)
                .collect();
            prop_assert_eq!(&ledger.arrived, &forwarded);
            prop_assert!(ledger.most_open <= window as usize);
            let chunk_sends = sends.iter().filter(|(seq, _)| *seq != CALL);
            let lost = chunk_sends.filter(|(_, e)| *e != LinkEvent::Forward).count() as u32;
            match d.outcome {
                Ok(()) => {
                    prop_assert_eq!(d.retransmits, lost);
                    prop_assert_eq!(ledger.staged.len(), n + lost as usize + 1);
                    prop_assert_eq!(ledger.landed(&Digest::of(&image_bytes)), image_bytes);
                    prop_assert_eq!(answered(&d.riding), forwarded.contains(&CALL));
                }
                Err(e) => {
                    prop_assert!(e.is_timeout());
                    let spent = (0..n).any(|seq| {
                        let fates: Vec<_> = sends
                            .iter()
                            .filter(|(s, _)| *s == seq)
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
