//! The table of chunked bulk uploads being reassembled — the state behind
//! [`ninf_protocol::Message::PutArgChunk`].
//!
//! An entry lives from an upload's first chunk until its value is *in the
//! argument store*, not merely until its last chunk lands: while the
//! completed image is being verified, decoded and stored the entry stays
//! as a marker, so a straggling duplicate (a windowed sender's retransmit
//! crossing the final chunk) re-acks instead of opening a second
//! reassembly for a digest that is about to be stored. An entry no chunk
//! has touched for [`UPLOAD_IDLE_EXPIRY`] is dropped on the next access,
//! so abandoned uploads give their slot and their claimed bytes back.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ninf_protocol::chunk::{ChunkError, Reassembly};
use ninf_protocol::Digest;

/// Cap on concurrently reassembling bulk uploads; a fresh digest beyond
/// it is refused so hostile clients cannot pin unbounded buffers. The
/// *bytes* those uploads may claim are capped separately, at the argument
/// store's budget (see [`Uploads::accept`]).
pub(crate) const MAX_INFLIGHT_UPLOADS: usize = 64;

/// How long an upload may go without a chunk before it is presumed
/// abandoned: many times any sender's whole retransmit budget
/// (`MAX_CHUNK_ATTEMPTS` × a per-chunk deadline of seconds at most).
pub(crate) const UPLOAD_IDLE_EXPIRY: Duration = Duration::from_secs(60);

struct Upload {
    /// `None` once every chunk has landed and the image is on its way
    /// into the arg store.
    reassembly: Option<Reassembly>,
    /// Bytes the upload declared, held against the budget while it lives.
    claimed: u64,
    touched: Instant,
}

/// What an accepted chunk did.
#[derive(Debug)]
pub(crate) enum Accepted {
    /// New bytes landed; more chunks are owed.
    Fresh,
    /// A retransmit of bytes already held: re-ack, count nothing.
    Duplicate,
    /// New bytes landed and completed the image. The entry stays until
    /// [`Uploads::landed`].
    Complete(Reassembly),
}

#[derive(Default)]
pub(crate) struct Uploads {
    table: HashMap<Digest, Upload>,
}

impl Uploads {
    /// Whether `digest` has an entry (reassembling or landing).
    pub(crate) fn contains(&self, digest: &Digest) -> bool {
        self.table.contains_key(digest)
    }

    /// Bytes claimed by every live entry.
    pub(crate) fn claimed(&self) -> u64 {
        self.table.values().map(|u| u.claimed).sum()
    }

    /// Drop every upload idle since before `now - UPLOAD_IDLE_EXPIRY`;
    /// returns how many. Landing entries are not idle: their owner is at
    /// work and removes them itself.
    pub(crate) fn expire_idle(&mut self, now: Instant) -> usize {
        let before = self.table.len();
        self.table.retain(|_, u| {
            u.reassembly.is_none() || now.duration_since(u.touched) < UPLOAD_IDLE_EXPIRY
        });
        before - self.table.len()
    }

    /// One chunk through the table. Retransmit-friendly without ever
    /// accepting conflicting bytes: a duplicate seq whose CRC matches what
    /// already landed (or any chunk of an image that is landing) is
    /// [`Accepted::Duplicate`]; a duplicate with a *different* CRC, a bad
    /// CRC, or any geometry lie is refused with a reason.
    ///
    /// A reassembly buffer is allocated at the upload's *claimed* size, so
    /// claims are budgeted before anything is allocated: the bytes claimed
    /// by all live uploads together may not exceed `budget`, the argument
    /// store's. (A single upload claiming more than that could never be
    /// retained by the store anyway.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn accept(
        &mut self,
        now: Instant,
        budget: u64,
        digest: Digest,
        total_bytes: u64,
        total: u32,
        seq: u32,
        crc: u32,
        bytes: &[u8],
    ) -> Result<Accepted, String> {
        if !self.table.contains_key(&digest) {
            if self.table.len() >= MAX_INFLIGHT_UPLOADS {
                return Err(format!(
                    "too many in-flight uploads ({MAX_INFLIGHT_UPLOADS})"
                ));
            }
            let claimed = self.claimed();
            if claimed.saturating_add(total_bytes) > budget {
                return Err(format!(
                    "upload claiming {total_bytes} bytes refused: {claimed} bytes already \
                     reassembling, argument store budget is {budget}"
                ));
            }
            let reassembly = Reassembly::new(digest, total_bytes, total)
                .map_err(|e| format!("chunk rejected: {e}"))?;
            self.table.insert(
                digest,
                Upload {
                    reassembly: Some(reassembly),
                    claimed: total_bytes,
                    touched: now,
                },
            );
        }
        let upload = self.table.get_mut(&digest).expect("just ensured present");
        let Some(r) = upload.reassembly.as_mut() else {
            return Ok(Accepted::Duplicate);
        };
        match r.accept(total_bytes, total, seq, crc, bytes) {
            Ok(complete) => {
                upload.touched = now;
                Ok(match complete {
                    true => Accepted::Complete(upload.reassembly.take().expect("seen above")),
                    false => Accepted::Fresh,
                })
            }
            Err(ChunkError::Duplicate { .. }) if r.seen_crc(seq) == Some(crc) => {
                upload.touched = now;
                Ok(Accepted::Duplicate)
            }
            Err(e) => Err(format!("chunk rejected: {e}")),
        }
    }

    /// The completed image of `digest` is in the arg store (or was refused
    /// by it): its entry goes.
    pub(crate) fn landed(&mut self, digest: &Digest) {
        self.table.remove(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{split_chunks, Message};

    const BUDGET: u64 = 1 << 20;

    fn feed(table: &mut Uploads, now: Instant, chunk: &Message) -> Result<Accepted, String> {
        let Message::PutArgChunk {
            digest,
            total_bytes,
            total,
            seq,
            crc,
            bytes,
        } = chunk
        else {
            panic!("not a chunk")
        };
        table.accept(
            now,
            BUDGET,
            *digest,
            *total_bytes,
            *total,
            *seq,
            *crc,
            bytes,
        )
    }

    fn upload(tag: u8, len: usize, chunk_bytes: u32) -> (Digest, Vec<Message>) {
        let image = vec![tag; len];
        let digest = Digest::of(&image);
        (digest, split_chunks(digest, &image, chunk_bytes))
    }

    #[test]
    fn abandoned_uploads_expire_and_give_their_slots_and_bytes_back() {
        let mut table = Uploads::default();
        let t0 = Instant::now();
        // 64 uploads that send one chunk of two and walk away.
        for tag in 0..MAX_INFLIGHT_UPLOADS as u8 {
            let (_, chunks) = upload(tag, 2048, 1024);
            assert!(matches!(
                feed(&mut table, t0, &chunks[0]),
                Ok(Accepted::Fresh)
            ));
        }
        assert_eq!(table.claimed(), 64 * 2048);
        let (fresh, chunks) = upload(200, 2048, 1024);
        // The table is wedged for as long as they are merely slow…
        let soon = t0 + UPLOAD_IDLE_EXPIRY - Duration::from_millis(1);
        assert_eq!(table.expire_idle(soon), 0);
        let refused = feed(&mut table, soon, &chunks[0]).unwrap_err();
        assert!(refused.contains("too many"), "{refused}");
        // …and free once they have been idle the whole period.
        let later = t0 + UPLOAD_IDLE_EXPIRY;
        assert_eq!(table.expire_idle(later), MAX_INFLIGHT_UPLOADS);
        assert_eq!(table.claimed(), 0);
        assert!(matches!(
            feed(&mut table, later, &chunks[0]),
            Ok(Accepted::Fresh)
        ));
        assert!(matches!(
            feed(&mut table, later, &chunks[1]),
            Ok(Accepted::Complete(_))
        ));
        table.landed(&fresh);
        assert_eq!((table.claimed(), table.contains(&fresh)), (0, false));
    }

    #[test]
    fn a_chunk_keeps_its_upload_alive() {
        let mut table = Uploads::default();
        let t0 = Instant::now();
        let (digest, chunks) = upload(1, 3072, 1024);
        feed(&mut table, t0, &chunks[0]).unwrap();
        let t1 = t0 + UPLOAD_IDLE_EXPIRY / 2;
        // A retransmit counts as life too.
        assert!(matches!(
            feed(&mut table, t1, &chunks[0]),
            Ok(Accepted::Duplicate)
        ));
        assert_eq!(table.expire_idle(t0 + UPLOAD_IDLE_EXPIRY), 0);
        assert!(table.contains(&digest));
        assert_eq!(table.expire_idle(t1 + UPLOAD_IDLE_EXPIRY), 1);
    }

    /// The race a windowed sender makes reachable: a duplicate arrives
    /// after the final chunk completed the image and before the value is
    /// stored. It must re-ack against the landing entry — not open a second
    /// reassembly nothing would ever finish — and the table must be empty
    /// once the value has landed.
    #[test]
    fn a_duplicate_racing_the_final_chunk_opens_no_second_reassembly() {
        let mut table = Uploads::default();
        let now = Instant::now();
        let (digest, chunks) = upload(7, 2048, 1024);
        feed(&mut table, now, &chunks[0]).unwrap();
        let Ok(Accepted::Complete(image)) = feed(&mut table, now, &chunks[1]) else {
            panic!("second of two chunks completes the image")
        };
        // The worker that drew `Complete` is now verifying and storing.
        for dup in &chunks {
            assert!(matches!(
                feed(&mut table, now, dup),
                Ok(Accepted::Duplicate)
            ));
        }
        assert_eq!(table.claimed(), 2048, "still one upload, still its bytes");
        // Landing is not idling, however long the store takes.
        assert_eq!(table.expire_idle(now + 2 * UPLOAD_IDLE_EXPIRY), 0);
        assert!(image.into_image().is_ok());
        table.landed(&digest);
        assert_eq!((table.claimed(), table.contains(&digest)), (0, false));
    }

    #[test]
    fn conflicting_bytes_and_lies_are_refused_with_reasons() {
        let mut table = Uploads::default();
        let now = Instant::now();
        let (_, chunks) = upload(3, 2048, 1024);
        feed(&mut table, now, &chunks[0]).unwrap();
        let Message::PutArgChunk {
            digest,
            total_bytes,
            total,
            ..
        } = chunks[0]
        else {
            panic!("not a chunk")
        };
        let other = vec![9u8; 1024];
        let crc = ninf_protocol::crc32c(&other);
        let conflict = table.accept(now, BUDGET, digest, total_bytes, total, 0, crc, &other);
        assert!(conflict.unwrap_err().contains("chunk rejected"));
        let (_, big) = upload(4, 4096, 1024);
        let Message::PutArgChunk { digest, .. } = big[0] else {
            panic!("not a chunk")
        };
        let over = table.accept(now, BUDGET, digest, BUDGET, 1024, 0, crc, &other);
        assert!(over.unwrap_err().contains("budget"));
    }
}
