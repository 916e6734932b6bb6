//! The one bounded ring behind every cursor-drained history in the stack:
//! server call records (`QueryStats`), flight-recorder spans (`QueryTrace`)
//! and metric windows (`QueryMetrics`).
//!
//! Entries get a global index that is never reused: `base` counts the
//! entries evicted so far, so the retained ones occupy `base..total()`
//! however much history has fallen off the front. A poller that advances
//! its cursor to `total()` after every [`CursorRing::since`] therefore sees
//! each entry it was fast enough for exactly once, and one that fell behind
//! skips exactly the evicted prefix — never a duplicate, never a wrapped
//! index.

use std::collections::VecDeque;

/// Entries a new ring reserves room for up front (the default capacity of
/// the server's record ring and of the flight recorder).
const PREALLOCATED: usize = 65_536;

/// Bounded FIFO with a monotone global index (see the module docs).
#[derive(Debug)]
pub struct CursorRing<T> {
    buf: VecDeque<T>,
    /// Global index of `buf[0]`; equivalently, entries evicted so far.
    base: u64,
    cap: usize,
}

impl<T> CursorRing<T> {
    /// An empty ring retaining at most `cap` entries (at least one). Room
    /// for up to 65,536 of them is reserved now (address space the
    /// OS backs only as it is written), so a ring of ordinary size never
    /// regrows: a doubling buffer would hold its old and new halves at
    /// once exactly when it is fullest.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            buf: VecDeque::with_capacity(cap.min(PREALLOCATED)),
            base: 0,
            cap,
        }
    }

    /// Append an entry, evicting the oldest at capacity; returns whether
    /// one was evicted.
    pub fn push(&mut self, item: T) -> bool {
        let evict = self.buf.len() == self.cap;
        if evict {
            self.buf.pop_front();
            self.base += 1;
        }
        self.buf.push_back(item);
        evict
    }

    /// Entries ever pushed (retained + evicted): the index the next push
    /// gets, and the cursor a drained poller holds.
    pub fn total(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Entries no longer retained.
    pub fn evicted(&self) -> u64 {
        self.base
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained entries from global index `cursor` onward, oldest first. A
    /// stale cursor (pointing at evicted entries) clamps up to the oldest
    /// retained one, a future cursor to the end.
    pub fn since(&self, cursor: u64) -> impl Iterator<Item = &T> {
        let from = cursor.clamp(self.base, self.total());
        self.buf.iter().skip((from - self.base) as usize)
    }

    /// Forget every retained entry. Indices stay monotone: the forgotten
    /// entries count as evicted.
    pub fn clear(&mut self) {
        self.base = self.total();
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ring: &CursorRing<u64>, cursor: &mut u64, seen: &mut Vec<u64>) {
        seen.extend(ring.since(*cursor).copied());
        *cursor = ring.total();
    }

    /// The property all three users rely on, checked once: entries carry
    /// their own global index as payload, so `seen` is directly the set of
    /// indices a cursor-driven poller was handed.
    #[test]
    fn cursor_polling_is_exactly_once_across_eviction() {
        let mut ring = CursorRing::new(8);
        let (mut cursor, mut seen) = (0u64, Vec::new());
        // Polling within one ring of the writer: nothing lost or repeated.
        for i in 0..30u64 {
            assert_eq!(ring.total(), i);
            ring.push(i);
            assert!(ring.len() <= 8);
            if i % 3 == 2 {
                drain(&ring, &mut cursor, &mut seen);
            }
        }
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
        assert_eq!(ring.evicted(), 22);

        // Falling behind: 20 more through 8 slots evicts the middle. The
        // poller gets the retained tail only, and `total` accounts for the
        // gap it missed.
        for i in 30..50u64 {
            ring.push(i);
        }
        seen.clear();
        drain(&ring, &mut cursor, &mut seen);
        assert_eq!(seen, (42..50).collect::<Vec<_>>());
        assert_eq!(cursor, 50);
        // Drained: the same cursor yields an empty, stable answer.
        assert_eq!(ring.since(cursor).count(), 0);
        // Stale and future cursors clamp instead of wrapping or panicking.
        assert_eq!(ring.since(0).copied().next(), Some(42));
        assert_eq!(ring.since(u64::MAX).count(), 0);
    }

    #[test]
    fn push_reports_evictions_and_clear_keeps_indices_monotone() {
        let mut ring = CursorRing::new(0); // clamped up to one slot
        assert!(!ring.push('a'));
        assert!(ring.push('b'));
        assert_eq!((ring.len(), ring.total(), ring.evicted()), (1, 2, 1));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 2);
        ring.push('c');
        assert_eq!(ring.since(0).collect::<Vec<_>>(), vec![&'c']);
        assert_eq!(ring.total(), 3);
    }
}
