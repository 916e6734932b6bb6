//! Bounded, byte-budgeted LRU store of marshalled argument values, keyed by
//! content digest.
//!
//! This is the server half of the argument cache: clients that have already
//! shipped a large argument inline may name it by [`Digest`] on later calls
//! ([`ninf_protocol::Arg::Ref`]); the store resolves the ref, or reports a
//! miss so the caller can reply [`ninf_protocol::Message::NeedArg`] without
//! executing anything. The budget bounds resident bytes, not entry count —
//! one 32 MB matrix and a thousand 32 KB vectors cost the same — and
//! eviction is strict LRU over both inserts and lookups.
//!
//! Values are shared, not copied: the store holds an `Arc<Value>`, a hit
//! hands out another handle to it (a pointer copy under the lock, not an
//! 8 MiB clone), and an inline value the server captures is the same
//! allocation the call runs on. So the budget bounds *resident entries*;
//! an entry evicted while a running call still holds it is gone from the
//! store (and from [`ArgStore::bytes`]) at once, and its memory is freed
//! when that call drops its handle. Values pinned that way are bounded
//! separately, by in-flight calls × value size.
//!
//! The store is also where a chunked bulk upload meets the `Invoke` that
//! names it, and a client that uploads a fresh value per call would fill
//! the whole budget with values nobody asks for twice. Uploads therefore
//! enter through [`ArgStore::land`], which keeps only the newest
//! [`UPLOAD_RESIDUE_ENTRIES`] of them on the strength of a single lookup
//! (never fewer lookups: an upload still waiting for its `Invoke` is safe).
//!
//! A budget of zero disables the store: nothing is retained and every ref
//! misses, which is the server-side off switch.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use ninf_protocol::{Digest, Value};
use parking_lot::Mutex;

/// Default resident-byte budget (64 MiB): comfortably holds the working set
/// of an iterative WAN client (a few large arrays) while bounding a fleet
/// of strangers to a fixed footprint.
pub const DEFAULT_ARG_CACHE_BYTES: usize = 64 << 20;

/// Bulk uploads looked up exactly once that stay resident. An entry cap,
/// not a byte cap, on purpose: it binds only where values are small and a
/// repeat upload is cheap (64 x 72 KiB = 4.5 MiB of a 64 MiB budget), while
/// a few multi-megabyte matrices are bounded by the byte budget long before
/// they are 64. See [`ArgStore::land`].
pub const UPLOAD_RESIDUE_ENTRIES: usize = 64;

struct Entry {
    value: Arc<Value>,
    bytes: usize,
    stamp: u64,
    /// Lookups so far.
    gets: u32,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Digest, Entry>,
    /// LRU index: recency stamp → digest, oldest first.
    order: BTreeMap<u64, Digest>,
    clock: u64,
    bytes: usize,
    /// Digests that came in by bulk upload, oldest first, until they age
    /// out of [`UPLOAD_RESIDUE_ENTRIES`].
    landed: VecDeque<Digest>,
}

impl Inner {
    fn evict(&mut self, d: &Digest) {
        if let Some(e) = self.map.remove(d) {
            self.order.remove(&e.stamp);
            self.bytes -= e.bytes;
        }
    }

    fn touch(&mut self, d: Digest) {
        let Some(e) = self.map.get_mut(&d) else {
            return;
        };
        self.order.remove(&e.stamp);
        self.clock += 1;
        e.stamp = self.clock;
        self.order.insert(self.clock, d);
    }
}

/// Content-addressed LRU value store with a resident-byte budget.
pub struct ArgStore {
    budget: usize,
    inner: Mutex<Inner>,
}

impl ArgStore {
    /// Empty store bounded by `budget` resident bytes (0 disables caching).
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured resident-byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Insert `value` under `digest` (the caller computes the digest so the
    /// hashing cost sits outside the lock). Returns how many entries were
    /// evicted to fit. Values larger than the whole budget are not retained.
    ///
    /// Takes a `Value` or an `Arc<Value>`; the latter is stored as is, so a
    /// caller that keeps a handle shares the one allocation with the store.
    pub fn insert(&self, digest: Digest, value: impl Into<Arc<Value>>) -> usize {
        let value = value.into();
        let bytes = value.wire_bytes();
        if bytes > self.budget {
            return 0;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&digest) {
            inner.touch(digest);
            return 0;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.order.insert(stamp, digest);
        inner.map.insert(
            digest,
            Entry {
                value,
                bytes,
                stamp,
                gets: 0,
            },
        );
        inner.bytes += bytes;
        let mut evicted = 0;
        while inner.bytes > self.budget {
            let victim = *inner
                .order
                .values()
                .next()
                .expect("over budget implies entry");
            // The entry just inserted is the newest; the loop always ends
            // before evicting it because removing everything older already
            // brings `bytes` down to its size, which fits the budget.
            inner.evict(&victim);
            evicted += 1;
        }
        evicted
    }

    /// Insert a value that arrived as a chunked bulk upload; returns how
    /// many entries were evicted. Its one certain use is the `Invoke` the
    /// upload was made for, so once that lookup has happened it is kept
    /// only while it is among the newest [`UPLOAD_RESIDUE_ENTRIES`] uploads.
    /// By the time it ages out of those, a second lookup has shown it to be
    /// a repeat input, or its `Invoke` is still to come — either way it
    /// stays, an ordinary LRU resident — or it goes.
    pub fn land(&self, digest: Digest, value: impl Into<Arc<Value>>) -> usize {
        let mut evicted = self.insert(digest, value);
        let mut inner = self.inner.lock();
        // One slot per digest: a value that lands again ages from now.
        inner.landed.retain(|d| *d != digest);
        inner.landed.push_back(digest);
        while inner.landed.len() > UPLOAD_RESIDUE_ENTRIES {
            let aged = inner.landed.pop_front().expect("longer than the cap");
            if inner.map.get(&aged).is_some_and(|e| e.gets == 1) {
                inner.evict(&aged);
                evicted += 1;
            }
        }
        evicted
    }

    /// Look up (and LRU-touch) a digest: a shared handle to the stored
    /// value, never a copy of it.
    pub fn get(&self, digest: &Digest) -> Option<Arc<Value>> {
        let mut inner = self.inner.lock();
        inner.touch(*digest);
        inner.map.get_mut(digest).map(|e| {
            e.gets += 1;
            Arc::clone(&e.value)
        })
    }

    /// Whether the store currently holds `digest` (no LRU touch).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.inner.lock().map.contains_key(digest)
    }

    /// Entries resident now.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident payload bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Drop every entry (tests use this to force a refill round-trip).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.landed.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::digest_value;

    fn arr(fill: f64, len: usize) -> (Digest, Value) {
        let v = Value::DoubleArray(vec![fill; len]);
        (digest_value(&v), v)
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let store = ArgStore::new(1 << 20);
        let (d, v) = arr(1.5, 100);
        assert_eq!(store.insert(d, v.clone()), 0);
        assert_eq!(store.get(&d).as_deref(), Some(&v));
        assert!(store.contains(&d));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 800);
    }

    #[test]
    fn miss_is_none() {
        let store = ArgStore::new(1 << 20);
        let (d, _) = arr(2.0, 10);
        assert_eq!(store.get(&d), None);
        assert!(!store.contains(&d));
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // Budget fits exactly two 800-byte arrays.
        let store = ArgStore::new(1600);
        let (d1, v1) = arr(1.0, 100);
        let (d2, v2) = arr(2.0, 100);
        let (d3, v3) = arr(3.0, 100);
        store.insert(d1, v1);
        store.insert(d2, v2);
        // Touch d1 so d2 becomes the LRU victim.
        assert!(store.get(&d1).is_some());
        assert_eq!(store.insert(d3, v3), 1);
        assert!(store.contains(&d1));
        assert!(!store.contains(&d2));
        assert!(store.contains(&d3));
        assert_eq!(store.bytes(), 1600);
    }

    #[test]
    fn oversized_value_is_not_retained() {
        let store = ArgStore::new(100);
        let (d, v) = arr(1.0, 100); // 800 bytes > budget
        assert_eq!(store.insert(d, v), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn zero_budget_disables_the_store() {
        let store = ArgStore::new(0);
        let (d, v) = arr(1.0, 4);
        store.insert(d, v);
        assert!(store.is_empty());
        assert_eq!(store.get(&d), None);
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let store = ArgStore::new(1600);
        let (d1, v1) = arr(1.0, 100);
        let (d2, v2) = arr(2.0, 100);
        store.insert(d1, v1.clone());
        store.insert(d2, v2);
        // Re-inserting d1 refreshes it; inserting a third evicts d2.
        assert_eq!(store.insert(d1, v1), 0);
        assert_eq!(store.len(), 2);
        let (d3, v3) = arr(3.0, 100);
        assert_eq!(store.insert(d3, v3), 1);
        assert!(store.contains(&d1));
        assert!(!store.contains(&d2));
    }

    #[test]
    fn uploads_looked_up_once_age_out_and_repeat_inputs_stay() {
        let store = ArgStore::new(1 << 20);
        let upload = |i: usize| arr(i as f64, 10);
        for i in 0..UPLOAD_RESIDUE_ENTRIES {
            let (d, v) = upload(i);
            assert_eq!(store.land(d, v), 0);
            assert!(store.get(&d).is_some(), "the upload's own Invoke");
        }
        // Upload 1 is named again by a later call; upload 0 never is.
        assert!(store.get(&upload(1).0).is_some());
        assert_eq!(store.len(), UPLOAD_RESIDUE_ENTRIES);
        for (i, aged_out) in [(UPLOAD_RESIDUE_ENTRIES, 1), (UPLOAD_RESIDUE_ENTRIES + 1, 0)] {
            let (d, v) = upload(i);
            assert_eq!(store.land(d, v), aged_out);
        }
        assert!(!store.contains(&upload(0).0));
        assert!(store.contains(&upload(1).0), "a repeat input is a resident");
        assert!(store.contains(&upload(2).0), "still among the newest");
        assert_eq!(store.bytes(), 80 * store.len());
        // Values inserted inline are not uploads: only the budget bounds them.
        for i in 1000..1000 + 2 * UPLOAD_RESIDUE_ENTRIES {
            let (d, v) = upload(i);
            store.insert(d, v);
        }
        assert_eq!(store.len(), 3 * UPLOAD_RESIDUE_ENTRIES + 1);
    }

    #[test]
    fn an_upload_outlives_any_number_of_later_ones_until_its_invoke() {
        let store = ArgStore::new(1 << 20);
        let (waiting, v) = arr(-1.0, 10);
        store.land(waiting, v.clone());
        // Other clients' uploads land, and are used, before this one's
        // `Invoke` arrives; one of them lands twice.
        for i in 0..2 * UPLOAD_RESIDUE_ENTRIES {
            let (d, v) = arr(i as f64, 10);
            store.land(d, v);
            assert!(store.get(&d).is_some());
        }
        assert_eq!(store.len(), UPLOAD_RESIDUE_ENTRIES + 1);
        assert_eq!(
            store.get(&waiting).as_deref(),
            Some(&v),
            "never aged out unused"
        );
    }

    #[test]
    fn a_value_that_lands_again_ages_from_its_newer_landing() {
        // Room for one big value and the small ones, not for two big ones.
        let store = ArgStore::new(1400);
        let (x, vx) = arr(-1.0, 100);
        let (y, vy) = arr(-2.0, 100);
        store.land(x, vx.clone());
        assert!(store.get(&x).is_some());
        assert_eq!(store.land(y, vy), 1, "the byte budget evicts x");
        assert_eq!(store.land(x, vx.clone()), 1, "and then y");
        assert!(store.get(&x).is_some());
        // x's first landing ages out of the newest uploads; its second
        // has not, and that is the one that counts.
        for i in 0..UPLOAD_RESIDUE_ENTRIES - 1 {
            let (d, v) = arr(i as f64, 1);
            assert_eq!(store.land(d, v), 0);
        }
        assert_eq!(store.get(&x).as_deref(), Some(&vx));
    }

    #[test]
    fn hits_share_one_allocation() {
        let store = ArgStore::new(1 << 20);
        let (d, v) = arr(1.5, 100);
        let mine = Arc::new(v);
        store.insert(d, Arc::clone(&mine));
        let (a, b) = (store.get(&d).unwrap(), store.get(&d).unwrap());
        assert!(Arc::ptr_eq(&a, &b), "two hits, one value");
        assert!(
            Arc::ptr_eq(&a, &mine),
            "the inserter's handle is the stored value"
        );
    }

    #[test]
    fn evicting_a_value_a_call_still_holds_frees_the_budget_not_the_value() {
        // Room for one 800-byte array.
        let store = ArgStore::new(800);
        let (d1, v1) = arr(1.0, 100);
        store.insert(d1, v1.clone());
        let running = store.get(&d1).unwrap();
        let (d2, v2) = arr(2.0, 100);
        assert_eq!(store.insert(d2, v2), 1);
        assert!(!store.contains(&d1));
        assert_eq!(
            store.bytes(),
            800,
            "the evicted entry left the budget at once"
        );
        assert_eq!(*running, v1, "the running call's value is intact");
        assert_eq!(
            Arc::strong_count(&running),
            1,
            "and is the call's alone now"
        );
    }

    #[test]
    fn clear_empties_everything() {
        let store = ArgStore::new(1 << 20);
        let (d, v) = arr(1.0, 8);
        store.insert(d, v);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
        assert_eq!(store.get(&d), None);
    }
}
