//! Per-destination memory of argument digests already shipped inline.
//!
//! The client half of the argument cache: once a cacheable value has been
//! sent inline to a destination, later calls to the same destination name
//! it by [`Digest`] ([`ninf_protocol::Arg::Ref`]) instead of re-shipping
//! the bytes. The memory is optimistic — the server may have evicted the
//! entry — so a [`ninf_protocol::Message::NeedArg`] reply forgets the named
//! digests and the call refills inline.
//!
//! Keys are dial addresses (one server cache per address; a metaserver
//! counts as one destination because it routes refs without translating
//! them). The memory is process-global so transient per-call clients — the
//! pooled path and the metaserver fan-out both construct one `NinfClient`
//! per attempt — still accumulate digest knowledge across calls.
//!
//! A client that ships a fresh value on every call (a salted matrix, a new
//! upload each time) remembers one more digest per call, and nothing but a
//! `NeedArg` would ever forget one. So each destination holds at most
//! [`MAX_DIGESTS_PER_DESTINATION`]; the one past it starts that
//! destination's memory over. Forgetting is always safe: a value the
//! server still holds just ships inline once more.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

use ninf_obs::{process_metrics, Counter};
use ninf_protocol::Digest;

/// Digests remembered per destination, at most: as many values as a
/// default server's store can hold at all (64 MiB of values no smaller
/// than [`ninf_protocol::ARG_CACHE_MIN_BYTES`], the smallest it caches), so
/// the cap drops no belief a default server could still honour. Starting
/// over on overflow costs O(1) per remembered digest.
pub const MAX_DIGESTS_PER_DESTINATION: usize = (64 << 20) / ninf_protocol::ARG_CACHE_MIN_BYTES;

fn memory() -> &'static Mutex<HashMap<String, HashSet<Digest>>> {
    static MEMORY: OnceLock<Mutex<HashMap<String, HashSet<Digest>>>> = OnceLock::new();
    MEMORY.get_or_init(Mutex::default)
}

/// Counter of argument positions shipped as refs instead of payload.
pub fn argref_sent() -> Counter {
    process_metrics().counter(
        "ninf_client_argref_sent_total",
        "argument positions shipped as content refs instead of payload",
    )
}

/// Counter of arguments re-shipped inline after a server-side cache miss.
pub fn argref_refilled() -> Counter {
    process_metrics().counter(
        "ninf_client_argref_refilled_total",
        "arguments re-shipped inline after a NeedArg cache miss",
    )
}

/// Whether `digest` is believed resident at `key`.
pub(crate) fn knows(key: &str, digest: &Digest) -> bool {
    memory()
        .lock()
        .unwrap()
        .get(key)
        .is_some_and(|set| set.contains(digest))
}

/// Record that `digest` was shipped inline to `key`.
pub(crate) fn remember(key: &str, digest: Digest) {
    let mut mem = memory().lock().unwrap();
    let set = mem.entry(key.to_owned()).or_default();
    if set.len() >= MAX_DIGESTS_PER_DESTINATION && !set.contains(&digest) {
        set.clear();
    }
    set.insert(digest);
}

/// Drop digests the destination reported missing.
pub(crate) fn forget(key: &str, digests: &[Digest]) {
    let mut mem = memory().lock().unwrap();
    if let Some(set) = mem.get_mut(key) {
        for d in digests {
            set.remove(d);
        }
    }
}

/// Drop everything remembered about `key` (tests and address reuse).
pub fn forget_destination(key: &str) {
    memory().lock().unwrap().remove(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remember_then_forget_roundtrips() {
        let key = "argmem-test-127.0.0.1:1";
        let d = Digest { hi: 1, lo: 2 };
        assert!(!knows(key, &d));
        remember(key, d);
        assert!(knows(key, &d));
        forget(key, &[d]);
        assert!(!knows(key, &d));
    }

    #[test]
    fn a_destination_never_remembers_more_than_the_cap() {
        assert_eq!(
            MAX_DIGESTS_PER_DESTINATION,
            ninf_server::DEFAULT_ARG_CACHE_BYTES / ninf_protocol::ARG_CACHE_MIN_BYTES,
            "the cap is what a default server's store can hold"
        );
        let key = "argmem-test-127.0.0.1:4";
        let held = || memory().lock().unwrap().get(key).map_or(0, HashSet::len);
        for i in 0..=MAX_DIGESTS_PER_DESTINATION as u64 {
            remember(key, Digest { hi: i, lo: !i });
        }
        assert!(held() <= MAX_DIGESTS_PER_DESTINATION, "{} held", held());
        // The newest belief survives the overflow.
        let newest = MAX_DIGESTS_PER_DESTINATION as u64;
        assert!(knows(
            key,
            &Digest {
                hi: newest,
                lo: !newest
            }
        ));
        forget_destination(key);
    }

    #[test]
    fn destinations_are_independent() {
        let a = "argmem-test-127.0.0.1:2";
        let b = "argmem-test-127.0.0.1:3";
        let d = Digest { hi: 9, lo: 9 };
        remember(a, d);
        assert!(knows(a, &d));
        assert!(!knows(b, &d));
        forget_destination(a);
        assert!(!knows(a, &d));
    }
}
