//! ninf-testkit: a deterministic chaos/conformance harness for the live
//! Ninf stack.
//!
//! The paper's claim is behavioral — multi-client Ninf degrades
//! *predictably* under load and faults — so this crate turns that into
//! machine-checkable form. A [`ChaosSpec`] names a workload (reusing
//! [`ninf_loadgen::WorkloadSpec`]), a fleet shape, and a seeded
//! [`ninf_protocol::LinkShape`]; [`run_chaos`] spawns the real fleet
//! (in-process `ninfd`s over loopback TCP), drives fault-injecting
//! clients plus an optional metaserver transaction leg, and evaluates:
//!
//! - **conservation** — calls issued == ok + remote + timeout + transport;
//! - **exactly-once** — every planned call has exactly one completion
//!   record (and every transaction call one slot write) under retries;
//! - **corruption-rejected** — once a truncate/garble fault fires on a
//!   client's stream, checksummed v2 framing guarantees no later call
//!   over that stream succeeds;
//! - **monotone-cursors** — `QueryStats` clocks and totals never regress,
//!   and cursor-driven fetches deliver each record exactly once;
//! - **window-cursors** — `QueryMetrics` polling delivers the metric
//!   window series exactly once: each poll returns precisely the
//!   contiguous `max(cursor, dropped)..total` indices, with monotone
//!   clock, total, and drop counters even across ring eviction;
//! - **trace-connected** — every successful call's trace forms one
//!   well-nested client+server tree in the flight recorder, with no
//!   corrupted-stream carve-out;
//! - **quarantine-legal** — the directory's health-event log replays
//!   legally: quarantine only at the threshold, reinstatement only after
//!   a success.
//! - **bulk-isolation** — for scenarios driving the windowed chunk upload
//!   over a shaped link (`wan-partition`): uploads are all-or-nothing in
//!   the ledger, an `Ok` call's solution proves the server computed on
//!   exactly the shipped bytes, and pure loss may only delay or time a
//!   call out — a connection that dies mid-upload costs one redial and
//!   the resend of its un-acked chunks, never the call.
//!
//! Transcripts are bit-deterministic for a given `(spec, seed)`: they
//! carry the spec fingerprint and the *planned* fault/arrival schedule
//! fingerprints, never wall-clock-dependent counts. The same seed is the
//! whole reproducer — `ninf-chaos replay --scenario S --seed N`.
//!
//! [`live_vs_sim`] is the differential oracle: the live `lan-linpack`
//! scalability shape against a matched simulator scenario (saturated
//! closed-loop clients on a 1-PE server), normalized and compared within
//! [`TOLERANCE`]. [`wan_live_vs_sim`] is its WAN sibling: the live
//! `wan-upload` scenario's one-lane upload goodput over shaped loopback
//! links against [`ninf_netsim::wan`]'s FluidNet upload model under the
//! same link spec, each as its share of the link. Both return one
//! [`DiffReport`].

#![warn(missing_docs)]

pub mod differential;
pub mod harness;
pub mod invariants;
pub mod spec;

pub use differential::{
    live_vs_sim, wan_live_vs_sim, DiffPoint, DiffReport, TOLERANCE, WAN_DIFF_CHUNK_BYTES,
};
pub use harness::{run_chaos, ChaosRun, Inject};
pub use invariants::{BulkRecord, CallRecord, Check, StatsPoll, WindowPoll};
pub use spec::{chaos, chaos_names, ChaosSpec};
