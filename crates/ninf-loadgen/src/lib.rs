//! `ninf-loadgen`: multi-client live load generation and measurement.
//!
//! The paper is a *multi-client* performance analysis: §4.1 drives 1–32
//! concurrent clients against one server and measures, per `Ninf_call`, the
//! timestamps `T_submit`/`T_enqueue`/`T_dequeue`/`T_complete` and the derived
//! `T_response`/`T_wait` plus per-call Mflops. This crate is the live
//! counterpart of that experiment rig (and of the simulator's Table 3/4
//! reproductions): it fans out N real client threads over TCP against real
//! `ninfd` servers (or a metaserver fleet), drives them from a declarative
//! [`WorkloadSpec`] — closed-loop with think time or open-loop with a
//! deterministic seeded arrival process, with ramp-up/steady/ramp-down
//! phases and a per-client routine+size mix — and aggregates every call into
//! per-client and fleet-wide reports.
//!
//! Measurement joins two views:
//!
//! * **client-side**: each call's [`ninf_client::CallTiming`] decomposition
//!   (connect / interface / marshal / roundtrip / total) plus outcome and
//!   retry counts;
//! * **server-side**: the server's own §4.1 [`ninf_protocol::CallStat`]
//!   records, fetched over the `QueryStats` protocol message, giving the
//!   fleet `T_response`/`T_wait` decomposition.
//!
//! Reports serialize to JSON (same schema family as
//! `results/experiments.json`, so live runs are comparable with the sim's
//! Table 3/4 cells) and to CSV.

pub mod report;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod sweep;

pub use report::{CallResult, ClientSummary, Outcome, RunReport, ServerView, Summary};
pub use runner::{classify, run_scenario, spawn_server, Target};
pub use scenario::{scenario, scenario_names, Scenario};
pub use spec::{fnv1a, Arrival, MixEntry, Phases, Routine, WorkloadSpec};
pub use sweep::{
    estimate_knee, run_sweep, KneeEstimate, RemoteSeries, SweepConfig, SweepPoint, SweepReport,
    SweepTimeline,
};
