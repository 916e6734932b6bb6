//! The Ninf metaserver.
//!
//! "The Ninf metaserver monitors multiple Ninf computing servers on the
//! network, and performs scheduling and load balancing of client requests.
//! The client need not be aware (but could specify) the physical location of
//! computing servers" (paper §2.4).
//!
//! Besides the directory and monitoring, the metaserver executes recorded
//! [`ninf_client::Transaction`]s: it layers the data-dependency DAG and fans
//! each layer out to servers task-parallel — the mechanism behind the Fig 11
//! EP cluster benchmark. A routed [`Metaserver::ninf_call`] is a one-call
//! transaction: it and every transaction leg take the one dispatch path —
//! place (probe, balance, `route` span), then settle (failure accounting,
//! the one fail-over loop, `ninf_meta_call_seconds`, `forward` span). Four
//! balancing policies are provided:
//!
//! * [`Balancing::RoundRobin`] — static rotation;
//! * [`Balancing::LoadBased`] — least loaded server, "such as is done for
//!   NetSolve" (§4.2.2);
//! * [`Balancing::BandwidthAware`] — highest client↔server bandwidth: the
//!   paper's headline recommendation for WAN ("task assignment and
//!   distribution should not be merely based on server load and utilization
//!   information, but rather on achievable network bandwidth");
//! * [`Balancing::MinCompletion`] — predicted `T_comm + T_comp` from IDL
//!   sizes and server calibration (§5.1).

pub mod balance;
pub mod directory;
pub mod metaserver;

pub use balance::{Balancing, CallEstimate, ServerState};
pub use directory::{Directory, HealthEvent, ServerEntry, QUARANTINE_THRESHOLD};
pub use metaserver::Metaserver;
