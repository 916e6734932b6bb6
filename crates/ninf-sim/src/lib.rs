//! Whole-system Ninf simulation.
//!
//! This crate assembles the substrates into the "global computing simulator
//! for Ninf" the paper's Conclusion calls for: simulated clients issue
//! `Ninf_call`s through a modelled network ([`ninf_netsim`]) against modelled
//! servers ([`ninf_machine`]), reproducing the full call lifecycle of §4.1 —
//! `T_submit → T_enqueue (connection accepted) → T_dequeue (executable
//! forked) → argument transfer → execution → result transfer → T_complete`
//! — with the same scheduling-policy code the live server uses
//! ([`ninf_server::policy`]).
//!
//! Model structure (calibrations in `ninf-machine`, derivations in DESIGN.md):
//!
//! * **Network** — flow-level max-min sharing with per-stream TCP caps; WAN
//!   sites share thin access links (0.17 MB/s Ocha-U↔ETL, §4.1), multi-site
//!   clients ride distinct backbones (Fig 9).
//! * **Server CPU** — a fluid processor: running executables and active XDR
//!   (un)marshalling tasks water-fill the PEs. Marshalling demand follows
//!   transfer rate, so LAN throughput sags as computation saturates the CPU
//!   (Tables 3/4) while thin WAN pipes leave the server idle (Tables 6/7).
//! * **Execution modes** — task-parallel: one PE per executable, unbounded
//!   concurrency, OS timeshares (load average 16+ at c=16, §4.2.1);
//!   data-parallel: the optimized all-PE library serializes calls.
//! * **Clients** — the §4.1 model program: every `s` seconds, with
//!   probability `p`, issue a synchronous call (s=3, p=1/2).
//!
//! [`experiments`] drives one scenario per table/figure of the paper, plus
//! the §5 ablations; `ninf-bench`'s `repro` binary prints them.

pub mod client;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod server;
pub mod workload;
pub mod world;

pub use metrics::{CellResult, Summary};
pub use scenario::{ClientGroup, NetworkKind, Scenario};
pub use workload::Workload;
pub use world::World;
