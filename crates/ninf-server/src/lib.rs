//! The Ninf computational server.
//!
//! "The Ninf computational server is a process which services remote
//! computing requests of remote clients by managing the communication and
//! activation of the services requested via Ninf RPC. Binaries of computing
//! libraries and applications are registered on the server process as *Ninf
//! executables*" (paper §2.1).
//!
//! This crate provides:
//!
//! * [`registry`] — the executable registry binding compiled IDL interfaces
//!   to Rust handler functions, each with the width (PEs per call) it was
//!   built for;
//! * [`builtin`] — the paper's workloads (`dmmul`, `dgefa`, `dgesl`,
//!   `linpack`, `ep`, `dos`) wired to the real kernels in `ninf-exec`;
//! * [`policy`] — job admission policies: the FCFS the real server used
//!   ("the current Ninf server merely fork & execs a Ninf executable in a
//!   First-Come-First-Served manner", §5.2), plus the SJF, FPFS and FPMPFS
//!   alternatives §5.2–5.3 discuss. The same policy code drives the
//!   whole-system simulator in `ninf-sim`;
//! * [`exec`] — the execution-mode gate: task-parallel (one PE per call) vs
//!   data-parallel (all PEs per call, serialized), the central tradeoff of
//!   §4.2;
//! * [`server`] — a live TCP server speaking real Ninf RPC, served by an
//!   event-driven reactor core;
//! * [`stats`] — per-call timestamps `T_submit / T_enqueue / T_dequeue /
//!   T_complete` and the derived response/wait times of §4.1.

pub mod argstore;
pub mod builtin;
pub mod exec;
pub mod policy;
pub mod registry;
pub mod server;
pub mod stats;
pub mod trace;
pub mod twophase;
mod uploads;

pub use argstore::{ArgStore, DEFAULT_ARG_CACHE_BYTES};
pub use exec::ExecMode;
pub use policy::{JobInfo, SchedPolicy};
pub use registry::{Handler, NinfExecutable, Registry};
pub use server::{NinfServer, ServerConfig, ServerMetrics};
pub use stats::ServerStats;
pub use trace::CostModel;
pub use twophase::JobTable;
