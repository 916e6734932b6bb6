//! ninf-reactor: the event-driven connection core of the Ninf stack.
//!
//! The SC'97 paper's multi-client analysis stops at tens of clients per
//! ninfd because the original server is thread-per-connection — and so was
//! this reproduction's, until this crate. It holds the pieces of the C10k
//! path:
//!
//! * [`sys`] — readiness polling (epoll on Linux, poll(2) elsewhere) via
//!   direct FFI, no external dependency;
//! * [`conn`] — `FrameConn`, the one non-blocking frame connection: socket,
//!   staging buffer and frame slicer, write queue. The reactor here and
//!   `ninf-loadgen`'s open-loop engine each wrap it with their own
//!   bookkeeping;
//! * [`reactor`] — the server core: one reactor thread owning every
//!   nonblocking socket, a bounded worker pool running handlers, per-
//!   connection in-flight backpressure. Every Ninf-frame server in the
//!   workspace (`ninfd`, the database server) runs on it;
//! * [`mux`] — the client side of v3 call multiplexing: one stream, many
//!   in-flight calls, per-call deadlines, poison-on-error teardown;
//! * [`pool`] — `MuxPool`, checkout/reuse of multiplexed streams with
//!   hit/miss accounting, replacing connect-per-call.

pub mod conn;
pub mod mux;
pub mod pool;
pub mod reactor;
pub mod sys;

pub use mux::{MuxHandle, MuxStream, DEFAULT_MAX_INFLIGHT};
pub use pool::{global_pool, Checkout, MuxPool, PoolConfig};
pub use reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks, Request};
