//! Observability for the Ninf stack.
//!
//! The paper's contribution is measurement; this crate is the shared
//! measurement substrate of the live system:
//!
//! - [`trace`]: trace context (`trace_id`/`span_id`/`parent_span_id`) and
//!   the [`Span`] schema every process records.
//! - [`recorder`]: a fixed-memory, drop-counting per-process flight
//!   recorder; `QueryTrace` serves from it.
//! - [`metrics`]: counters/gauges/latency summaries with Prometheus text
//!   exposition, served over TCP by [`http`].
//! - [`window`]: bounded ring of fixed-interval window snapshots over a
//!   registry — per-second series instead of lifetime totals; `QueryMetrics`
//!   serves from it.
//! - [`ring`]: [`CursorRing`], the one bounded ring with a monotone index and
//!   exactly-once cursors that the recorder, the windows and the server's
//!   call records all keep their history in.
//! - [`hist`]: the log-scale latency histogram (shared with `ninf-loadgen`).
//! - [`export`]: joins per-process spans into call trees, exports Chrome
//!   `trace_event` JSON for Perfetto, validates nesting.
//! - [`log`]: leveled `key=value` structured logging ([`logkv!`]).
//!
//! The crate is dependency-light on purpose: `ninf-protocol` depends on it
//! for the wire-visible types, so it must sit below the whole stack.

pub mod export;
pub mod hist;
pub mod http;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod trace;
pub mod window;

pub use hist::LogHistogram;
pub use metrics::{process_metrics, Counter, Gauge, MetricsRegistry};
pub use recorder::FlightRecorder;
pub use ring::CursorRing;
pub use trace::{next_id, now_us, Span, TraceContext};
pub use window::{MetricFrame, MetricKind, MetricSample, WindowsSnapshot};
