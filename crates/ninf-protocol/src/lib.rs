//! The Ninf RPC wire protocol.
//!
//! Ninf RPC is "tailored for the needs of high-performance numerical
//! computing" (paper §2): Sun XDR on TCP/IP, matrices shipped as flat arrays,
//! and a *two-stage* call. One `Ninf_call` proceeds over a single connection:
//!
//! ```text
//! client                                server
//!   |  QueryInterface("linpack")          |
//!   |------------------------------------>|
//!   |  InterfaceReply(compiled IDL)       |   stage 1: "returns the compiled
//!   |<------------------------------------|   IDL information as
//!   |  Invoke(args marshalled per IDL)    |   interpretable code"
//!   |------------------------------------>|
//!   |          ... execution ...          |   stage 2: interpret, marshal,
//!   |  ResultData(out args)               |   execute, return
//!   |<------------------------------------|
//! ```
//!
//! No client-side stubs, headers, or linking are needed — the client learns
//! argument layouts at call time (§2.3).
//!
//! The crate provides the message set ([`message::Message`]), the typed
//! argument values ([`value::Value`]), binary framing, and two transports:
//! real TCP ([`transport::TcpTransport`]) and an in-process channel pair
//! ([`transport::ChannelTransport`]) for tests and benchmarks.

pub mod chunk;
pub mod codec;
pub mod crc;
pub mod digest;
pub mod error;
pub mod frame;
pub mod link;
pub mod marshal;
pub mod message;
pub mod rng;
pub mod transport;
pub mod value;

pub use chunk::{
    chunk_count, chunk_span, split as split_chunks, ChunkError, Reassembly, CHUNK_THRESHOLD,
    DEFAULT_CHUNK_BYTES,
};
pub use codec::Wire;
pub use crc::{crc32c, Crc32c};
pub use digest::{cacheable, digest_value, value_image, Digest, ARG_CACHE_MIN_BYTES};
pub use error::{ProtocolError, ProtocolResult};
pub use frame::{
    check_frame_payload, digested_image, encode_call, encode_frame, parse_frame_header, read_frame,
    read_frame_mux, write_frame, write_frame_mux, CheckedFrame, FrameHeader, FRAME_HEADER_BYTES,
    FRAME_MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use link::{
    eff_loss_ppm, lane_window, link_fingerprint, link_for, link_schedule, planned_event, LinkEvent,
    LinkHistory, LinkShape, LinkStats, LinkTransport, SharedLink, MAX_LANE_WINDOW,
};
pub use marshal::{
    reply_payload_bytes, request_payload_bytes, validate_call_args, validate_results,
};
pub use message::{Arg, CallArg, CallKind, CallStat, JobPhase, LoadReport, Message};
pub use ninf_obs::{MetricFrame, MetricKind, MetricSample, Span, TraceContext, WindowsSnapshot};
pub use rng::SplitMix64;
pub use transport::{ChannelTransport, FrameFn, Pipelined, TcpTransport, Transport};
pub use value::Value;
