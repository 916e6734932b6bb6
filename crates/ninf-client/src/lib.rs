//! The Ninf client API.
//!
//! "Ninf_call is a representative API used for invoking a named remote
//! library on the server as if it were on a local machine via Ninf RPC"
//! (paper §2.2). The Rust rendering:
//!
//! ```no_run
//! use ninf_client::NinfClient;
//! use ninf_protocol::Value;
//!
//! let mut client = NinfClient::connect("127.0.0.1:5656")?;
//! let n = 4usize;
//! let results = client.ninf_call(
//!     "dmmul",
//!     &[
//!         Value::Int(n as i32),
//!         Value::DoubleArray(vec![1.0; n * n]), // A
//!         Value::DoubleArray(vec![2.0; n * n]), // B
//!     ],
//! )?;
//! let c = &results[0]; // C = A × B
//! # let _ = c;
//! # Ok::<(), ninf_protocol::ProtocolError>(())
//! ```
//!
//! There is no client-side stub, header, or IDL file: the first stage of the
//! call fetches the compiled interface from the server and interprets it to
//! size and marshal every argument (§2.3).
//!
//! There is one way to make a call. [`NinfClient::ninf_call`] runs it under
//! the client's [`CallOptions`] in the crate's only retry loop, where an
//! attempt is "be connected, then run the operation": the dial (or pool
//! checkout) is part of the attempt, and a connection that failed is
//! dropped, never reused. Everything else is that loop under another name:
//!
//! * [`Call`] — a one-shot call as a plain value (destination, routine,
//!   arguments, options, optional pool and trace position) with three
//!   verbs: [`Call::run`], [`Call::spawn`], and [`Call::two_phase`] for
//!   §5.1's submit / disconnect / poll / fetch, a different protocol rather
//!   than an option of the same one;
//! * [`ninf_call_url`] and [`call_async`] — the paper's URL-form
//!   `Ninf_call` and `Ninf_call_async` as one-liners over [`Call`];
//! * [`transaction`] — `Ninf_transaction_begin/end`: record a block of calls,
//!   derive the data-dependency DAG, and hand it to a scheduler (the
//!   metaserver executes independent calls task-parallel, §2.4 / §4.3.1).

pub mod argmem;
pub mod bulk;
pub mod client;
pub mod transaction;

pub use bulk::{upload, UploadReport, DEFAULT_LANE_DEADLINE, MAX_CHUNK_ATTEMPTS};
pub use client::{
    call_async, ninf_call_url, parse_ninf_url, AsyncCall, Call, CallOptions, CallTiming,
    LocalTxError, NinfClient,
};
pub use transaction::{execute_locally, PlannedCall, SlotId, Transaction, TxArg};
