//! Protocol error type.

use std::fmt;

/// Errors from framing, message codecs, or transports.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// XDR-level decode failure.
    Xdr(ninf_xdr::XdrError),
    /// Compiled-IDL decode failure.
    Idl(ninf_idl::IdlError),
    /// Frame-level violation (bad magic, oversized frame, trailing bytes).
    Frame(String),
    /// The frame payload failed its CRC-32C integrity check: the bytes were
    /// corrupted in flight. The stream is desynchronized after this; the
    /// connection must be torn down.
    Checksum {
        /// Digest the frame header promised.
        expected: u32,
        /// Digest of the payload that actually arrived.
        got: u32,
    },
    /// The peer speaks a different frame version. Deterministic per peer:
    /// retrying the same endpoint cannot succeed.
    UnsupportedVersion {
        /// Version word the peer sent.
        got: u32,
        /// Version this implementation speaks.
        want: u32,
    },
    /// Unknown or out-of-order message for the current protocol state.
    UnexpectedMessage {
        /// What the caller was waiting for.
        expected: &'static str,
        /// What arrived instead.
        got: String,
    },
    /// A windowed upload's peer acked what was not sent: a `ChunkOk` naming
    /// another `(digest, seq)` than the chunk its ticket carried — another
    /// seq, or the same seq of another image — or one on a ticket never
    /// posted. Nothing on that connection can be trusted after this,
    /// and a fresh one to the same peer is no better, so it is not
    /// retryable.
    AckMismatch {
        /// The ticket the ack came back on.
        ticket: u64,
        /// Seq of the chunk that ticket carried (`None`: no such ticket was
        /// posted).
        sent: Option<u32>,
        /// Seq the ack named.
        acked: u32,
    },
    /// The remote side reported an error (e.g. unknown routine, singular
    /// matrix, argument mismatch).
    Remote(String),
    /// The in-process channel peer disappeared.
    Disconnected,
    /// A configured deadline elapsed before the operation completed. The
    /// connection is desynchronized after this (a late reply may still be in
    /// flight); callers must reconnect before retrying.
    Timeout {
        /// Which operation hit the deadline ("connect", "read", "write").
        operation: &'static str,
        /// The deadline that elapsed.
        after: std::time::Duration,
    },
}

impl ProtocolError {
    /// Whether this is a deadline expiry.
    pub fn is_timeout(&self) -> bool {
        matches!(self, ProtocolError::Timeout { .. })
    }

    /// Whether retrying the operation on a *fresh connection* could succeed.
    /// Remote application errors, version mismatches and mismatched acks
    /// are deterministic and excluded; checksum failures are transient wire
    /// corruption and *are* retryable once reconnected.
    pub fn is_retryable(&self) -> bool {
        !matches!(
            self,
            ProtocolError::Remote(_)
                | ProtocolError::UnsupportedVersion { .. }
                | ProtocolError::AckMismatch { .. }
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "I/O error: {e}"),
            ProtocolError::Xdr(e) => write!(f, "XDR error: {e}"),
            ProtocolError::Idl(e) => write!(f, "IDL error: {e}"),
            ProtocolError::Frame(m) => write!(f, "frame error: {m}"),
            ProtocolError::Checksum { expected, got } => write!(
                f,
                "checksum mismatch: header promised crc32c {expected:#010x}, payload has {got:#010x}"
            ),
            ProtocolError::UnsupportedVersion { got, want } => {
                write!(f, "unsupported frame version {got} (this peer speaks v{want})")
            }
            ProtocolError::UnexpectedMessage { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            ProtocolError::AckMismatch {
                ticket,
                sent: Some(sent),
                acked,
            } => write!(
                f,
                "protocol violation: ticket {ticket} carried chunk {sent}, its ack names chunk {acked} of this or another image"
            ),
            ProtocolError::AckMismatch {
                ticket,
                sent: None,
                acked,
            } => write!(
                f,
                "protocol violation: ack for chunk {acked} on ticket {ticket}, which was never posted"
            ),
            ProtocolError::Remote(m) => write!(f, "remote error: {m}"),
            ProtocolError::Disconnected => write!(f, "peer disconnected"),
            ProtocolError::Timeout { operation, after } => {
                write!(f, "timeout: {operation} deadline of {after:?} elapsed")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Xdr(e) => Some(e),
            ProtocolError::Idl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<ninf_xdr::XdrError> for ProtocolError {
    fn from(e: ninf_xdr::XdrError) -> Self {
        ProtocolError::Xdr(e)
    }
}

impl From<ninf_idl::IdlError> for ProtocolError {
    fn from(e: ninf_idl::IdlError) -> Self {
        ProtocolError::Idl(e)
    }
}

/// Convenience alias.
pub type ProtocolResult<T> = Result<T, ProtocolError>;
