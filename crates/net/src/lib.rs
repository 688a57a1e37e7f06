//! Fault-tolerant network transport for the uncertain-NN serving tier.
//!
//! The transport layers `unn-wire`'s versioned binary protocol over three
//! interchangeable byte streams, all speaking to the same sans-io server
//! state machine:
//!
//! * [`NetServer`] / [`TcpDuplex`] — a `std::net` TCP server (threaded
//!   accept loop over a shared [`Dispatcher`](unn_serve::Dispatcher)) and
//!   the matching client stream with read timeouts.
//! * [`LoopbackDuplex`] — an in-memory duplex that feeds the *same*
//!   [`Connection`] state machine the TCP threads run, so the whole
//!   protocol stack is testable deterministically without sockets. The
//!   acceptance bar: loopback replies are **bit-identical** to in-process
//!   `Dispatcher::serve` calls.
//! * [`ChaosDuplex`] — a deterministic fault injector over any duplex:
//!   scripted per-write [`FrameFault`]s drop, truncate, corrupt, delay, or
//!   split frames, with no RNG inside the transport.
//!
//! [`NetClient`] owns connection reuse and reconnect: transport-level
//! failures (I/O errors, lost replies, malformed frames) burn a retry from
//! the same [`RetryPolicy`](unn_serve::RetryPolicy) machinery the
//! dispatcher uses shard-side, with exponential backoff charged to the
//! query budget. Deadlines cross the wire as *remaining-budget
//! nanoseconds*: each attempt sends `budget − elapsed` (elapsed includes
//! modeled backoff and chaos-injected delay), and the server clamps its
//! admission ladder to what is left — so degradation and shedding stay
//! honest end to end. Version or epoch mismatches rejected by the
//! handshake are **not** retried; they cannot heal by retrying.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod client;
mod conn;
mod loopback;
mod tcp;

pub use chaos::{ChaosDuplex, FrameFault};
pub use client::{ClientConfig, ClientStats, NetClient};
pub use conn::{Connection, ServerConfig};
pub use loopback::LoopbackDuplex;
pub use tcp::{tcp_connector, NetServer, TcpDuplex};

use std::fmt;

use unn_wire::{ErrorCode, WireError};

/// A byte-stream transport endpoint as the client sees it: raw writes in,
/// complete frame bodies out.
pub trait Duplex: Send {
    /// Writes raw stream bytes (already length-prefixed by the caller).
    fn write(&mut self, bytes: &[u8]) -> Result<(), NetError>;

    /// Reads the next complete frame body off the stream, blocking up to
    /// the transport's read timeout.
    fn read_frame(&mut self) -> Result<Vec<u8>, NetError>;

    /// Drains transport-injected delay (chaos faults) in modeled
    /// nanoseconds, charged to the caller's deadline budget.
    fn take_injected_nanos(&mut self) -> u64 {
        0
    }
}

/// Errors surfaced by the transport layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// An I/O operation failed (socket error, timeout, lost reply).
    Io {
        /// Which operation.
        op: &'static str,
        /// The underlying error, stringified.
        message: String,
    },
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The server rejected the handshake; not retryable.
    Handshake {
        /// Why.
        code: ErrorCode,
        /// Code-specific (server's version / epoch).
        ours: u64,
        /// Code-specific (our version / requested epoch).
        theirs: u64,
        /// Server-provided detail.
        detail: String,
    },
    /// The server reported an error after the handshake.
    Remote {
        /// Why.
        code: ErrorCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The peer closed the connection.
    ConnectionClosed,
    /// The deadline budget ran out before a reply arrived.
    BudgetExhausted {
        /// The budget that was exhausted, in nanoseconds.
        budget_nanos: u64,
    },
    /// The peer sent a frame the protocol does not allow here.
    Protocol {
        /// What was unexpected.
        what: String,
    },
    /// The request batch encodes past a limit the peer's decoder enforces
    /// (see [`unn_wire::encode_frame_checked`]); nothing was sent.
    TooLarge {
        /// The encoded length.
        len: u64,
        /// The limit it exceeds.
        cap: u64,
    },
}

impl NetError {
    /// True when a retry on a fresh connection could plausibly succeed.
    /// Handshake rejections, an exhausted budget, a request batch too
    /// large to send and a reply the server refused as
    /// [`ErrorCode::TooLarge`] are permanent.
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Io { .. }
            | NetError::Wire(_)
            | NetError::ConnectionClosed
            | NetError::Protocol { .. } => true,
            NetError::Remote { code, .. } => {
                matches!(code, ErrorCode::Malformed | ErrorCode::Internal)
            }
            NetError::Handshake { .. }
            | NetError::BudgetExhausted { .. }
            | NetError::TooLarge { .. } => false,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { op, message } => write!(f, "transport {op} failed: {message}"),
            NetError::Wire(e) => write!(f, "wire codec: {e}"),
            NetError::Handshake {
                code,
                ours,
                theirs,
                detail,
            } => write!(
                f,
                "handshake rejected ({code:?}, server {ours}, client {theirs}): {detail}"
            ),
            NetError::Remote { code, detail } => write!(f, "server error ({code:?}): {detail}"),
            NetError::ConnectionClosed => write!(f, "connection closed by peer"),
            NetError::BudgetExhausted { budget_nanos } => {
                write!(f, "deadline budget of {budget_nanos} ns exhausted")
            }
            NetError::Protocol { what } => write!(f, "protocol violation: {what}"),
            NetError::TooLarge { len, cap } => {
                write!(f, "request batch of {len} exceeds cap {cap}; not sent")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}
