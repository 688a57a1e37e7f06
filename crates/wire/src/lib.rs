//! Versioned binary wire protocol for the serving tier.
//!
//! A hand-rolled, explicit little-endian codec for everything that crosses
//! the network boundary of `unn-net`:
//!
//! * **Framing** — every message is `len: u32 LE` followed by `len` body
//!   bytes; the first body byte is the frame tag. `len` is bounded by
//!   [`MAX_FRAME_LEN`], so a corrupt prefix can never provoke an unbounded
//!   allocation. [`frame_split`] incrementally re-frames an arbitrary byte
//!   stream (frames split or coalesced across reads reassemble correctly).
//! * **Handshake** — [`Hello`] carries a magic number, the client's
//!   [`WIRE_VERSION`], and an optional expected index epoch; [`HelloAck`]
//!   answers with the server's version, epoch, live count, and Monte-Carlo
//!   round count. Version or epoch mismatches are rejected with a typed
//!   [`ErrorFrame`] before any query is served.
//! * **Queries** — [`unn_serve::Request`] batches travel with a
//!   remaining-budget deadline in nanoseconds, and [`unn_serve::Reply`]
//!   batches come back field-for-field, `f64`s as IEEE bit patterns —
//!   decoding an encoded reply reproduces the in-process value bit for bit.
//! * **Totality** — the decoder never panics on arbitrary, truncated, or
//!   corrupt input: every read is bounds-checked, every enum tag and
//!   length is validated, and failures surface as typed [`WireError`]s.
//!   Collection lengths are checked against the bytes actually remaining
//!   before any allocation, so hostile counts cannot balloon memory.
//!
//! Compatibility contract: [`WIRE_VERSION`] bumps on any layout change
//! (frames carry no per-field tags, so layout is the version). Both sides
//! reject a version they do not speak during the handshake — after a
//! successful handshake every frame can be decoded by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod frames;

pub use codec::{Reader, Writer};
pub use frames::{
    decode_frame, decode_reply_body, decode_request_body, encode_frame, encode_reply_body,
    encode_request_body, ErrorCode, ErrorFrame, Frame, Hello, HelloAck, ReplyBatch, RequestBatch,
};

use std::fmt;

/// Protocol version; bumped on any frame-layout change.
pub const WIRE_VERSION: u16 = 1;

/// Handshake magic: `b"UNNW"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"UNNW");

/// Upper bound on one frame's body length (64 MiB). A corrupt length
/// prefix beyond this is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Epoch wildcard in [`Hello::expected_epoch`]: accept any server epoch.
pub const ANY_EPOCH: u64 = u64::MAX;

/// Frame tags (first body byte).
pub mod tag {
    /// Client handshake.
    pub const HELLO: u8 = 1;
    /// Server handshake acknowledgement.
    pub const HELLO_ACK: u8 = 2;
    /// A batch of serving requests with a deadline budget.
    pub const REQUEST_BATCH: u8 = 3;
    /// A batch of serving replies, in request order.
    pub const REPLY_BATCH: u8 = 4;
    /// A typed protocol-level error.
    pub const ERROR: u8 = 5;
    /// A standalone `QuantifyOutcome` value (encoded by the `unn` façade).
    pub const QUANTIFY_OUTCOME: u8 = 6;
    /// A standalone `UnnError` value (encoded by the `unn` façade).
    pub const UNN_ERROR: u8 = 7;
}

/// Why a decode failed. Every variant is a rejected input, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field under `what` was complete.
    Truncated {
        /// Which field needed more bytes.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The handshake magic number did not match [`MAGIC`].
    BadMagic {
        /// The value received instead.
        got: u32,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`WIRE_VERSION`].
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// An enum tag byte was outside its documented range.
    UnknownTag {
        /// Which enum the tag belongs to.
        what: &'static str,
        /// The tag received.
        tag: u8,
    },
    /// A length field exceeded its bound (frame cap, or the bytes
    /// actually remaining for a collection).
    LengthOverflow {
        /// Which length field overflowed.
        what: &'static str,
        /// The claimed length.
        len: u64,
        /// The maximum admissible here.
        cap: u64,
    },
    /// A frame body decoded completely but bytes were left over.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// A field decoded but held an inadmissible value (non-boolean byte,
    /// invalid UTF-8, …).
    InvalidValue {
        /// Which field was invalid.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated input: {what} needs {needed} bytes, {available} available"
            ),
            WireError::BadMagic { got } => {
                write!(f, "bad handshake magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, theirs {theirs}")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::LengthOverflow { what, len, cap } => {
                write!(f, "{what} length {len} exceeds cap {cap}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame body")
            }
            WireError::InvalidValue { what } => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Splits the next complete frame off `buf`: `Ok(Some((body, consumed)))`
/// when a whole frame is buffered, `Ok(None)` when more bytes are needed,
/// and `Err` when the length prefix itself is inadmissible (zero or beyond
/// [`MAX_FRAME_LEN`]) — the stream is unrecoverable then, since the frame
/// boundary is lost.
pub fn frame_split(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::LengthOverflow {
            what: "frame body",
            len: len as u64,
            cap: MAX_FRAME_LEN as u64,
        });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&buf[4..4 + len], 4 + len)))
}

/// Wraps a frame body in the `u32 LE` length prefix.
///
/// Bodies above [`MAX_FRAME_LEN`] cannot be represented; the body is
/// truncated to an empty (invalid, always-rejected) frame instead — callers
/// building frames from this crate's encoders never hit the cap.
pub fn frame_bytes(body: &[u8]) -> Vec<u8> {
    if body.is_empty() || body.len() > MAX_FRAME_LEN {
        debug_assert!(false, "frame body must be 1..={MAX_FRAME_LEN} bytes");
        return vec![0, 0, 0, 0];
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}
