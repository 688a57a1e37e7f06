//! Frame definitions and the serving-type codecs.

use unn_dynamic::PointId;
use unn_geom::Point;
use unn_serve::{Outcome, Reply, Request, ShedReason};

use crate::codec::{Reader, Writer, EXPANSION_BUDGET};
use crate::{tag, WireError, ANY_EPOCH, MAGIC, MAX_FRAME_LEN, WIRE_VERSION};

/// Client handshake: magic, protocol version, expected index epoch
/// ([`ANY_EPOCH`] = accept whatever the server holds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The client's protocol version.
    pub version: u16,
    /// The index epoch the client expects, or [`ANY_EPOCH`].
    pub expected_epoch: u64,
}

impl Default for Hello {
    fn default() -> Self {
        Self {
            version: WIRE_VERSION,
            expected_epoch: ANY_EPOCH,
        }
    }
}

/// Server handshake acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// The server's protocol version.
    pub version: u16,
    /// The epoch of the index snapshot behind the dispatcher.
    pub index_epoch: u64,
    /// Live points the server covers.
    pub total_live: u64,
    /// Monte-Carlo rounds per shard block.
    pub mc_rounds: u64,
}

/// Typed protocol-level errors a server sends. Every code but
/// [`ErrorCode::TooLarge`] closes the connection behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer's protocol version is not ours.
    VersionMismatch,
    /// The client demanded an index epoch the server does not hold.
    EpochMismatch,
    /// A frame failed to decode (corrupt or truncated body).
    Malformed,
    /// The server could not serve (internal failure).
    Internal,
    /// The reply batch exceeds a limit [`decode_frame`] enforces (see
    /// [`encode_frame_checked`]); `ours` is the cap, `theirs` the length.
    /// Re-sending the same batch cannot succeed.
    TooLarge,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 0,
            ErrorCode::EpochMismatch => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::Internal => 3,
            ErrorCode::TooLarge => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => ErrorCode::VersionMismatch,
            1 => ErrorCode::EpochMismatch,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::Internal,
            4 => ErrorCode::TooLarge,
            _ => {
                return Err(WireError::UnknownTag {
                    what: "error code",
                    tag: v,
                })
            }
        })
    }
}

/// A protocol error frame: the code plus two code-specific numbers
/// (ours/theirs for mismatches, zero otherwise) and a short diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What went wrong.
    pub code: ErrorCode,
    /// Code-specific (e.g. our version / our epoch).
    pub ours: u64,
    /// Code-specific (e.g. the peer's version / requested epoch).
    pub theirs: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// A batch of requests and the client's remaining deadline budget in
/// nanoseconds (`u64::MAX` = unlimited). The server clamps its own
/// per-query deadline to this, so client-side budget spent on transport
/// retries tightens the server's admission ladder honestly.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestBatch {
    /// Remaining deadline budget, nanoseconds.
    pub budget_nanos: u64,
    /// The requests, in order.
    pub requests: Vec<Request>,
}

/// A batch of replies, in request order.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplyBatch {
    /// The replies.
    pub replies: Vec<Reply>,
}

/// Every session frame the protocol speaks.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake.
    Hello(Hello),
    /// Server handshake acknowledgement.
    HelloAck(HelloAck),
    /// A request batch.
    RequestBatch(RequestBatch),
    /// A reply batch.
    ReplyBatch(ReplyBatch),
    /// A protocol error.
    Error(ErrorFrame),
}

/// Encodes one frame into its body bytes (no length prefix; wrap with
/// [`crate::frame_bytes`] before writing to a transport).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Hello(h) => {
            let mut w = Writer::with_tag(tag::HELLO);
            w.u32(MAGIC);
            w.u16(h.version);
            w.u64(h.expected_epoch);
            w.into_bytes()
        }
        Frame::HelloAck(a) => {
            let mut w = Writer::with_tag(tag::HELLO_ACK);
            w.u16(a.version);
            w.u64(a.index_epoch);
            w.u64(a.total_live);
            w.u64(a.mc_rounds);
            w.into_bytes()
        }
        Frame::RequestBatch(b) => {
            let mut w = Writer::with_tag(tag::REQUEST_BATCH);
            w.u64(b.budget_nanos);
            w.u32(b.requests.len() as u32);
            for req in &b.requests {
                encode_request_body(&mut w, req);
            }
            w.into_bytes()
        }
        Frame::ReplyBatch(b) => {
            let mut w = Writer::with_tag(tag::REPLY_BATCH);
            w.u32(b.replies.len() as u32);
            for reply in &b.replies {
                encode_reply_body(&mut w, reply);
            }
            w.into_bytes()
        }
        Frame::Error(e) => {
            let mut w = Writer::with_tag(tag::ERROR);
            w.u8(e.code.to_u8());
            w.u64(e.ours);
            w.u64(e.theirs);
            w.str(&e.detail);
            w.into_bytes()
        }
    }
}

/// [`encode_frame`] under the limits [`decode_frame`] enforces: the
/// elements a [`ReplyBatch`]'s π vectors and layouts expand to stay within
/// the decoder's expansion budget (`MAX_FRAME_LEN / 8` per frame, checked
/// before encoding), and the body within [`MAX_FRAME_LEN`]. A frame that
/// fails either check is one no peer could decode; both failures are
/// [`WireError::LengthOverflow`].
pub fn encode_frame_checked(frame: &Frame) -> Result<Vec<u8>, WireError> {
    if let Frame::ReplyBatch(b) = frame {
        let expanded: usize = b
            .replies
            .iter()
            .map(|r| outcome_pi(&r.outcome).map_or(0, <[f64]>::len) + r.layout.len())
            .sum();
        if expanded > EXPANSION_BUDGET {
            return Err(WireError::LengthOverflow {
                what: "reply batch expansion",
                len: expanded as u64,
                cap: EXPANSION_BUDGET as u64,
            });
        }
    }
    let body = encode_frame(frame);
    if body.len() > MAX_FRAME_LEN {
        return Err(WireError::LengthOverflow {
            what: "frame body",
            len: body.len() as u64,
            cap: MAX_FRAME_LEN as u64,
        });
    }
    Ok(body)
}

fn outcome_pi(outcome: &Outcome) -> Option<&[f64]> {
    match outcome {
        Outcome::Exact { pi } | Outcome::Adaptive { pi, .. } | Outcome::Capped { pi, .. } => {
            Some(pi)
        }
        Outcome::Nonzero { .. } | Outcome::Shed { .. } => None,
    }
}

/// Decodes one frame body (the bytes after the length prefix). Total: any
/// malformed input returns a typed [`WireError`], never a panic.
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let t = r.u8("frame tag")?;
    let frame = match t {
        tag::HELLO => {
            let magic = r.u32("hello magic")?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            Frame::Hello(Hello {
                version: r.u16("hello version")?,
                expected_epoch: r.u64("hello expected_epoch")?,
            })
        }
        tag::HELLO_ACK => Frame::HelloAck(HelloAck {
            version: r.u16("ack version")?,
            index_epoch: r.u64("ack index_epoch")?,
            total_live: r.u64("ack total_live")?,
            mc_rounds: r.u64("ack mc_rounds")?,
        }),
        tag::REQUEST_BATCH => {
            let budget_nanos = r.u64("batch budget_nanos")?;
            // A request is at least 17 bytes (tag + two f64s).
            let n = r.count("request count", 17)?;
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                requests.push(decode_request_body(&mut r)?);
            }
            Frame::RequestBatch(RequestBatch {
                budget_nanos,
                requests,
            })
        }
        tag::REPLY_BATCH => {
            // The smallest reply (empty shed-free nonzero) is > 40 bytes;
            // 17 is a safe conservative floor for the count check.
            let n = r.count("reply count", 17)?;
            let mut replies = Vec::with_capacity(n);
            for _ in 0..n {
                replies.push(decode_reply_body(&mut r)?);
            }
            Frame::ReplyBatch(ReplyBatch { replies })
        }
        tag::ERROR => Frame::Error(ErrorFrame {
            code: ErrorCode::from_u8(r.u8("error code")?)?,
            ours: r.u64("error ours")?,
            theirs: r.u64("error theirs")?,
            detail: r.str("error detail")?,
        }),
        other => {
            return Err(WireError::UnknownTag {
                what: "frame",
                tag: other,
            })
        }
    };
    r.expect_end()?;
    Ok(frame)
}

fn encode_point(w: &mut Writer, p: Point) {
    w.f64(p.x);
    w.f64(p.y);
}

fn decode_point(r: &mut Reader<'_>) -> Result<Point, WireError> {
    Ok(Point {
        x: r.f64("point x")?,
        y: r.f64("point y")?,
    })
}

/// Encodes one [`Request`] into `w`.
pub fn encode_request_body(w: &mut Writer, req: &Request) {
    match req {
        Request::NnNonzero(q) => {
            w.u8(0);
            encode_point(w, *q);
        }
        Request::Quantify(q) => {
            w.u8(1);
            encode_point(w, *q);
        }
    }
}

/// Decodes one [`Request`] from `r`.
pub fn decode_request_body(r: &mut Reader<'_>) -> Result<Request, WireError> {
    match r.u8("request tag")? {
        0 => Ok(Request::NnNonzero(decode_point(r)?)),
        1 => Ok(Request::Quantify(decode_point(r)?)),
        t => Err(WireError::UnknownTag {
            what: "request",
            tag: t,
        }),
    }
}

fn encode_shed_reason(w: &mut Writer, reason: ShedReason) {
    w.u8(match reason {
        ShedReason::CapacityExhausted => 0,
        ShedReason::InvalidQuery => 1,
        ShedReason::NoCoverage => 2,
        ShedReason::DeadlineExceeded => 3,
    });
}

fn decode_shed_reason(r: &mut Reader<'_>) -> Result<ShedReason, WireError> {
    Ok(match r.u8("shed reason")? {
        0 => ShedReason::CapacityExhausted,
        1 => ShedReason::InvalidQuery,
        2 => ShedReason::NoCoverage,
        3 => ShedReason::DeadlineExceeded,
        t => {
            return Err(WireError::UnknownTag {
                what: "shed reason",
                tag: t,
            })
        }
    })
}

fn encode_outcome(w: &mut Writer, outcome: &Outcome) {
    match outcome {
        Outcome::Nonzero { ids } => {
            w.u8(0);
            w.vec_u64(ids);
        }
        Outcome::Exact { pi } => {
            w.u8(1);
            w.sparse_f64(pi);
        }
        Outcome::Adaptive {
            pi,
            achieved_epsilon,
            rounds_used,
        } => {
            w.u8(2);
            w.sparse_f64(pi);
            w.f64(*achieved_epsilon);
            w.usize(*rounds_used);
        }
        Outcome::Capped {
            pi,
            achieved_epsilon,
            rounds_used,
        } => {
            w.u8(3);
            w.sparse_f64(pi);
            w.f64(*achieved_epsilon);
            w.usize(*rounds_used);
        }
        Outcome::Shed { reason } => {
            w.u8(4);
            encode_shed_reason(w, *reason);
        }
    }
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<Outcome, WireError> {
    Ok(match r.u8("outcome tag")? {
        0 => Outcome::Nonzero {
            ids: r.vec_u64("nonzero ids")?,
        },
        1 => Outcome::Exact {
            pi: r.sparse_f64("exact pi")?,
        },
        2 => Outcome::Adaptive {
            pi: r.sparse_f64("adaptive pi")?,
            achieved_epsilon: r.f64("adaptive epsilon")?,
            rounds_used: r.usize("adaptive rounds_used")?,
        },
        3 => Outcome::Capped {
            pi: r.sparse_f64("capped pi")?,
            achieved_epsilon: r.f64("capped epsilon")?,
            rounds_used: r.usize("capped rounds_used")?,
        },
        4 => Outcome::Shed {
            reason: decode_shed_reason(r)?,
        },
        t => {
            return Err(WireError::UnknownTag {
                what: "outcome",
                tag: t,
            })
        }
    })
}

/// Encodes one [`Reply`] into `w`, field for field: π sparse
/// ([`Writer::sparse_f64`]), the layout as runs ([`Writer::runs_u64`]),
/// NN≠0 ids dense. `f64`s travel as bit patterns, so a decoded reply is
/// bit-identical to the encoded one.
pub fn encode_reply_body(w: &mut Writer, reply: &Reply) {
    encode_outcome(w, &reply.outcome);
    w.runs_u64(&reply.layout);
    w.u32(reply.failed_shards.len() as u32);
    for &k in &reply.failed_shards {
        w.usize(k);
    }
    w.usize(reply.covered);
    w.usize(reply.total_live);
    w.u64(reply.retries);
    w.u64(reply.elapsed_nanos);
    w.bool(reply.degraded);
}

/// Decodes one [`Reply`] from `r`.
pub fn decode_reply_body(r: &mut Reader<'_>) -> Result<Reply, WireError> {
    let outcome = decode_outcome(r)?;
    let layout: Vec<PointId> = r.runs_u64("reply layout")?;
    let n_failed = r.count("failed shards", 8)?;
    let mut failed_shards = Vec::with_capacity(n_failed);
    for _ in 0..n_failed {
        failed_shards.push(r.usize("failed shard")?);
    }
    Ok(Reply {
        outcome,
        layout,
        failed_shards,
        covered: r.usize("reply covered")?,
        total_live: r.usize("reply total_live")?,
        retries: r.u64("reply retries")?,
        elapsed_nanos: r.u64("reply elapsed_nanos")?,
        degraded: r.bool("reply degraded")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frame_bytes, frame_split};

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply {
                outcome: Outcome::Nonzero {
                    ids: vec![3, 9, 12],
                },
                layout: vec![],
                failed_shards: vec![1],
                covered: 10,
                total_live: 14,
                retries: 2,
                elapsed_nanos: 12_345,
                degraded: true,
            },
            Reply {
                outcome: Outcome::Adaptive {
                    pi: vec![0.25, 0.75, 0.0],
                    achieved_epsilon: 0.031_25,
                    rounds_used: 96,
                },
                layout: vec![0, 1, 2],
                failed_shards: vec![],
                covered: 3,
                total_live: 3,
                retries: 0,
                elapsed_nanos: 0,
                degraded: false,
            },
            Reply {
                outcome: Outcome::Shed {
                    reason: ShedReason::DeadlineExceeded,
                },
                layout: vec![],
                failed_shards: vec![0, 1, 2],
                covered: 0,
                total_live: 7,
                retries: 6,
                elapsed_nanos: 999,
                degraded: false,
            },
        ]
    }

    #[test]
    fn all_session_frames_round_trip() {
        let frames = vec![
            Frame::Hello(Hello::default()),
            Frame::HelloAck(HelloAck {
                version: WIRE_VERSION,
                index_epoch: 42,
                total_live: 1_000,
                mc_rounds: 512,
            }),
            Frame::RequestBatch(RequestBatch {
                budget_nanos: 5_000_000,
                requests: vec![
                    Request::NnNonzero(Point { x: 1.5, y: -2.5 }),
                    Request::Quantify(Point { x: 0.0, y: 1e308 }),
                ],
            }),
            Frame::ReplyBatch(ReplyBatch {
                replies: sample_replies(),
            }),
            Frame::Error(ErrorFrame {
                code: ErrorCode::VersionMismatch,
                ours: 1,
                theirs: 9,
                detail: "speak v1".into(),
            }),
        ];
        for f in frames {
            let body = encode_frame(&f);
            let back = decode_frame(&body).unwrap_or_else(|e| panic!("decode {f:?}: {e}"));
            assert_eq!(back, f);
            // And through the framing layer.
            let framed = frame_bytes(&body);
            let (split_body, used) = frame_split(&framed)
                .unwrap_or_else(|e| panic!("split: {e}"))
                .unwrap_or_else(|| panic!("frame incomplete"));
            assert_eq!(used, framed.len());
            assert_eq!(split_body, &body[..]);
        }
    }

    #[test]
    fn truncation_at_every_boundary_errors_cleanly() {
        let body = encode_frame(&Frame::ReplyBatch(ReplyBatch {
            replies: sample_replies(),
        }));
        for cut in 0..body.len() {
            let res = decode_frame(&body[..cut]);
            assert!(res.is_err(), "truncated at {cut}/{} decoded", body.len());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_frame(&Frame::Hello(Hello::default()));
        body.push(0);
        assert!(matches!(
            decode_frame(&body),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn tags_outside_the_session_frames_are_rejected() {
        for t in [0, 6, 7, 200] {
            assert!(matches!(
                decode_frame(&[t]),
                Err(WireError::UnknownTag { .. })
            ));
        }
    }

    #[test]
    fn frame_split_reassembles_and_rejects_bad_prefixes() {
        let body = encode_frame(&Frame::Hello(Hello::default()));
        let framed = frame_bytes(&body);
        // Incremental: no prefix yet, partial body, then complete.
        assert_eq!(frame_split(&framed[..3]).ok(), Some(None));
        assert_eq!(frame_split(&framed[..framed.len() - 1]).ok(), Some(None));
        // Zero-length and oversized prefixes are unrecoverable.
        assert!(frame_split(&[0, 0, 0, 0, 1]).is_err());
        assert!(frame_split(&u32::MAX.to_le_bytes()).is_err());
    }
}
