//! Façade over the [`unn_wire`] binary protocol, plus the codecs for the
//! core resilience types.
//!
//! `unn-wire` sits below this crate in the dependency graph, so it can
//! encode the serving-tier types ([`Request`](crate::serve::Request),
//! [`Reply`](crate::serve::Reply)) but not the core vocabulary. This
//! module closes the gap with standalone value frames on the tags
//! `unn-wire` reserves for the façade:
//!
//! * [`encode_quantify_outcome`] / [`decode_quantify_outcome`] —
//!   [`QuantifyOutcome`] on [`tag::QUANTIFY_OUTCOME`];
//! * [`encode_unn_error`] / [`decode_unn_error`] — [`UnnError`] on
//!   [`tag::UNN_ERROR`].
//!
//! Both codecs follow the wire crate's totality contract: `f64`s travel
//! as IEEE bit patterns (bit-identical round trips), π in the sparse form
//! of [`Writer::sparse_f64`], every tag and length is validated, and
//! malformed input returns a typed [`WireError`] — never a panic.

pub use unn_wire::{
    decode_frame, decode_reply_body, decode_request_body, encode_frame, encode_frame_checked,
    encode_reply_body, encode_request_body, frame_bytes, frame_split, tag, ErrorCode, ErrorFrame,
    Frame, Hello, HelloAck, Reader, ReplyBatch, RequestBatch, WireError, Writer, ANY_EPOCH, MAGIC,
    MAX_FRAME_LEN, WIRE_VERSION,
};

use crate::index::QuantifyMethod;
use crate::resilience::{QuantifyOutcome, UnnError};

fn encode_method(w: &mut Writer, method: &QuantifyMethod) {
    match method {
        QuantifyMethod::Spiral => w.u8(0),
        QuantifyMethod::MonteCarlo { achieved_epsilon } => {
            w.u8(1);
            w.f64(*achieved_epsilon);
        }
        QuantifyMethod::ExactSweep => w.u8(2),
        QuantifyMethod::NumericIntegration => w.u8(3),
    }
}

fn decode_method(r: &mut Reader<'_>) -> Result<QuantifyMethod, WireError> {
    Ok(match r.u8("quantify method tag")? {
        0 => QuantifyMethod::Spiral,
        1 => QuantifyMethod::MonteCarlo {
            achieved_epsilon: r.f64("method epsilon")?,
        },
        2 => QuantifyMethod::ExactSweep,
        3 => QuantifyMethod::NumericIntegration,
        t => {
            return Err(WireError::UnknownTag {
                what: "quantify method",
                tag: t,
            })
        }
    })
}

/// Encodes a [`QuantifyOutcome`] as a standalone value frame body
/// (tag [`tag::QUANTIFY_OUTCOME`], no length prefix).
pub fn encode_quantify_outcome(outcome: &QuantifyOutcome) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::QUANTIFY_OUTCOME);
    match outcome {
        QuantifyOutcome::Exact { pi, method, work } => {
            w.u8(0);
            w.sparse_f64(pi);
            encode_method(&mut w, method);
            w.u64(*work);
        }
        QuantifyOutcome::Degraded {
            pi,
            achieved_epsilon,
            rounds_used,
            work,
        } => {
            w.u8(1);
            w.sparse_f64(pi);
            w.f64(*achieved_epsilon);
            w.usize(*rounds_used);
            w.u64(*work);
        }
    }
    w.into_bytes()
}

/// Decodes a [`QuantifyOutcome`] value frame body. Total: malformed input
/// returns a typed [`WireError`].
pub fn decode_quantify_outcome(body: &[u8]) -> Result<QuantifyOutcome, WireError> {
    let mut r = Reader::new(body);
    let t = r.u8("frame tag")?;
    if t != tag::QUANTIFY_OUTCOME {
        return Err(WireError::UnknownTag {
            what: "quantify outcome frame",
            tag: t,
        });
    }
    let outcome = match r.u8("outcome variant")? {
        0 => QuantifyOutcome::Exact {
            pi: r.sparse_f64("outcome pi")?,
            method: decode_method(&mut r)?,
            work: r.u64("outcome work")?,
        },
        1 => QuantifyOutcome::Degraded {
            pi: r.sparse_f64("outcome pi")?,
            achieved_epsilon: r.f64("outcome epsilon")?,
            rounds_used: r.usize("outcome rounds_used")?,
            work: r.u64("outcome work")?,
        },
        t => {
            return Err(WireError::UnknownTag {
                what: "quantify outcome variant",
                tag: t,
            })
        }
    };
    r.expect_end()?;
    Ok(outcome)
}

/// Encodes an [`UnnError`] as a standalone value frame body
/// (tag [`tag::UNN_ERROR`], no length prefix). `index: None` travels as
/// `u64::MAX` (a vector index can never reach it).
pub fn encode_unn_error(err: &UnnError) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::UNN_ERROR);
    match err {
        UnnError::InvalidDistribution { index, reason } => {
            w.u8(0);
            w.u64(index.map_or(u64::MAX, |i| i as u64));
            w.str(reason);
        }
        UnnError::InvalidConfig { reason } => {
            w.u8(1);
            w.str(reason);
        }
        UnnError::DegenerateGeometry { reason } => {
            w.u8(2);
            w.str(reason);
        }
        UnnError::BudgetExhausted { budget, required } => {
            w.u8(3);
            w.u64(*budget);
            w.u64(*required);
        }
        UnnError::QueryPanicked { message } => {
            w.u8(4);
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Decodes an [`UnnError`] value frame body. Total: malformed input
/// returns a typed [`WireError`].
pub fn decode_unn_error(body: &[u8]) -> Result<UnnError, WireError> {
    let mut r = Reader::new(body);
    let t = r.u8("frame tag")?;
    if t != tag::UNN_ERROR {
        return Err(WireError::UnknownTag {
            what: "unn error frame",
            tag: t,
        });
    }
    let err = match r.u8("error variant")? {
        0 => {
            let raw = r.u64("error index")?;
            let index = if raw == u64::MAX {
                None
            } else {
                Some(usize::try_from(raw).map_err(|_| WireError::LengthOverflow {
                    what: "error index",
                    len: raw,
                    cap: usize::MAX as u64,
                })?)
            };
            UnnError::InvalidDistribution {
                index,
                reason: r.str("error reason")?,
            }
        }
        1 => UnnError::InvalidConfig {
            reason: r.str("error reason")?,
        },
        2 => UnnError::DegenerateGeometry {
            reason: r.str("error reason")?,
        },
        3 => UnnError::BudgetExhausted {
            budget: r.u64("error budget")?,
            required: r.u64("error required")?,
        },
        4 => UnnError::QueryPanicked {
            message: r.str("error message")?,
        },
        t => {
            return Err(WireError::UnknownTag {
                what: "unn error variant",
                tag: t,
            })
        }
    };
    r.expect_end()?;
    Ok(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantify_outcomes_round_trip() {
        let outcomes = vec![
            QuantifyOutcome::Exact {
                pi: vec![0.25, 0.75],
                method: QuantifyMethod::ExactSweep,
                work: 12,
            },
            QuantifyOutcome::Exact {
                pi: vec![1.0],
                method: QuantifyMethod::MonteCarlo {
                    achieved_epsilon: 0.031_25,
                },
                work: 64,
            },
            QuantifyOutcome::Degraded {
                pi: vec![0.5, 0.25, 0.25],
                achieved_epsilon: 0.125,
                rounds_used: 96,
                work: 96,
            },
        ];
        for o in outcomes {
            let body = encode_quantify_outcome(&o);
            let back = decode_quantify_outcome(&body).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(format!("{back:?}"), format!("{o:?}"));
        }
    }

    #[test]
    fn unn_errors_round_trip() {
        let errs = vec![
            UnnError::InvalidDistribution {
                index: Some(3),
                reason: "empty support".into(),
            },
            UnnError::InvalidDistribution {
                index: None,
                reason: "non-finite".into(),
            },
            UnnError::InvalidConfig {
                reason: "epsilon".into(),
            },
            UnnError::DegenerateGeometry {
                reason: "duplicate sites".into(),
            },
            UnnError::BudgetExhausted {
                budget: 10,
                required: 100,
            },
            UnnError::QueryPanicked {
                message: "boom".into(),
            },
        ];
        for e in errs {
            let body = encode_unn_error(&e);
            let back = decode_unn_error(&body).unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(back, e);
        }
    }

    #[test]
    fn facade_decoders_are_total() {
        let body = encode_quantify_outcome(&QuantifyOutcome::Degraded {
            pi: vec![0.5, 0.5],
            achieved_epsilon: 0.1,
            rounds_used: 32,
            work: 32,
        });
        for cut in 0..body.len() {
            assert!(decode_quantify_outcome(&body[..cut]).is_err());
        }
        let body = encode_unn_error(&UnnError::BudgetExhausted {
            budget: 1,
            required: 2,
        });
        for cut in 0..body.len() {
            assert!(decode_unn_error(&body[..cut]).is_err());
        }
        // Cross-decoding: each decoder rejects the other's tag.
        assert!(
            decode_unn_error(&encode_quantify_outcome(&QuantifyOutcome::Exact {
                pi: vec![],
                method: QuantifyMethod::Spiral,
                work: 0,
            }))
            .is_err()
        );
    }
}
