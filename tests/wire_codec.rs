//! Codec totality suite for `unn::wire`.
//!
//! Contracts under test, per DESIGN.md §10:
//!
//! * round trip: `decode(encode(x)) == x` for every frame type, including
//!   NaN and signed-zero `f64` payloads (bit-pattern transport);
//! * totality: the decoder never panics on arbitrary bytes, truncations at
//!   every boundary, or single-bit corruptions — every rejection is a
//!   typed `WireError`;
//! * framing: length-prefix splitting reassembles split/coalesced streams
//!   and rejects unrecoverable prefixes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use unn::geom::Point;
use unn::serve::{Outcome, Reply, Request, ShedReason};
use unn::wire::{
    decode_frame, encode_frame, frame_bytes, frame_split, ErrorCode, ErrorFrame, Frame, Hello,
    HelloAck, ReplyBatch, RequestBatch, ANY_EPOCH, WIRE_VERSION,
};

fn random_f64(rng: &mut SmallRng) -> f64 {
    // Cover the full bit space: normals, subnormals, infinities, NaNs,
    // signed zeros — the codec must carry every pattern exactly.
    f64::from_bits(rng.random_range(0..=u64::MAX))
}

fn random_point(rng: &mut SmallRng) -> Point {
    Point {
        x: random_f64(rng),
        y: random_f64(rng),
    }
}

fn random_request(rng: &mut SmallRng) -> Request {
    if rng.random_bool(0.5) {
        Request::NnNonzero(random_point(rng))
    } else {
        Request::Quantify(random_point(rng))
    }
}

fn random_vec_u64(rng: &mut SmallRng, max_len: usize) -> Vec<u64> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| rng.random_range(0..=u64::MAX)).collect()
}

fn random_f64s(rng: &mut SmallRng, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| random_f64(rng)).collect()
}

fn random_outcome(rng: &mut SmallRng) -> Outcome {
    match rng.random_range(0..5u32) {
        0 => Outcome::Nonzero {
            ids: random_vec_u64(rng, 8),
        },
        1 => Outcome::Exact {
            pi: random_f64s(rng, 8),
        },
        2 => Outcome::Adaptive {
            pi: random_f64s(rng, 8),
            achieved_epsilon: random_f64(rng),
            rounds_used: rng.random_range(0..1_000_000usize),
        },
        3 => Outcome::Capped {
            pi: random_f64s(rng, 8),
            achieved_epsilon: random_f64(rng),
            rounds_used: rng.random_range(0..1_000_000usize),
        },
        _ => Outcome::Shed {
            reason: match rng.random_range(0..4u32) {
                0 => ShedReason::CapacityExhausted,
                1 => ShedReason::InvalidQuery,
                2 => ShedReason::NoCoverage,
                _ => ShedReason::DeadlineExceeded,
            },
        },
    }
}

fn random_reply(rng: &mut SmallRng) -> Reply {
    Reply {
        outcome: random_outcome(rng),
        layout: random_vec_u64(rng, 8),
        failed_shards: (0..rng.random_range(0..4usize))
            .map(|_| rng.random_range(0..64usize))
            .collect(),
        covered: rng.random_range(0..1_000usize),
        total_live: rng.random_range(0..1_000usize),
        retries: rng.random_range(0..100u64),
        elapsed_nanos: rng.random_range(0..=u64::MAX),
        degraded: rng.random_bool(0.5),
    }
}

fn random_frame(rng: &mut SmallRng) -> Frame {
    match rng.random_range(0..5u32) {
        0 => Frame::Hello(Hello {
            version: WIRE_VERSION,
            expected_epoch: if rng.random_bool(0.3) {
                ANY_EPOCH
            } else {
                rng.random_range(0..1_000)
            },
        }),
        1 => Frame::HelloAck(HelloAck {
            version: rng.random_range(0..=u16::MAX),
            index_epoch: rng.random_range(0..=u64::MAX),
            total_live: rng.random_range(0..=u64::MAX),
            mc_rounds: rng.random_range(0..=u64::MAX),
        }),
        2 => Frame::RequestBatch(RequestBatch {
            budget_nanos: rng.random_range(0..=u64::MAX),
            requests: (0..rng.random_range(0..6usize))
                .map(|_| random_request(rng))
                .collect(),
        }),
        3 => Frame::ReplyBatch(ReplyBatch {
            replies: (0..rng.random_range(0..4usize))
                .map(|_| random_reply(rng))
                .collect(),
        }),
        _ => Frame::Error(ErrorFrame {
            code: match rng.random_range(0..4u32) {
                0 => ErrorCode::VersionMismatch,
                1 => ErrorCode::EpochMismatch,
                2 => ErrorCode::Malformed,
                _ => ErrorCode::Internal,
            },
            ours: rng.random_range(0..=u64::MAX),
            theirs: rng.random_range(0..=u64::MAX),
            detail: "protocol error: спутник λ=0.5 🚀"
                .chars()
                .take(rng.random_range(0..20))
                .collect(),
        }),
    }
}

/// Frames may hold NaN payloads, where `==` is false even for identical
/// values; compare re-encodings instead (bit-exact by construction).
fn assert_same_frame(a: &Frame, b: &Frame) {
    assert_eq!(encode_frame(a), encode_frame(b), "{a:?} != {b:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every session frame survives encode → decode bit-exactly, full
    /// `f64` bit space included.
    #[test]
    fn session_frames_round_trip(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frame = random_frame(&mut rng);
        let body = encode_frame(&frame);
        let back = decode_frame(&body);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
        if let Ok(back) = back {
            assert_same_frame(&frame, &back);
        }
        // And through the framing layer, split at a random boundary.
        let framed = frame_bytes(&body);
        let cut = rng.random_range(0..framed.len());
        prop_assert!(frame_split(&framed[..cut]).is_ok_and(|r| r.is_none()));
        let whole = frame_split(&framed);
        prop_assert!(whole.is_ok_and(|r| matches!(r, Some((b, used)) if b == &body[..] && used == framed.len())));
    }

    /// Truncating an encoded frame at *any* boundary yields a typed error,
    /// never a panic.
    #[test]
    fn truncation_at_every_boundary_is_rejected(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let body = encode_frame(&random_frame(&mut rng));
        for cut in 0..body.len() {
            prop_assert!(decode_frame(&body[..cut]).is_err(), "cut at {} decoded", cut);
        }
    }

    /// Arbitrary random bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..1_000_000_000, len in 0usize..256) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u32) as u8).collect();
        let _ = decode_frame(&bytes);
        let _ = frame_split(&bytes);
    }

    /// A single flipped bit is either detected (typed error) or decodes to
    /// some other well-formed frame — never a panic, never trailing bytes.
    #[test]
    fn bit_flips_never_panic(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let body = encode_frame(&random_frame(&mut rng));
        let bit = rng.random_range(0..body.len() * 8);
        let mut corrupt = body.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        if let Ok(frame) = decode_frame(&corrupt) {
            // Corruption can land in a payload byte and still decode; the
            // re-encoding must then reproduce the corrupt body exactly.
            prop_assert_eq!(encode_frame(&frame), corrupt);
        }
    }
}

#[test]
fn hostile_length_prefixes_are_rejected_without_allocation() {
    // A 4 GiB frame claim must be rejected from the 4-byte prefix alone.
    let huge = u32::MAX.to_le_bytes();
    assert!(frame_split(&huge).is_err());
    // A zero-length frame is equally unrecoverable.
    assert!(frame_split(&[0, 0, 0, 0]).is_err());
    // An in-bounds claim with missing bytes just waits for more.
    let mut partial = 100u32.to_le_bytes().to_vec();
    partial.push(7);
    assert!(matches!(frame_split(&partial), Ok(None)));
}

#[test]
fn version_is_checked_before_anything_else() {
    // A Hello from a hypothetical v2 peer still *decodes* (the handshake
    // layer rejects it); only the magic is enforced by the codec.
    let body = encode_frame(&Frame::Hello(Hello {
        version: WIRE_VERSION + 1,
        expected_epoch: ANY_EPOCH,
    }));
    assert!(decode_frame(&body).is_ok());
    // But corrupting the magic is a codec-level rejection.
    let mut bad_magic = body;
    bad_magic[1] ^= 0xff;
    assert!(decode_frame(&bad_magic).is_err());
}
