//! The sparse π and run-length layout encodings of reply frames.
//!
//! * Canonical decoding: each way a body can differ from what the writer
//!   produces (slots out of order or out of range, a stored `+0.0`, a
//!   zero-length run, a run that continues the previous one, a run whose
//!   last id overflows `u64`) is rejected as `InvalidValue`, so a body that
//!   decodes re-encodes to the same bytes.
//! * Bounded decoding: lengths are debited from the frame's expansion
//!   budget (`MAX_FRAME_LEN / 8` elements) before anything is allocated.
//! * Realistic replies (sorted layouts with holes, π with a few nonzeros
//!   including `−0.0`, NaN and subnormals) round-trip bit for bit and
//!   reject every truncation; bit flips never panic.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn_serve::{Outcome, Reply};
use unn_wire::{
    decode_frame, encode_frame, encode_frame_checked, tag, Frame, ReplyBatch, WireError, Writer,
    MAX_FRAME_LEN,
};

const BUDGET: usize = MAX_FRAME_LEN / 8;

/// A reply batch body of `n` Adaptive replies whose π and layout fields
/// are written by `pi` and `layout`; every other field is well formed.
fn batch_body(n: u32, pi: impl Fn(&mut Writer), layout: impl Fn(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::REPLY_BATCH);
    w.u32(n);
    for _ in 0..n {
        w.u8(2); // Outcome::Adaptive
        pi(&mut w);
        w.f64(0.125); // achieved_epsilon
        w.usize(64); // rounds_used
        layout(&mut w);
        w.u32(0); // failed_shards
        w.usize(4); // covered
        w.usize(4); // total_live
        w.u64(0); // retries
        w.u64(0); // elapsed_nanos
        w.bool(true); // degraded
    }
    w.into_bytes()
}

/// A sparse π: `len`, then the `(slot, bits)` entries as given.
fn pi_entries(len: u32, entries: &'static [(u32, u64)]) -> impl Fn(&mut Writer) {
    move |w| {
        w.u32(len);
        w.u32(entries.len() as u32);
        for &(slot, bits) in entries {
            w.u32(slot);
            w.u64(bits);
        }
    }
}

/// A layout of the `(start, len)` runs as given.
fn layout_runs(runs: &'static [(u64, u32)]) -> impl Fn(&mut Writer) {
    move |w| {
        w.u32(runs.len() as u32);
        for &(start, len) in runs {
            w.u64(start);
            w.u32(len);
        }
    }
}

const HALF: u64 = 0x3FE0_0000_0000_0000; // 0.5
const NEG_ZERO: u64 = 1 << 63; // −0.0

fn rejected_as_invalid(body: &[u8], field: &str) {
    match decode_frame(body) {
        Err(WireError::InvalidValue { what }) => assert_eq!(what, field),
        other => panic!("expected InvalidValue for {field}, got {other:?}"),
    }
}

fn decodes(body: &[u8]) {
    match decode_frame(body) {
        Ok(frame) => assert_eq!(encode_frame(&frame), body),
        Err(e) => panic!("well-formed body rejected: {e}"),
    }
}

#[test]
fn non_canonical_pi_is_rejected() {
    let layout = layout_runs(&[(0, 4)]);
    // Slots must strictly increase.
    rejected_as_invalid(
        &batch_body(1, pi_entries(4, &[(2, HALF), (1, HALF)]), &layout),
        "adaptive pi",
    );
    rejected_as_invalid(
        &batch_body(1, pi_entries(4, &[(1, HALF), (1, HALF)]), &layout),
        "adaptive pi",
    );
    // Slots must fall below the length.
    rejected_as_invalid(
        &batch_body(1, pi_entries(4, &[(4, HALF)]), &layout),
        "adaptive pi",
    );
    // +0.0 is the implicit value; storing it is not canonical.
    rejected_as_invalid(
        &batch_body(1, pi_entries(4, &[(0, HALF), (3, 0)]), &layout),
        "adaptive pi",
    );
    // The canonical neighbours of each decode: −0.0 is stored, the last
    // slot is in range.
    decodes(&batch_body(
        1,
        pi_entries(4, &[(1, HALF), (3, NEG_ZERO)]),
        &layout,
    ));
}

#[test]
fn non_canonical_layout_runs_are_rejected() {
    let pi = pi_entries(0, &[]);
    rejected_as_invalid(&batch_body(1, &pi, layout_runs(&[(5, 0)])), "reply layout");
    // (5, 2) then (7, 1) is the single run (5, 3).
    rejected_as_invalid(
        &batch_body(1, &pi, layout_runs(&[(5, 2), (7, 1)])),
        "reply layout",
    );
    rejected_as_invalid(
        &batch_body(1, &pi, layout_runs(&[(u64::MAX, 2)])),
        "reply layout",
    );
    // Their canonical neighbours decode: a hole between runs, a run that
    // ends on u64::MAX, a run that goes back down.
    decodes(&batch_body(1, &pi, layout_runs(&[(5, 2), (8, 1)])));
    decodes(&batch_body(
        1,
        &pi,
        layout_runs(&[(u64::MAX - 1, 2), (0, 1)]),
    ));
    decodes(&batch_body(1, &pi, layout_runs(&[(9, 1), (3, 2)])));
}

#[test]
fn hostile_lengths_overflow_before_allocating() {
    // Each reply claims a π of u32::MAX slots with no entries: 10 bytes of
    // claim for a 32 GiB vector.
    let body = batch_body(8, pi_entries(u32::MAX, &[]), layout_runs(&[]));
    match decode_frame(&body) {
        Err(WireError::LengthOverflow { what, len, cap }) => {
            assert_eq!(
                (what, len, cap),
                ("adaptive pi", u64::from(u32::MAX), BUDGET as u64)
            );
        }
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
    // Each reply claims a run of u32::MAX ids.
    let body = batch_body(8, pi_entries(0, &[]), layout_runs(&[(0, u32::MAX)]));
    match decode_frame(&body) {
        Err(WireError::LengthOverflow { what, len, cap }) => {
            assert_eq!(
                (what, len, cap),
                ("reply layout", u64::from(u32::MAX), BUDGET as u64)
            );
        }
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
    // The budget is per frame, not per vector: two replies of half the
    // budget fit; with one layout id in the first, the second π does not.
    let half = (BUDGET / 2) as u32;
    let body = batch_body(2, pi_entries(half, &[]), layout_runs(&[]));
    assert!(decode_frame(&body).is_ok());
    let body = batch_body(2, pi_entries(half, &[]), layout_runs(&[(0, 1)]));
    match decode_frame(&body) {
        Err(WireError::LengthOverflow { what, len, cap }) => {
            let half = u64::from(half);
            assert_eq!((what, len, cap), ("adaptive pi", half, half - 1));
        }
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
}

fn adaptive(pi: Vec<f64>, layout: Vec<u64>) -> Reply {
    Reply {
        outcome: Outcome::Adaptive {
            pi,
            achieved_epsilon: 0.2,
            rounds_used: 192,
        },
        covered: layout.len(),
        total_live: layout.len(),
        layout,
        failed_shards: Vec::new(),
        retries: 0,
        elapsed_nanos: 0,
        degraded: false,
    }
}

#[test]
fn checked_encoding_applies_the_decoders_limits() {
    // A batch expanding to exactly the budget is what a v1 frame at the
    // cap could carry: it encodes and decodes.
    let at_cap = Frame::ReplyBatch(ReplyBatch {
        replies: vec![adaptive(vec![0.0; BUDGET - 1], vec![7])],
    });
    let body = encode_frame_checked(&at_cap).unwrap_or_else(|e| panic!("{e}"));
    assert!(decode_frame(&body).is_ok_and(|f| encode_frame(&f) == body));
    // One element more is refused before encoding.
    let over = Frame::ReplyBatch(ReplyBatch {
        replies: vec![adaptive(vec![0.0; BUDGET - 1], vec![7, 9])],
    });
    assert_eq!(
        encode_frame_checked(&over).err(),
        Some(WireError::LengthOverflow {
            what: "reply batch expansion",
            len: BUDGET as u64 + 1,
            cap: BUDGET as u64,
        })
    );
    // Within the budget but beyond the body cap: every other id of a
    // layout costs a 12-byte run.
    let holes: Vec<u64> = (0..(MAX_FRAME_LEN / 12 + 1) as u64)
        .map(|i| 2 * i)
        .collect();
    let wide = Frame::ReplyBatch(ReplyBatch {
        replies: vec![adaptive(Vec::new(), holes)],
    });
    assert!(matches!(
        encode_frame_checked(&wide),
        Err(WireError::LengthOverflow {
            what: "frame body",
            ..
        })
    ));
}

#[test]
fn a_monte_carlo_reply_is_a_few_hundred_bytes() {
    // A 4096-point static layout is one run; 14 winners are 14 entries.
    let mut pi = vec![0.0; 4096];
    for k in 0..14 {
        pi[k * 97] = (k + 1) as f64 / 105.0;
    }
    let frame = Frame::ReplyBatch(ReplyBatch {
        replies: vec![adaptive(pi, (0..4096).collect())],
    });
    let body = encode_frame(&frame);
    assert!(body.len() <= 256, "{} bytes", body.len());
}

/// A reply as the dispatcher builds it: a sorted layout drawn from
/// `[0, universe)` with random holes, and a π over it with at most
/// `max_nonzero` entries that are not `+0.0`, drawn from awkward bit
/// patterns.
fn realistic_reply(rng: &mut SmallRng, universe: u64, max_nonzero: usize) -> Reply {
    let hole = rng.random_range(0.0..0.5);
    let layout: Vec<u64> = (0..universe).filter(|_| !rng.random_bool(hole)).collect();
    let mut pi = vec![0.0; layout.len()];
    if !pi.is_empty() {
        for _ in 0..rng.random_range(0..=max_nonzero) {
            let slot = rng.random_range(0..pi.len());
            pi[slot] = match rng.random_range(0..6u32) {
                0 => -0.0,
                1 => f64::from_bits(0x7FF8_0000_0000_0000 | rng.random_range(0..1u64 << 51)),
                2 => f64::from_bits(rng.random_range(1..1u64 << 52)), // subnormal
                3 => f64::from_bits(rng.random_range(0..=u64::MAX)),
                _ => f64::from(rng.random_range(1..=192u32)) / 192.0,
            };
        }
    }
    let rounds_used = rng.random_range(1..=192usize);
    let outcome = match rng.random_range(0..3u32) {
        0 => Outcome::Exact { pi },
        1 => Outcome::Adaptive {
            pi,
            achieved_epsilon: 0.2,
            rounds_used,
        },
        _ => Outcome::Capped {
            pi,
            achieved_epsilon: 0.4,
            rounds_used,
        },
    };
    Reply {
        outcome,
        covered: layout.len(),
        total_live: universe as usize,
        layout,
        failed_shards: Vec::new(),
        retries: 0,
        elapsed_nanos: rng.random_range(0..1_000_000u64),
        degraded: rng.random_bool(0.5),
    }
}

fn pi_bits(reply: &Reply) -> Vec<u64> {
    match &reply.outcome {
        Outcome::Exact { pi } | Outcome::Adaptive { pi, .. } | Outcome::Capped { pi, .. } => {
            pi.iter().map(|p| p.to_bits()).collect()
        }
        Outcome::Nonzero { .. } | Outcome::Shed { .. } => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn realistic_replies_round_trip_and_stay_canonical(
        seed in 0u64..1_000_000_000,
        universe in 0u64..600,
        max_nonzero in 0usize..16,
        replies in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let replies: Vec<Reply> =
            (0..replies).map(|_| realistic_reply(&mut rng, universe, max_nonzero)).collect();
        let frame = Frame::ReplyBatch(ReplyBatch { replies: replies.clone() });
        let body = encode_frame(&frame);
        prop_assert!(encode_frame_checked(&frame).is_ok_and(|b| b == body));
        // Round trip: the same π bits and the same layout.
        match decode_frame(&body) {
            Ok(Frame::ReplyBatch(back)) => {
                prop_assert_eq!(back.replies.len(), replies.len());
                for (got, want) in back.replies.iter().zip(&replies) {
                    prop_assert_eq!(&got.layout, &want.layout);
                    prop_assert_eq!(pi_bits(got), pi_bits(want));
                }
                prop_assert_eq!(encode_frame(&Frame::ReplyBatch(back)), body.clone());
            }
            other => prop_assert!(false, "decoded to {:?}", other),
        }
        // Every truncation is a typed error.
        for cut in 0..body.len() {
            prop_assert!(decode_frame(&body[..cut]).is_err(), "cut at {} decoded", cut);
        }
        // A flipped bit is rejected or decodes to a frame that re-encodes
        // to the flipped body.
        for _ in 0..64 {
            let bit = rng.random_range(0..body.len() * 8);
            let mut corrupt = body.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            if let Ok(frame) = decode_frame(&corrupt) {
                prop_assert_eq!(encode_frame(&frame), corrupt);
            }
        }
    }
}
