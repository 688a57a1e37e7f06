//! Answer oracles.
//!
//! Every reply is compared with what the library computes directly from
//! the snapshot that served it: `ShardSetSnapshot::nn_nonzero` for NN≠0,
//! `ExactView::quantify` for exact answers, `quantify_adaptive` for adaptive
//! ones. The expected reply takes the tier of the reply it checks, so a
//! ladder that picks another tier still passes as long as that tier's
//! answer is right. Comparison is bitwise over every field except the
//! wall-clock `elapsed_nanos`.
//!
//! Sampled batches on the static workloads are fingerprinted as they
//! arrive and checked after the window; the fingerprint is a 64-bit hash
//! of every compared field, so a mismatch in any bit shows.

use unn_dynamic::PointId;
use unn_quantify::{adaptive_over_winners, AdaptiveQuantify};
use unn_serve::{Outcome, Reply, Request, ShardSetSnapshot};

use crate::workload::Spec;

/// The tier a reply was answered at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// NN≠0.
    Nonzero,
    /// Exact sweep.
    Exact,
    /// Adaptive Monte-Carlo.
    Adaptive,
    /// Round-capped Monte-Carlo.
    Capped,
    /// Not answered.
    Shed,
}

impl Tier {
    /// The tier of `r`.
    pub fn of(r: &Reply) -> Tier {
        match r.outcome {
            Outcome::Nonzero { .. } => Tier::Nonzero,
            Outcome::Exact { .. } => Tier::Exact,
            Outcome::Adaptive { .. } => Tier::Adaptive,
            Outcome::Capped { .. } => Tier::Capped,
            Outcome::Shed { .. } => Tier::Shed,
        }
    }
}

/// A sampled batch: where it came from and each reply's tier and
/// fingerprint.
pub struct Sampled {
    stream: u64,
    idx: u64,
    replies: Vec<(Tier, u64)>,
}

impl Sampled {
    /// Fingerprints the replies to batch `idx` of `stream`.
    pub fn of(stream: u64, idx: u64, replies: &[Reply]) -> Sampled {
        Sampled {
            stream,
            idx,
            replies: fingerprints(replies),
        }
    }

    /// Checks the sample against `snap`, regenerating its requests from
    /// the seed.
    pub fn check(&self, spec: &Spec, seed: u64, snap: &ShardSetSnapshot) -> Result<(), String> {
        let reqs = spec.batch(seed, self.stream, self.idx);
        compare(spec, snap, &reqs, &self.replies)
            .map_err(|e| format!("stream {} batch {}: {e}", self.stream, self.idx))
    }
}

/// Checks replies that have just arrived against `snap`.
pub fn check(
    spec: &Spec,
    snap: &ShardSetSnapshot,
    reqs: &[Request],
    replies: &[Reply],
) -> Result<(), String> {
    compare(spec, snap, reqs, &fingerprints(replies))
}

fn fingerprints(replies: &[Reply]) -> Vec<(Tier, u64)> {
    replies
        .iter()
        .map(|r| (Tier::of(r), fingerprint(r)))
        .collect()
}

fn compare(
    spec: &Spec,
    snap: &ShardSetSnapshot,
    reqs: &[Request],
    got: &[(Tier, u64)],
) -> Result<(), String> {
    if reqs.len() != got.len() {
        return Err(format!("{} replies for {} requests", got.len(), reqs.len()));
    }
    for (i, (req, &(tier, fp))) in reqs.iter().zip(got).enumerate() {
        if fingerprint(&expected(spec, snap, req, tier)) != fp {
            return Err(format!(
                "request {i}: the {tier:?} reply differs from the oracle"
            ));
        }
    }
    Ok(())
}

/// The reply the serving stack must give for `req` on `snap` at `tier`. A
/// shed request is expected to have been answered at the top tier.
fn expected(spec: &Spec, snap: &ShardSetSnapshot, req: &Request, tier: Tier) -> Reply {
    let total = snap.len();
    let mut reply = Reply {
        outcome: Outcome::Nonzero { ids: Vec::new() },
        layout: Vec::new(),
        failed_shards: Vec::new(),
        covered: total,
        total_live: total,
        retries: 0,
        elapsed_nanos: 0,
        degraded: false,
    };
    let q = match *req {
        Request::NnNonzero(q) => {
            reply.outcome = Outcome::Nonzero {
                ids: snap.nn_nonzero(q),
            };
            return reply;
        }
        Request::Quantify(q) => q,
    };
    let tier = match tier {
        Tier::Shed | Tier::Nonzero if spec.exact_view => Tier::Exact,
        Tier::Shed | Tier::Nonzero => Tier::Adaptive,
        t => t,
    };
    // Below the top tier an answer is flagged degraded.
    reply.degraded = tier != Tier::Exact && spec.exact_view || tier == Tier::Capped;
    reply.layout = snap.live_ids().to_vec();
    reply.outcome = match tier {
        Tier::Exact => {
            let view = snap.exact_view();
            reply.layout = view.ids().to_vec();
            Outcome::Exact {
                pi: view.quantify(q),
            }
        }
        Tier::Capped => {
            let cap = spec.dispatch_config().admission.capped_rounds.min(spec.s);
            let a = fold(&[snap.round_winners(q)], snap.live_ids(), spec, cap);
            Outcome::Capped {
                pi: a.pi,
                achieved_epsilon: a.half_width,
                rounds_used: a.rounds_used,
            }
        }
        _ => {
            let a = snap.quantify_adaptive(q);
            Outcome::Adaptive {
                pi: a.pi,
                achieved_epsilon: a.half_width,
                rounds_used: a.rounds_used,
            }
        }
    };
    reply
}

/// The dispatcher's Monte-Carlo fold: per-shard round winners merged by
/// `(distance, id)` minimum, ranked in `layout`, and stopped adaptively
/// within `cap` rounds at the workload's ε/δ.
pub fn fold(
    per_shard: &[Vec<(f64, PointId)>],
    layout: &[PointId],
    spec: &Spec,
    cap: usize,
) -> AdaptiveQuantify {
    let mut acc: Vec<(f64, PointId)> = Vec::new();
    for w in per_shard.iter().filter(|w| !w.is_empty()) {
        if acc.is_empty() {
            acc.extend_from_slice(w);
            continue;
        }
        for (e, &(d, id)) in acc.iter_mut().zip(w) {
            if d < e.0 || (d == e.0 && id < e.1) {
                *e = (d, id);
            }
        }
    }
    let ranks: Vec<u32> = acc
        .iter()
        .map(|(_, id)| {
            let r = layout
                .binary_search(id)
                .expect("every round winner is a live id");
            u32::try_from(r).expect("layout fits u32 ranks")
        })
        .collect();
    let cfg = spec.dispatch_config();
    adaptive_over_winners(
        &ranks,
        layout.len(),
        cfg.epsilon,
        cfg.delta,
        cfg.adaptive_min_rounds,
        cap,
    )
}

/// A 64-bit hash of every field a reply is compared on (all but
/// `elapsed_nanos`), floats by bit pattern.
pub fn fingerprint(r: &Reply) -> u64 {
    let mut h = Hash(0x6a09_e667_f3bc_c908);
    match &r.outcome {
        Outcome::Nonzero { ids } => {
            h.word(1);
            h.words(ids);
        }
        Outcome::Exact { pi } => {
            h.word(2);
            h.floats(pi);
        }
        Outcome::Adaptive {
            pi,
            achieved_epsilon,
            rounds_used,
        } => {
            h.word(3);
            h.floats(pi);
            h.word(achieved_epsilon.to_bits());
            h.word(*rounds_used as u64);
        }
        Outcome::Capped {
            pi,
            achieved_epsilon,
            rounds_used,
        } => {
            h.word(4);
            h.floats(pi);
            h.word(achieved_epsilon.to_bits());
            h.word(*rounds_used as u64);
        }
        Outcome::Shed { reason } => {
            h.word(5);
            h.word(*reason as u64);
        }
    }
    h.words(&r.layout);
    let failed: Vec<u64> = r.failed_shards.iter().map(|&k| k as u64).collect();
    h.words(&failed);
    h.word(r.covered as u64);
    h.word(r.total_live as u64);
    h.word(r.retries);
    h.word(u64::from(r.degraded));
    h.0
}

struct Hash(u64);

impl Hash {
    fn word(&mut self, w: u64) {
        self.0 = crate::workload::mix(self.0 ^ w);
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn floats(&mut self, fs: &[f64]) {
        self.word(fs.len() as u64);
        for f in fs {
            self.word(f.to_bits());
        }
    }
}
