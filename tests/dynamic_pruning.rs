//! Shared-bound pruning oracle: the pruned dynamic read path must be
//! **bit-identical** to flat-scan references for every churn history and
//! every compaction policy.
//!
//! Three layers of equivalence are checked:
//!
//! 1. pruned `nn_nonzero` / `quantify` vs. `unn_testkit::brute`'s flat
//!    Lemma 2.1 scan and per-round `(distance, id)` argmin over the live
//!    set — same floats, same comparisons, no blocks and no pruning;
//! 2. pruned `nn_nonzero` vs. a *fresh static* index on the surviving live
//!    set — Lemma 2.1 composes bit-for-bit across any block layout;
//! 3. pruned `quantify` vs. a *fresh dynamic rebuild* of the same
//!    `(id, point)` set — Monte-Carlo streams are id-keyed, so any block
//!    history must reproduce the estimate bit-for-bit.
//!
//! Adversarial geometry (all-overlapping supports where the cap never
//! prunes; one giant block plus a singleton) and batch runs at 1/2/8
//! threads ride along.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::batch::BatchOptions;
use unn::dynamic::{CompactionPolicy, DynamicPnnConfig, DynamicPnnIndex, PointId};
use unn::geom::Point;
use unn::{PnnConfig, PnnIndex, Uncertain};
use unn_testkit::brute;

const POLICIES: [CompactionPolicy; 3] = [
    CompactionPolicy::Logarithmic,
    CompactionPolicy::Tiered { max_blocks: 3 },
    CompactionPolicy::MergeToOne,
];

fn dynamic_config(policy: CompactionPolicy) -> DynamicPnnConfig {
    DynamicPnnConfig {
        base: PnnConfig {
            epsilon: 0.05,
            delta: 0.01,
            ..PnnConfig::default()
        },
        mc_rounds: 256,
        policy,
        ..DynamicPnnConfig::default()
    }
}

fn static_config() -> PnnConfig {
    PnnConfig {
        epsilon: 0.05,
        delta: 0.01,
        max_mc_rounds: 1024,
        ..PnnConfig::default()
    }
}

fn random_disk(rng: &mut SmallRng) -> Uncertain {
    Uncertain::uniform_disk(
        Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)),
        rng.random_range(0.3..2.5),
    )
}

fn queries(m: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..m)
        .map(|_| Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0)))
        .collect()
}

/// Applies one churn history under `policy`; returns the index plus the
/// surviving `(id, point)` mirror.
fn churn(
    policy: CompactionPolicy,
    initial: usize,
    ops: &[(bool, u64)],
    seed: u64,
) -> (DynamicPnnIndex, BTreeMap<PointId, Uncertain>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut index = DynamicPnnIndex::with_config(dynamic_config(policy))
        .unwrap_or_else(|e| panic!("config rejected: {e}"));
    let mut mirror = BTreeMap::new();
    let boot: Vec<Uncertain> = (0..initial).map(|_| random_disk(&mut rng)).collect();
    for (id, p) in index.bulk_insert(boot.clone()).into_iter().zip(boot) {
        mirror.insert(id, p);
    }
    for &(is_insert, raw) in ops {
        if is_insert {
            let p = random_disk(&mut rng);
            let id = index.insert(p.clone());
            mirror.insert(id, p);
        } else if !mirror.is_empty() {
            let keys: Vec<PointId> = mirror.keys().copied().collect();
            let victim = keys[(raw as usize) % keys.len()];
            assert!(index.remove(victim), "mirror says {victim} is live");
            mirror.remove(&victim);
        }
    }
    (index, mirror)
}

/// The full three-way equivalence check on one snapshot.
fn assert_pruning_equivalence(
    index: &DynamicPnnIndex,
    mirror: &BTreeMap<PointId, Uncertain>,
    qs: &[Point],
    tag: &str,
) {
    let snap = index.snapshot();
    let live_ids: Vec<PointId> = mirror.keys().copied().collect();
    assert_eq!(snap.live_ids(), &live_ids[..], "{tag}: live set diverged");

    // (3)'s reference: same (id, point) set rebuilt as one block.
    let mut rebuilt = DynamicPnnIndex::with_config(index.config().clone())
        .unwrap_or_else(|e| panic!("{tag}: rebuild config: {e}"));
    for (&id, p) in mirror {
        rebuilt
            .insert_with_id(id, p.clone())
            .unwrap_or_else(|e| panic!("{tag}: rebuild id {id}: {e}"));
    }
    let resnap = rebuilt.snapshot();
    let static_index = PnnIndex::build(mirror.values().cloned().collect(), static_config());
    let live: Vec<(PointId, Uncertain)> = mirror.iter().map(|(&id, p)| (id, p.clone())).collect();
    let (seed, s) = (index.config().base.seed, snap.mc_rounds());

    for &q in qs {
        let pruned = snap.nn_nonzero(q);
        assert_eq!(
            pruned,
            brute::nn_nonzero(&live, q),
            "{tag}: pruned vs flat-scan NN!=0 diverged at {q:?}"
        );
        let static_ids: Vec<PointId> = static_index
            .nn_nonzero(q)
            .into_iter()
            .map(|i| live_ids[i])
            .collect();
        assert_eq!(
            pruned, static_ids,
            "{tag}: dynamic vs fresh static NN!=0 diverged at {q:?}"
        );

        let (pi, _) = snap.quantify(q);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&pi),
            bits(&brute::quantify(&live, seed, s, q)),
            "{tag}: pruned vs flat-scan quantify diverged at {q:?}"
        );
        assert_eq!(
            pi,
            resnap.quantify(q).0,
            "{tag}: quantify not invariant to block history at {q:?}"
        );
        if !pi.is_empty() {
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{tag}: pi sums to {sum}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn histories, replayed under every compaction policy.
    #[test]
    fn pruned_reads_are_bit_identical_under_churn(
        initial in 3usize..12,
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..1_000_000), 0..20),
        seed in 0u64..10_000,
    ) {
        for policy in POLICIES {
            let (index, mirror) = churn(policy, initial, &ops, seed);
            prop_assert_eq!(index.len(), mirror.len());
            assert_pruning_equivalence(
                &index,
                &mirror,
                &queries(5, seed ^ 0xBEEF),
                &format!("{policy:?}"),
            );
        }
    }
}

/// Adversarial case 1: every support overlaps every other, so the shared
/// cap never rules a block out — the pruned path must degrade gracefully
/// to the full fold and still agree everywhere.
#[test]
fn all_overlapping_supports_never_prune_but_stay_identical() {
    let mut rng = SmallRng::seed_from_u64(4242);
    for policy in POLICIES {
        let mut index = DynamicPnnIndex::with_config(dynamic_config(policy))
            .unwrap_or_else(|e| panic!("config: {e}"));
        let mut mirror = BTreeMap::new();
        // Big concentric-ish disks: every pair of supports intersects, and
        // every query inside the cluster is inside every support.
        for _ in 0..14 {
            let p = Uncertain::uniform_disk(
                Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
                rng.random_range(8.0..12.0),
            );
            let id = index.insert(p.clone());
            mirror.insert(id, p);
        }
        for victim in [3u64, 9] {
            assert!(index.remove(victim));
            mirror.remove(&victim);
        }
        let qs: Vec<Point> = (0..6)
            .map(|_| Point::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)))
            .collect();
        // Inside the overlap region everyone has nonzero probability: the
        // answer itself must be the full live set.
        let snap = index.snapshot();
        let all: Vec<PointId> = mirror.keys().copied().collect();
        assert_eq!(snap.nn_nonzero(qs[0]), all, "{policy:?}: overlap answer");
        assert_pruning_equivalence(&index, &mirror, &qs, &format!("overlap/{policy:?}"));
    }
}

/// Adversarial case 2: one giant block plus a lone singleton — the layout
/// where a stale shared bound from the big block could starve or over-prune
/// the small one (and vice versa when the singleton is closest).
#[test]
fn giant_block_plus_singleton_layouts() {
    let mut rng = SmallRng::seed_from_u64(777);
    for policy in POLICIES {
        let mut index = DynamicPnnIndex::with_config(dynamic_config(policy))
            .unwrap_or_else(|e| panic!("config: {e}"));
        let mut mirror = BTreeMap::new();
        let boot: Vec<Uncertain> = (0..32).map(|_| random_disk(&mut rng)).collect();
        for (id, p) in index.bulk_insert(boot.clone()).into_iter().zip(boot) {
            mirror.insert(id, p);
        }
        // The singleton sits far outside the corpus: nearest by a mile for
        // queries near it, irrelevant for queries inside the corpus.
        let lone = Uncertain::uniform_disk(Point::new(400.0, 400.0), 0.5);
        let lone_id = index.insert(lone.clone());
        mirror.insert(lone_id, lone);

        let mut qs = queries(4, 778);
        qs.push(Point::new(399.0, 401.0)); // singleton dominates
        qs.push(Point::new(180.0, 180.0)); // in between: bounds are loose
        let snap = index.snapshot();
        assert_eq!(
            snap.nn_nonzero(Point::new(399.0, 401.0)),
            vec![lone_id],
            "{policy:?}: singleton must own its neighborhood"
        );
        assert_pruning_equivalence(&index, &mirror, &qs, &format!("giant+1/{policy:?}"));
    }
}

/// Batch runs of the pruned path must be bit-identical across 1/2/8
/// threads (and to the sequential loop).
#[test]
fn pruned_batches_deterministic_across_thread_counts() {
    for policy in POLICIES {
        let ops: Vec<(bool, u64)> = (0u64..18)
            .map(|i| (i % 3 != 2, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        let (index, _) = churn(policy, 9, &ops, 55);
        let snap = index.snapshot();
        let qs = queries(24, 56);
        let seq_nn: Vec<Vec<PointId>> = qs.iter().map(|&q| snap.nn_nonzero(q)).collect();
        let seq_pi: Vec<Vec<f64>> = qs.iter().map(|&q| snap.quantify(q).0).collect();
        for t in [1usize, 2, 8] {
            let opts = BatchOptions::with_threads(t);
            assert_eq!(
                opts.map(&qs, |q| snap.nn_nonzero(q)),
                seq_nn,
                "{policy:?}: nn_nonzero batch diverged at {t} threads"
            );
            assert_eq!(
                opts.map(&qs, |q| snap.quantify(q).0),
                seq_pi,
                "{policy:?}: quantify batch diverged at {t} threads"
            );
        }
    }
}
