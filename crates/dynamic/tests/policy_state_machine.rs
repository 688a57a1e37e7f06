//! Compaction-policy state machine: drive random insert/remove histories
//! through the raw engine and assert each policy's structural invariants
//! after **every** operation — not just at the end.
//!
//! * `Logarithmic`: post-insert, no two blocks share a size class; for
//!   insert-only histories that pins the block count to
//!   `popcount(n)` exactly (tombstones let stale classes linger until a
//!   later merge sweeps them, so the class-distinctness form is the honest
//!   invariant under churn).
//! * `Tiered { max_blocks }`: never more than `max_blocks` blocks after a
//!   mutation settles.
//! * `MergeToOne`: exactly one block after any insert, at most one ever.
//! * All policies: the dead fraction never exceeds `max_dead_fraction`
//!   after a mutation, and the compaction counter increments exactly when a
//!   removal pushes the fraction over the threshold.
//! * Hot promotion: with `hot_promote_ratio = Some(r)`, a mutation that
//!   arrives after ≥ `r` reads per update collapses the engine to one
//!   block and bumps `promotions`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn_distr::Uncertain;
use unn_dynamic::{CompactionPolicy, DynamicEngine, EngineConfig, PointId};
use unn_geom::Point;

const MAX_DEAD: f64 = 0.25;

fn engine(policy: CompactionPolicy, ratio: Option<f64>) -> DynamicEngine {
    DynamicEngine::new(EngineConfig {
        seed: 11,
        mc_rounds: 8,
        max_dead_fraction: MAX_DEAD,
        policy,
        hot_promote_ratio: ratio,
    })
}

fn disk(rng: &mut SmallRng) -> Uncertain {
    Uncertain::uniform_disk(
        Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)),
        rng.random_range(0.3..2.0),
    )
}

/// Size classes (`ilog2` of block length) must be pairwise distinct right
/// after a Logarithmic insert settles.
fn assert_distinct_classes(e: &DynamicEngine) {
    let sizes = e.block_sizes();
    let mut classes: Vec<u32> = sizes.iter().map(|s| s.ilog2()).collect();
    classes.sort_unstable();
    let before = classes.len();
    classes.dedup();
    assert_eq!(
        before,
        classes.len(),
        "two blocks share a size class: {sizes:?}"
    );
}

fn dead_fraction_ok(e: &DynamicEngine) {
    let s = e.stats();
    let total = s.live + s.tombstones;
    assert!(
        s.tombstones == 0 || s.tombstones as f64 <= MAX_DEAD * total as f64,
        "dead fraction exceeded threshold: {} dead of {total}",
        s.tombstones
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn policies_hold_their_structural_invariants(
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..1_000_000), 1..60),
        seed in 0u64..10_000,
    ) {
        for policy in [
            CompactionPolicy::Logarithmic,
            CompactionPolicy::Tiered { max_blocks: 2 },
            CompactionPolicy::Tiered { max_blocks: 4 },
            CompactionPolicy::MergeToOne,
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut e = engine(policy, None);
            let mut live: Vec<PointId> = Vec::new();
            let mut inserts_only = true;
            for &(is_insert, raw) in &ops {
                if is_insert {
                    live.push(e.insert(disk(&mut rng)));
                } else if !live.is_empty() {
                    inserts_only = false;
                    let victim = live.remove((raw as usize) % live.len());
                    prop_assert!(e.remove(victim));
                } else {
                    continue;
                }
                prop_assert_eq!(e.len(), live.len());
                dead_fraction_ok(&e);
                let blocks = e.stats().blocks;
                match policy {
                    CompactionPolicy::Logarithmic => {
                        if is_insert {
                            assert_distinct_classes(&e);
                        }
                        if inserts_only {
                            prop_assert_eq!(
                                blocks,
                                live.len().count_ones() as usize,
                                "insert-only Logarithmic block count"
                            );
                        }
                    }
                    CompactionPolicy::Tiered { max_blocks } => {
                        prop_assert!(
                            blocks <= max_blocks,
                            "{} blocks over Tiered cap {}",
                            blocks,
                            max_blocks
                        );
                    }
                    CompactionPolicy::MergeToOne => {
                        prop_assert!(blocks <= 1, "MergeToOne left {} blocks", blocks);
                        if is_insert {
                            prop_assert_eq!(blocks, 1);
                        }
                    }
                }
            }
        }
    }

    /// Tombstone compaction fires exactly when a removal crosses
    /// `max_dead_fraction` — never sooner, never later.
    #[test]
    fn compaction_fires_exactly_at_threshold(
        n in 8usize..40,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e = engine(CompactionPolicy::Logarithmic, None);
        let ids = e.bulk_insert((0..n).map(|_| disk(&mut rng)).collect());
        let mut live = n;
        let mut dead = 0usize;
        for (k, &id) in ids.iter().enumerate().take(n - 1) {
            let before = e.stats().compactions;
            prop_assert!(e.remove(id));
            live -= 1;
            dead += 1;
            // The engine's threshold is against *current* storage
            // (live + tombstones), which shrinks after each compaction.
            let crossed = dead as f64 > MAX_DEAD * ((live + dead) as f64);
            let after = e.stats().compactions;
            if crossed {
                prop_assert_eq!(after, before + 1, "removal {} must compact", k);
                // Compaction dropped every tombstone into one rebuilt block.
                prop_assert_eq!(e.stats().tombstones, 0);
                prop_assert_eq!(e.stats().blocks, 1);
                dead = 0;
            } else {
                prop_assert_eq!(after, before, "removal {} must not compact", k);
                prop_assert_eq!(e.stats().tombstones, dead);
            }
        }
    }
}

/// Hot promotion: reads accumulate on snapshots, and the first mutation at
/// or past the configured read/update ratio collapses the engine.
#[test]
fn hot_promotion_collapses_read_heavy_engines() {
    let mut rng = SmallRng::seed_from_u64(99);
    let mut e = engine(CompactionPolicy::Logarithmic, Some(8.0));
    for _ in 0..6 {
        e.insert(disk(&mut rng));
    }
    assert!(e.stats().blocks > 1, "6 inserts must leave 2 blocks");
    assert_eq!(e.stats().promotions, 0);

    // The ratio weighs reads against updates since the last promotion: the
    // 6 bootstrap inserts plus the one below make 7, so 56 reads hit the
    // ratio-8 bound exactly at that mutation (which cascades to 3 blocks,
    // keeping the promotion's multi-block guard open).
    let snap = e.snapshot();
    for _ in 0..56 {
        snap.nn_nonzero(Point::new(0.0, 0.0));
    }
    assert_eq!(e.stats().reads, 56, "snapshot reads must reach the engine");
    e.insert(disk(&mut rng));
    let s = e.stats();
    assert_eq!(s.promotions, 1, "read-heavy mutation must promote");
    assert_eq!(s.blocks, 1, "promotion collapses to one block");
    assert_eq!(s.reads, 0, "promotion resets the read counter");

    // A cold engine (no reads since promotion) must not promote again.
    e.insert(disk(&mut rng));
    assert_eq!(e.stats().promotions, 1);
}

/// `bulk_insert` is equivalent to one-by-one insertion: same ids, same
/// answers, one block instead of a cascade.
#[test]
fn bulk_insert_matches_incremental_inserts() {
    let mut rng = SmallRng::seed_from_u64(5);
    let points: Vec<Uncertain> = (0..13).map(|_| disk(&mut rng)).collect();
    let mut bulk = engine(CompactionPolicy::Logarithmic, None);
    let ids = bulk.bulk_insert(points.clone());
    assert_eq!(ids, (0..13).collect::<Vec<PointId>>());
    assert_eq!(bulk.stats().blocks, 1, "bulk bootstrap is one build");

    let mut incr = engine(CompactionPolicy::Logarithmic, None);
    for p in points {
        incr.insert(p);
    }
    let (bs, is) = (bulk.snapshot(), incr.snapshot());
    assert_eq!(bs.live_ids(), is.live_ids());
    for i in 0..6 {
        let q = Point::new(f64::from(i) * 7.0 - 18.0, f64::from(i) * -5.0 + 11.0);
        assert_eq!(bs.nn_nonzero(q), is.nn_nonzero(q));
        assert_eq!(bs.quantify(q), is.quantify(q));
    }
}
