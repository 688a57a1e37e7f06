//! Observe-layer regression tests for the dynamic read path (compiled only
//! under `--features observe`): shared-bound pruning must *measurably* skip
//! blocks — not just stay correct — and hot-block promotion must announce
//! itself through the lifecycle counters.

#![cfg(feature = "observe")]

use unn::dynamic::{DynamicPnnConfig, DynamicPnnIndex};
use unn::geom::Point;
use unn::{PnnConfig, Uncertain};
use unn_testkit::brute;

fn config() -> DynamicPnnConfig {
    DynamicPnnConfig {
        base: PnnConfig {
            epsilon: 0.05,
            delta: 0.01,
            ..PnnConfig::default()
        },
        mc_rounds: 64,
        ..DynamicPnnConfig::default()
    }
}

fn disk(x: f64, y: f64) -> Uncertain {
    Uncertain::uniform_disk(Point::new(x, y), 0.5)
}

/// Two well-separated clusters inserted in time order, so the logarithmic
/// cascade leaves cluster A in its own block: a query deep inside cluster B
/// must probe strictly fewer than all blocks, with the flat-scan answer.
#[test]
fn pruning_probes_strictly_fewer_blocks_when_separated() {
    let mut index =
        DynamicPnnIndex::with_config(config()).unwrap_or_else(|e| panic!("config: {e}"));
    // Cluster A: 8 inserts cascade into one block of 8.
    for i in 0..8 {
        index.insert(disk(f64::from(i) * 0.7, f64::from(i % 3) * 0.7));
    }
    // Cluster B: 7 more, far away — blocks of 4 + 2 + 1, all pure-B.
    for i in 0..7 {
        index.insert(disk(
            1000.0 + f64::from(i) * 0.7,
            1000.0 + f64::from(i % 3) * 0.7,
        ));
    }
    let snap = index.snapshot();
    assert_eq!(snap.blocks(), 4, "15 time-ordered inserts → 8|4|2|1 blocks");
    let q = Point::new(1001.0, 1001.0);

    unn_observe::begin_query();
    let pruned = snap.nn_nonzero(q);
    let with_pruning = unn_observe::take_counters();

    assert_eq!(
        pruned,
        brute::nn_nonzero(&snap.live_points(), q),
        "answers must not depend on pruning"
    );
    assert!(
        with_pruning.dyn_blocks_probed < snap.blocks() as u64,
        "pruned path probed {} of {} blocks — cluster A must be skipped",
        with_pruning.dyn_blocks_probed,
        snap.blocks()
    );
    assert!(
        with_pruning.kd_nodes_pruned > 0,
        "capped descents must report pruned subtrees"
    );
}

/// Hot-block promotion shows up in the counters: the promoting mutation
/// emits exactly one `dyn_promotions` tick (and, with no same-class pair at
/// that insert, no merge tick), and collapses the structure to one block.
#[test]
fn promotion_emits_expected_counter_deltas() {
    let mut index = DynamicPnnIndex::with_config(DynamicPnnConfig {
        hot_promote_ratio: Some(4.0),
        ..config()
    })
    .unwrap_or_else(|e| panic!("config: {e}"));
    for i in 0..6 {
        index.insert(disk(f64::from(i), 0.0));
    }
    let snap = index.snapshot();
    assert_eq!(snap.blocks(), 2, "6 inserts → 4|2 blocks");
    // 28 reads over the 7 updates-at-next-insert reach the ratio-4 bound.
    for _ in 0..28 {
        snap.nn_nonzero(Point::new(0.0, 0.0));
    }

    unn_observe::begin_query();
    index.insert(disk(100.0, 0.0));
    let counters = unn_observe::take_counters();

    assert_eq!(
        counters.dyn_promotions, 1,
        "promotion must tick its counter"
    );
    assert_eq!(
        counters.dyn_merges, 0,
        "4|2|1 has no same-class pair — the collapse is promotion, not a cascade merge"
    );
    assert_eq!(
        index.snapshot().blocks(),
        1,
        "promotion merges to one block"
    );
    assert_eq!(index.stats().promotions, 1);

    // The next mutation starts from a cold read counter: no double-fire.
    unn_observe::begin_query();
    index.insert(disk(101.0, 0.0));
    assert_eq!(unn_observe::take_counters().dyn_promotions, 0);
}
