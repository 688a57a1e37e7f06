//! Determinism contract of the batch query engine (`unn::batch`): every
//! batch API returns results bit-identical to the sequential loop, for
//! every thread count and for any query order.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use unn::batch::{query_stream_seed, BatchOptions};
use unn::distr::{DiscreteDistribution, TruncatedGaussian};
use unn::geom::Point;
use unn::observe::{NullClock, PipelineMetrics};
use unn::{ChaosDistribution, ChaosMode, PnnIndex, Uncertain, UnnError};

fn discrete_points(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cx: f64 = rng.random_range(-25.0..25.0);
            let cy: f64 = rng.random_range(-25.0..25.0);
            Uncertain::Discrete(
                DiscreteDistribution::uniform(
                    (0..k)
                        .map(|_| {
                            Point::new(
                                cx + rng.random_range(-3.0..3.0),
                                cy + rng.random_range(-3.0..3.0),
                            )
                        })
                        .collect(),
                )
                .unwrap(),
            )
        })
        .collect()
}

fn mixed_points(n: usize, seed: u64) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let c = Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0));
            match i % 3 {
                0 => Uncertain::uniform_disk(c, rng.random_range(0.5..2.5)),
                1 => Uncertain::Gaussian(TruncatedGaussian::with_sigmas(c, 0.7, 3.0)),
                _ => Uncertain::Discrete(
                    DiscreteDistribution::uniform(vec![
                        Point::new(c.x - 1.0, c.y),
                        Point::new(c.x + 1.0, c.y),
                    ])
                    .unwrap(),
                ),
            }
        })
        .collect()
}

fn queries(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(-30.0..30.0), rng.random_range(-30.0..30.0)))
        .collect()
}

fn shuffle<T: Clone>(items: &[T], seed: u64) -> (Vec<T>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..items.len()).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..perm.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    (perm.iter().map(|&i| items[i].clone()).collect(), perm)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn nn_nonzero_batch_bit_identical_across_thread_counts() {
    for points in [discrete_points(20, 3, 500), mixed_points(20, 501)] {
        let idx = PnnIndex::new(points);
        let qs = queries(256, 502);
        let seq: Vec<Vec<usize>> = qs.iter().map(|&q| idx.nn_nonzero(q)).collect();
        for t in THREAD_COUNTS {
            let batch = BatchOptions::with_threads(t).map(&qs, |q| idx.nn_nonzero(q));
            assert_eq!(batch, seq, "threads = {t}");
        }
    }
}

#[test]
fn quantify_batch_bit_identical_across_thread_counts() {
    for points in [discrete_points(15, 3, 503), mixed_points(15, 504)] {
        let idx = PnnIndex::new(points);
        let qs = queries(96, 505);
        let seq: Vec<_> = qs.iter().map(|&q| idx.quantify(q)).collect();
        for t in THREAD_COUNTS {
            let batch = BatchOptions::with_threads(t).map(&qs, |q| idx.quantify(q));
            assert_eq!(batch, seq, "threads = {t}");
        }
    }
}

#[test]
fn quantify_exact_batch_bit_identical_across_thread_counts() {
    let idx = PnnIndex::new(discrete_points(12, 4, 506));
    let qs = queries(128, 507);
    let seq: Vec<Vec<f64>> = qs.iter().map(|&q| idx.quantify_exact(q).0).collect();
    for t in THREAD_COUNTS {
        let batch = BatchOptions::with_threads(t).map(&qs, |q| idx.quantify_exact(q).0);
        assert_eq!(batch, seq, "threads = {t}");
    }
}

#[test]
fn expected_nn_batch_bit_identical_across_thread_counts() {
    let idx = PnnIndex::new(mixed_points(25, 508));
    let qs = queries(256, 509);
    let seq: Vec<_> = qs.iter().map(|&q| idx.expected_nn(q)).collect();
    for t in THREAD_COUNTS {
        let batch = BatchOptions::with_threads(t).map(&qs, |q| idx.expected_nn(q));
        assert_eq!(batch, seq, "threads = {t}");
    }
}

#[test]
fn quantify_fresh_batch_bit_identical_across_thread_counts() {
    let idx = PnnIndex::new(discrete_points(10, 2, 510));
    let qs = queries(64, 511);
    // Sequential reference: the documented per-index stream derivation.
    let seq: Vec<Vec<f64>> = qs
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let mut rng = SmallRng::seed_from_u64(query_stream_seed(idx.config().seed, i as u64));
            idx.quantify_fresh(q, 300, &mut rng)
        })
        .collect();
    for t in THREAD_COUNTS {
        let batch = idx.quantify_fresh_batch(&qs, 300, &BatchOptions::with_threads(t));
        assert_eq!(batch, seq, "threads = {t}");
    }
}

#[test]
fn quantify_adaptive_batch_bit_identical_across_thread_counts() {
    for points in [discrete_points(15, 3, 520), mixed_points(15, 521)] {
        let idx = PnnIndex::new(points);
        let qs = queries(96, 522);
        let seq: Vec<_> = qs
            .iter()
            .map(|&q| idx.quantify_adaptive(q, 0.05, 0.01))
            .collect();
        for t in THREAD_COUNTS {
            let batch =
                BatchOptions::with_threads(t).map(&qs, |q| idx.quantify_adaptive(q, 0.05, 0.01));
            assert_eq!(batch, seq, "threads = {t}");
        }
    }
}

#[test]
fn quantify_adaptive_batch_shuffled_order_gives_permuted_results() {
    let idx = PnnIndex::new(mixed_points(15, 523));
    let qs = queries(120, 524);
    let (shuffled, perm) = shuffle(&qs, 525);
    let opts = BatchOptions::with_threads(4);
    let base = opts.map(&qs, |q| idx.quantify_adaptive(q, 0.05, 0.01));
    let shuf = opts.map(&shuffled, |q| idx.quantify_adaptive(q, 0.05, 0.01));
    for (pos, &orig) in perm.iter().enumerate() {
        assert_eq!(shuf[pos], base[orig]);
    }
}

#[test]
fn shuffled_query_order_gives_permuted_results() {
    // Per-query results must depend only on the query (and, for the fresh
    // API, its index): shuffling the batch permutes the deterministic
    // results and nothing else.
    let idx = PnnIndex::new(discrete_points(15, 3, 512));
    let qs = queries(200, 513);
    let (shuffled, perm) = shuffle(&qs, 514);
    let opts = BatchOptions::with_threads(4);
    let base = opts.map(&qs, |q| idx.nn_nonzero(q));
    let shuf = opts.map(&shuffled, |q| idx.nn_nonzero(q));
    for (pos, &orig) in perm.iter().enumerate() {
        assert_eq!(shuf[pos], base[orig]);
    }
    let base_q = opts.map(&qs, |q| idx.quantify_exact(q).0);
    let shuf_q = opts.map(&shuffled, |q| idx.quantify_exact(q).0);
    for (pos, &orig) in perm.iter().enumerate() {
        assert_eq!(shuf_q[pos], base_q[orig]);
    }
}

#[test]
fn ten_thousand_query_batch_matches_sequential() {
    // The acceptance-scale batch: 10k queries, bit-identical to the
    // sequential loop on cheap query families.
    let idx = PnnIndex::new(discrete_points(30, 2, 515));
    let qs = queries(10_000, 516);
    let opts = BatchOptions::with_threads(4);
    let seq_nz: Vec<Vec<usize>> = qs.iter().map(|&q| idx.nn_nonzero(q)).collect();
    assert_eq!(opts.map(&qs, |q| idx.nn_nonzero(q)), seq_nz);
    let seq_e: Vec<_> = qs.iter().map(|&q| idx.expected_nn(q)).collect();
    assert_eq!(opts.map(&qs, |q| idx.expected_nn(q)), seq_e);
}

#[test]
fn ten_thousand_query_batch_isolates_one_poison_query() {
    // The panic-isolation extension of the determinism contract: a 10k
    // batch containing one poison query completes with exactly that slot
    // reporting `QueryPanicked`, and every other slot bit-identical to the
    // sequential run without the poison query — at 1, 2, and 8 threads.
    let poison = Point::new(4321.0625, -8765.4375);
    let mut points = mixed_points(12, 530);
    points.push(Uncertain::Chaos(ChaosDistribution::new(
        Uncertain::uniform_disk(Point::new(2.0, -1.0), 1.0),
        // A pure function of the query point: which slot trips it cannot
        // depend on thread scheduling.
        ChaosMode::PanicAtQuery(poison),
    )));
    let idx = PnnIndex::new(points);
    let mut qs = queries(10_000, 531);
    let poison_slot = 617;
    qs[poison_slot] = poison;

    // Sequential reference over the clean queries only.
    let seq: Vec<Option<Vec<usize>>> = qs
        .iter()
        .enumerate()
        .map(|(i, &q)| (i != poison_slot).then(|| idx.nn_nonzero(q)))
        .collect();

    for t in THREAD_COUNTS {
        let batch = BatchOptions::with_threads(t).map(&qs, |q| idx.try_nn_nonzero(q));
        assert_eq!(batch.len(), qs.len());
        for (i, slot) in batch.iter().enumerate() {
            if i == poison_slot {
                assert!(
                    matches!(slot, Err(UnnError::QueryPanicked { .. })),
                    "threads = {t}: poison slot reported {slot:?}"
                );
            } else {
                assert_eq!(
                    slot.as_ref().ok(),
                    seq[i].as_ref(),
                    "threads = {t}, slot = {i}"
                );
            }
        }
    }
}

#[test]
fn pipeline_metrics_bit_identical_across_thread_counts() {
    // The determinism contract extends to the observability layer: every
    // non-timing field of a `PipelineMetrics` snapshot is an
    // order-independent aggregate of deterministic per-query quantities, so
    // `snapshot().deterministic()` must be bit-identical at 1/2/8 threads.
    for points in [discrete_points(15, 3, 540), mixed_points(15, 541)] {
        let idx = PnnIndex::new(points);
        let qs = queries(96, 542);
        let run = |opts: &BatchOptions| {
            let mut metrics = PipelineMetrics::new();
            idx.observed_batch(&qs, opts, &mut metrics, &NullClock, |q| {
                idx.quantify_adaptive(q, 0.05, 0.01)
            });
            idx.observed_batch(&qs, opts, &mut metrics, &NullClock, |q| idx.nn_nonzero(q));
            metrics.deterministic()
        };
        let reference = run(&BatchOptions::with_threads(1));
        assert_eq!(reference.queries, 2 * qs.len() as u64);
        for t in THREAD_COUNTS {
            assert_eq!(
                run(&BatchOptions::with_threads(t)),
                reference,
                "threads = {t}"
            );
        }
    }
}

#[test]
fn pipeline_metrics_invariant_under_shuffled_query_order() {
    // Metric aggregates are sums over the query *set*: permuting the batch
    // must not change a single non-timing field.
    let idx = PnnIndex::new(mixed_points(15, 543));
    let qs = queries(120, 544);
    let (shuffled, _) = shuffle(&qs, 545);
    let run = |qs: &[Point]| {
        let mut metrics = PipelineMetrics::new();
        let opts = BatchOptions::with_threads(4);
        idx.observed_batch(qs, &opts, &mut metrics, &NullClock, |q| {
            idx.quantify_adaptive(q, 0.05, 0.01)
        });
        metrics.deterministic()
    };
    assert_eq!(run(&qs), run(&shuffled));
}

#[test]
fn ten_thousand_query_metrics_bit_identical_across_thread_counts() {
    // The acceptance-scale check: a 10k-query observed batch produces a
    // bit-identical deterministic snapshot at 1, 2, and 8 threads, and the
    // result-derived aggregates cross-check against the sequential results.
    let idx = PnnIndex::new(discrete_points(30, 2, 546));
    let qs = queries(10_000, 547);
    let mut snapshots = Vec::new();
    for t in THREAD_COUNTS {
        let mut metrics = PipelineMetrics::new();
        let opts = BatchOptions::with_threads(t);
        let out = idx.observed_batch(&qs, &opts, &mut metrics, &NullClock, |q| {
            idx.quantify_guarded(q, unn::QueryBudget::with_work(40))
        });
        assert_eq!(out.len(), qs.len());
        snapshots.push(metrics.deterministic());
    }
    let first = &snapshots[0];
    assert_eq!(first.queries, qs.len() as u64);
    // A 40-unit budget is below this corpus's exact-sweep cost, so every
    // query degrades; the degradation count must say exactly that.
    assert_eq!(first.degraded_count, qs.len() as u64);
    assert_eq!(first.exact_count, 0);
    assert!(snapshots.iter().all(|s| s == first));
}

/// A dynamic index with a mid-size churn history: inserts (some under
/// explicit ids), removals, and re-inserts, leaving a multi-block layout.
fn churned_dynamic(seed: u64) -> unn::dynamic::DynamicPnnIndex {
    use unn::dynamic::{DynamicPnnConfig, DynamicPnnIndex};
    let config = DynamicPnnConfig {
        mc_rounds: 256,
        ..DynamicPnnConfig::default()
    };
    let mut index = DynamicPnnIndex::with_config(config).unwrap_or_else(|e| panic!("config: {e}"));
    let points = mixed_points(18, seed);
    for p in &points {
        index.insert(p.clone());
    }
    for id in [2u64, 9, 14] {
        assert!(index.remove(id));
    }
    for id in [2u64, 14] {
        index
            .insert_with_id(id, points[id as usize].clone())
            .unwrap_or_else(|e| panic!("re-insert {id}: {e}"));
    }
    index
}

#[test]
fn dynamic_batch_bit_identical_across_thread_counts() {
    let snap = churned_dynamic(550).snapshot();
    let qs = queries(96, 551);
    let seq_nz: Vec<_> = qs.iter().map(|&q| snap.nn_nonzero(q)).collect();
    let seq_pi: Vec<_> = qs.iter().map(|&q| snap.quantify(q).0).collect();
    let seq_ad: Vec<_> = qs
        .iter()
        .map(|&q| snap.quantify_adaptive(q, 0.05, 0.01))
        .collect();
    for t in THREAD_COUNTS {
        let opts = BatchOptions::with_threads(t);
        assert_eq!(
            opts.map(&qs, |q| snap.nn_nonzero(q)),
            seq_nz,
            "threads = {t}"
        );
        assert_eq!(
            opts.map(&qs, |q| snap.quantify(q).0),
            seq_pi,
            "threads = {t}"
        );
        assert_eq!(
            opts.map(&qs, |q| snap.quantify_adaptive(q, 0.05, 0.01)),
            seq_ad,
            "threads = {t}"
        );
    }
}

#[test]
fn dynamic_batch_invariant_to_block_layout() {
    // Three histories of the same live set: forward inserts with churn,
    // reverse-order inserts, and a heavily-compacted variant. The batch
    // results must be bit-identical across all of them — the block layout
    // is invisible — at every thread count.
    use unn::dynamic::{DynamicPnnConfig, DynamicPnnIndex};
    let base = churned_dynamic(552);
    let live = base.snapshot().live_points();

    let config = DynamicPnnConfig {
        mc_rounds: 256,
        ..DynamicPnnConfig::default()
    };
    let mut reversed =
        DynamicPnnIndex::with_config(config.clone()).unwrap_or_else(|e| panic!("config: {e}"));
    for (id, p) in live.iter().rev() {
        reversed
            .insert_with_id(*id, p.clone())
            .unwrap_or_else(|e| panic!("insert {id}: {e}"));
    }
    let mut compacted =
        DynamicPnnIndex::with_config(config).unwrap_or_else(|e| panic!("config: {e}"));
    for (id, p) in &live {
        compacted
            .insert_with_id(*id, p.clone())
            .unwrap_or_else(|e| panic!("insert {id}: {e}"));
    }
    // Extra churn that nets out: remove and re-insert half the set to force
    // tombstones, merges, and at least one compaction.
    for (id, p) in live.iter().take(live.len() / 2) {
        assert!(compacted.remove(*id));
        compacted
            .insert_with_id(*id, p.clone())
            .unwrap_or_else(|e| panic!("re-insert {id}: {e}"));
    }

    let (s0, s1, s2) = (base.snapshot(), reversed.snapshot(), compacted.snapshot());
    assert_eq!(s0.live_ids(), s1.live_ids());
    assert_eq!(s0.live_ids(), s2.live_ids());
    assert_ne!(
        base.stats().blocks_built,
        compacted.stats().blocks_built,
        "histories must differ structurally for the test to mean anything"
    );

    let qs = queries(64, 553);
    for t in THREAD_COUNTS {
        let opts = BatchOptions::with_threads(t);
        let nz = opts.map(&qs, |q| s0.nn_nonzero(q));
        assert_eq!(nz, opts.map(&qs, |q| s1.nn_nonzero(q)), "threads = {t}");
        assert_eq!(nz, opts.map(&qs, |q| s2.nn_nonzero(q)), "threads = {t}");
        let pi = opts.map(&qs, |q| s0.quantify(q).0);
        assert_eq!(pi, opts.map(&qs, |q| s1.quantify(q).0), "threads = {t}");
        assert_eq!(pi, opts.map(&qs, |q| s2.quantify(q).0), "threads = {t}");
        let ad = opts.map(&qs, |q| s0.quantify_adaptive(q, 0.05, 0.01));
        assert_eq!(
            ad,
            opts.map(&qs, |q| s1.quantify_adaptive(q, 0.05, 0.01)),
            "threads = {t}"
        );
        assert_eq!(
            ad,
            opts.map(&qs, |q| s2.quantify_adaptive(q, 0.05, 0.01)),
            "threads = {t}"
        );
    }
}

#[test]
fn ambient_pool_default_matches_pinned() {
    let idx = PnnIndex::new(discrete_points(10, 3, 517));
    let qs = queries(128, 518);
    let (ambient, pinned) = (BatchOptions::default(), BatchOptions::with_threads(2));
    assert_eq!(
        ambient.map(&qs, |q| idx.nn_nonzero(q)),
        pinned.map(&qs, |q| idx.nn_nonzero(q))
    );
    assert_eq!(
        idx.quantify_fresh_batch(&qs, 100, &ambient),
        idx.quantify_fresh_batch(&qs, 100, &pinned)
    );
}
