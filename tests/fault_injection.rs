//! Fault-injection harness: chaos distributions and an adversarial corpus
//! driven through every public entry point of the resilient pipeline.
//!
//! The contract under test: **zero panics escape the `try_*` / `*_guarded`
//! API or a query wrapped in `batch::isolate`** — every poisoned or
//! degenerate input yields a typed [`UnnError`] or a valid (possibly
//! [`QuantifyOutcome::Degraded`]) answer.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::batch::isolate;
use unn::distr::discrete::DiscreteError;
use unn::geom::{Aabb, Disk, Point};
use unn::nonzero::{DiscreteNonzeroIndex, DiskNonzeroIndex, NonzeroError};
use unn::quantify::ProbabilisticVoronoi;
use unn::voronoi::Delaunay;
use unn::{
    BatchOptions, ChaosDistribution, ChaosMode, DiscreteDistribution, DistrError,
    HistogramDistribution, PnnConfig, PnnIndex, QuantifyMethod, QuantifyOutcome, QueryBudget,
    TruncatedGaussian, Uncertain, UniformDisk, UnnError, ValidationPolicy,
};

fn test_config() -> PnnConfig {
    PnnConfig {
        // Keep numeric integration affordable on the continuous corpus.
        numeric_steps: 128,
        max_mc_rounds: 2_000,
        ..PnnConfig::default()
    }
}

fn clean_disks(n: usize, seed: u64) -> Vec<Uncertain> {
    unn_testkit::corpus::uniform_disks(n, seed, 0.5, 2.0)
}

fn clean_discrete(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
    unn_testkit::corpus::uniform_discrete(n, k, seed)
}

// ---------------------------------------------------------------------
// Chaos distributions through the query entry points.
// ---------------------------------------------------------------------

#[test]
fn poison_query_is_caught_by_try_entry_points() {
    let poison = Point::new(1234.5678, -987.6543);
    let mut points = clean_disks(8, 900);
    points.push(Uncertain::Chaos(ChaosDistribution::new(
        Uncertain::uniform_disk(Point::new(3.0, 3.0), 1.0),
        ChaosMode::PanicAtQuery(poison),
    )));
    let idx = PnnIndex::build(points, test_config());

    // Clean queries sail through.
    let ok = idx.try_nn_nonzero(Point::new(1.0, 1.0)).unwrap();
    assert!(!ok.is_empty());

    // The poison query panics below the API; the boundary converts it.
    match idx.try_nn_nonzero(poison) {
        Err(UnnError::QueryPanicked { message }) => {
            assert!(message.contains("chaos"), "unexpected payload: {message}")
        }
        other => panic!("expected QueryPanicked, got {other:?}"),
    }

    // Guarded quantification at the poison point: the exact path here is
    // numeric integration, which evaluates distance CDFs at q and trips
    // the chaos check — caught the same way.
    match idx.quantify_guarded(poison, QueryBudget::unlimited()) {
        Err(UnnError::QueryPanicked { .. }) => {}
        Ok(outcome) => assert_eq!(outcome.pi().len(), idx.len()),
        Err(other) => panic!("expected QueryPanicked or Ok, got {other:?}"),
    }

    // Non-finite queries are typed errors, not panics.
    for bad in [
        Point::new(f64::NAN, 0.0),
        Point::new(0.0, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NAN),
    ] {
        assert!(matches!(
            idx.try_nn_nonzero(bad),
            Err(UnnError::DegenerateGeometry { .. })
        ));
        assert!(matches!(
            idx.quantify_guarded(bad, QueryBudget::unlimited()),
            Err(UnnError::DegenerateGeometry { .. })
        ));
    }
}

#[test]
fn chaos_sampling_at_build_is_caught_by_try_build() {
    // The chaos point passes validation (it delegates to its inner model)
    // but panics on its 5th sample — which fires inside the Monte-Carlo
    // construction. try_build must contain it.
    let mut points = clean_disks(4, 901);
    points.push(Uncertain::Chaos(ChaosDistribution::new(
        Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
        ChaosMode::PanicOnSample(5),
    )));
    match PnnIndex::try_build(points, test_config(), ValidationPolicy::Strict) {
        Err(UnnError::QueryPanicked { message }) => {
            assert!(message.contains("chaos"), "unexpected payload: {message}")
        }
        Ok(_) => panic!("build must trip the 5th-sample fault"),
        Err(other) => panic!("expected QueryPanicked, got {other:?}"),
    }

    // NaN emission instead of a panic: the build must either contain a
    // downstream panic or complete; queries stay guarded either way.
    let mut points = clean_disks(4, 902);
    points.push(Uncertain::Chaos(ChaosDistribution::new(
        Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
        ChaosMode::NanOnSample(3),
    )));
    if let Ok(idx) = PnnIndex::try_build(points, test_config(), ValidationPolicy::Strict) {
        let r = idx.try_nn_nonzero(Point::new(1.0, 1.0));
        assert!(r.is_ok() || matches!(r, Err(UnnError::QueryPanicked { .. })));
        let g = idx.quantify_guarded(Point::new(1.0, 1.0), QueryBudget::unlimited());
        assert!(g.is_ok() || matches!(g, Err(UnnError::QueryPanicked { .. })));
    }
}

#[test]
fn isolated_batches_contain_the_poison_slot() {
    let poison = Point::new(777.125, -333.25);
    let mut points = clean_disks(6, 903);
    points.push(Uncertain::Chaos(ChaosDistribution::new(
        Uncertain::uniform_disk(Point::new(-2.0, 4.0), 1.5),
        ChaosMode::PanicAtQuery(poison),
    )));
    let idx = PnnIndex::build(points, test_config());
    let mut rng = SmallRng::seed_from_u64(904);
    let mut queries: Vec<Point> = (0..64)
        .map(|_| Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0)))
        .collect();
    queries[17] = poison;
    queries[40] = Point::new(f64::NAN, 1.0);

    let opts = BatchOptions::with_threads(4);
    let out = opts.map(&queries, |q| idx.try_nn_nonzero(q));
    assert_eq!(out.len(), queries.len());
    for (i, slot) in out.iter().enumerate() {
        match i {
            17 => assert!(matches!(slot, Err(UnnError::QueryPanicked { .. }))),
            40 => assert!(matches!(slot, Err(UnnError::DegenerateGeometry { .. }))),
            _ => assert_eq!(slot.as_ref().unwrap(), &idx.nn_nonzero(queries[i])),
        }
    }

    // quantify / adaptive / guarded isolated batches run on the prebuilt
    // Monte-Carlo structure (concrete instantiations — no chaos on the
    // query path), so the poison slot is fine there but the NaN slot must
    // still error and everything else must match sequential.
    let qout = opts.map(&queries, |q| isolate(q, || idx.quantify(q)));
    for (i, slot) in qout.iter().enumerate() {
        match i {
            40 => assert!(matches!(slot, Err(UnnError::DegenerateGeometry { .. }))),
            _ => assert_eq!(slot.as_ref().unwrap(), &idx.quantify(queries[i])),
        }
    }
    let aout = opts.map(&queries, |q| {
        isolate(q, || idx.quantify_adaptive(q, 0.1, 0.01))
    });
    for (i, slot) in aout.iter().enumerate() {
        match i {
            40 => assert!(matches!(slot, Err(UnnError::DegenerateGeometry { .. }))),
            _ => assert_eq!(
                slot.as_ref().unwrap(),
                &idx.quantify_adaptive(queries[i], 0.1, 0.01)
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial corpus through build + query.
// ---------------------------------------------------------------------

fn adversarial_corpus() -> Vec<(&'static str, Vec<Uncertain>)> {
    let coincident = vec![
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(1.0, 1.0))),
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(1.0, 1.0))),
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(1.0, 1.0))),
    ];
    let collinear = (0..6)
        .map(|i| Uncertain::Discrete(DiscreteDistribution::certain(Point::new(i as f64, 0.0))))
        .collect();
    let cocircular = (0..8)
        .map(|i| {
            let a = std::f64::consts::FRAC_PI_4 * i as f64;
            Uncertain::Discrete(DiscreteDistribution::certain(Point::new(a.cos(), a.sin())))
        })
        .collect();
    let huge = vec![
        Uncertain::uniform_disk(Point::new(1e308, 0.0), 1.0),
        Uncertain::uniform_disk(Point::new(-1e308, 0.0), 1.0),
        Uncertain::uniform_disk(Point::new(0.0, 1e308), 1.0),
    ];
    let denormal = vec![
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(5e-324, 0.0))),
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(0.0, 1e-320))),
        Uncertain::Discrete(DiscreteDistribution::certain(Point::new(-3e-322, 2e-323))),
    ];
    vec![
        ("coincident", coincident),
        ("collinear", collinear),
        ("cocircular", cocircular),
        ("huge-scale", huge),
        ("denormal", denormal),
    ]
}

#[test]
fn adversarial_corpus_never_escapes_the_api() {
    let queries = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(1e308, 1e308),
        Point::new(5e-324, -5e-324),
        Point::new(f64::NAN, 0.0),
    ];
    for (name, corpus) in adversarial_corpus() {
        for policy in [ValidationPolicy::Strict, ValidationPolicy::Repair] {
            let built = PnnIndex::try_build(corpus.clone(), test_config(), policy);
            let idx = match built {
                Ok(idx) => idx,
                // Rejection must be typed, and only for the corpus that
                // actually contains duplicates under Strict.
                Err(UnnError::DegenerateGeometry { .. }) => {
                    assert_eq!(
                        (name, policy),
                        ("coincident", ValidationPolicy::Strict),
                        "only coincident/Strict may reject"
                    );
                    continue;
                }
                Err(other) => panic!("{name}/{policy:?}: unexpected error {other:?}"),
            };
            if name == "coincident" && policy == ValidationPolicy::Repair {
                assert_eq!(idx.len(), 1, "repair must dedupe identical points");
            }
            for &q in &queries {
                // Every entry point returns a typed result; a panic would
                // fail this test at the harness level.
                let nz = idx.try_nn_nonzero(q);
                if q.is_finite() {
                    assert!(nz.is_ok(), "{name}: nn_nonzero({q:?}) -> {nz:?}");
                } else {
                    assert!(matches!(nz, Err(UnnError::DegenerateGeometry { .. })));
                }
                for budget in [QueryBudget::unlimited(), QueryBudget::with_work(4)] {
                    match idx.quantify_guarded(q, budget) {
                        Ok(outcome) => assert_eq!(outcome.pi().len(), idx.len(), "{name}"),
                        Err(
                            UnnError::DegenerateGeometry { .. }
                            | UnnError::BudgetExhausted { .. }
                            | UnnError::QueryPanicked { .. },
                        ) => {}
                        Err(other) => panic!("{name}: unexpected error {other:?}"),
                    }
                }
            }
            let finite_queries: Vec<Point> =
                queries.iter().copied().filter(|q| q.is_finite()).collect();
            for slot in BatchOptions::default().map(&finite_queries, |q| idx.try_nn_nonzero(q)) {
                assert!(slot.is_ok(), "{name}: isolated batch slot failed: {slot:?}");
            }
        }
    }
}

#[test]
fn degenerate_sites_through_voronoi_layers() {
    // Collinear and cocircular site sets through the raw Delaunay and the
    // probabilistic Voronoi diagram: typed results, no panics.
    let collinear: Vec<Point> = (0..5)
        .map(|i| Point::new(i as f64, 2.0 * i as f64))
        .collect();
    let dt = Delaunay::try_new(&collinear).unwrap();
    assert!(dt.nearest(Point::new(1.1, 2.3)).is_some());
    assert!(Delaunay::try_new(&[Point::new(f64::NAN, 0.0)]).is_err());

    let cocircular: Vec<DiscreteDistribution> = (0..6)
        .map(|i| {
            let a = std::f64::consts::FRAC_PI_3 * i as f64;
            DiscreteDistribution::certain(Point::new(3.0 * a.cos(), 3.0 * a.sin()))
        })
        .collect();
    let bbox = Aabb::new(Point::new(-5.0, -5.0), Point::new(5.0, 5.0));
    let vpr = ProbabilisticVoronoi::try_build(&cocircular, bbox).unwrap();
    let pi = vpr.query(Point::new(0.1, 0.2));
    assert_eq!(pi.len(), cocircular.len());
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Non-finite inputs are typed errors at both layers.
    assert!(ProbabilisticVoronoi::try_build(
        &cocircular,
        Aabb::new(Point::new(0.0, 0.0), Point::new(f64::INFINITY, 1.0)),
    )
    .is_err());
}

// ---------------------------------------------------------------------
// Typed constructor errors (distr + nonzero satellites).
// ---------------------------------------------------------------------

#[test]
fn distr_constructors_reject_bad_parameters() {
    let c = Point::new(0.0, 0.0);
    assert!(matches!(
        TruncatedGaussian::try_new(Point::new(f64::NAN, 0.0), 1.0, 3.0),
        Err(DistrError::NonFiniteCoordinate { .. })
    ));
    assert!(matches!(
        TruncatedGaussian::try_new(c, -1.0, 3.0),
        Err(DistrError::BadParameter { .. })
    ));
    assert!(matches!(
        TruncatedGaussian::try_new(c, 1.0, f64::INFINITY),
        Err(DistrError::BadParameter { .. })
    ));
    assert!(matches!(
        UniformDisk::try_from_center(c, f64::INFINITY),
        Err(DistrError::BadParameter { .. })
    ));
    assert!(matches!(
        UniformDisk::try_from_center(c, 0.0),
        Err(DistrError::BadParameter { .. })
    ));
    let bbox = Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    assert!(matches!(
        HistogramDistribution::try_new(bbox, 2, 2, vec![1.0, -1.0, 1.0, 1.0]),
        Err(DistrError::BadParameter { .. })
    ));
    assert!(matches!(
        HistogramDistribution::try_new(bbox, 2, 2, vec![1.0; 3]),
        Err(DistrError::LengthMismatch { .. })
    ));
    assert!(matches!(
        HistogramDistribution::try_new(bbox, 0, 2, vec![]),
        Err(DistrError::EmptySupport { .. })
    ));
    assert!(matches!(
        DiscreteDistribution::new(vec![Point::new(0.0, 0.0)], vec![-1.0]),
        Err(DiscreteError::BadWeight(_))
    ));
    // Repair: drops the bad location, merges the duplicate, renormalizes.
    let repaired = DiscreteDistribution::repair(
        vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
        ],
        vec![1.0, 5.0, 1.0, 2.0],
    )
    .unwrap();
    assert_eq!(repaired.len(), 2);
    assert!((repaired.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

#[test]
fn nonzero_constructors_reject_bad_supports() {
    assert!(DiskNonzeroIndex::try_new(&[Disk::new(Point::new(0.0, 0.0), 1.0)]).is_ok());
    // Zero radius models a certain point: valid.
    assert!(DiskNonzeroIndex::try_new(&[Disk::new(Point::new(0.0, 0.0), 0.0)]).is_ok());
    // Disk::new asserts, so forge the bad values through the raw struct.
    let bad = Disk {
        center: Point::new(f64::NAN, 0.0),
        radius: 1.0,
    };
    assert!(matches!(
        DiskNonzeroIndex::try_new(&[bad]),
        Err(NonzeroError::NonFiniteDisk { index: 0 })
    ));
    let neg = Disk {
        center: Point::new(0.0, 0.0),
        radius: -1.0,
    };
    assert!(matches!(
        DiskNonzeroIndex::try_new(&[neg]),
        Err(NonzeroError::NegativeRadius { index: 0, .. })
    ));
    assert!(matches!(
        DiscreteNonzeroIndex::try_new(&[vec![Point::new(0.0, 0.0)], vec![]]),
        Err(NonzeroError::EmptySupport { index: 1 })
    ));
    assert!(matches!(
        DiscreteNonzeroIndex::try_new(&[vec![Point::new(0.0, f64::INFINITY)]]),
        Err(NonzeroError::NonFiniteLocation { index: 0, .. })
    ));
}

#[test]
fn invalid_configs_are_typed_errors() {
    for config in [
        PnnConfig {
            epsilon: 0.0,
            ..PnnConfig::default()
        },
        PnnConfig {
            epsilon: 1.5,
            ..PnnConfig::default()
        },
        PnnConfig {
            delta: 0.0,
            ..PnnConfig::default()
        },
        PnnConfig {
            delta: f64::NAN,
            ..PnnConfig::default()
        },
        PnnConfig {
            max_mc_rounds: 0,
            ..PnnConfig::default()
        },
        PnnConfig {
            numeric_steps: 0,
            ..PnnConfig::default()
        },
        // The numeric integrator needs at least two grid nodes.
        PnnConfig {
            numeric_steps: 1,
            ..PnnConfig::default()
        },
        PnnConfig {
            adaptive_min_rounds: 0,
            ..PnnConfig::default()
        },
    ] {
        assert!(matches!(
            PnnIndex::try_build(clean_disks(3, 905), config, ValidationPolicy::Strict),
            Err(UnnError::InvalidConfig { .. })
        ));
    }
}

// ---------------------------------------------------------------------
// Budgeted degradation.
// ---------------------------------------------------------------------

#[test]
fn budget_degrades_to_capped_adaptive_with_honest_epsilon() {
    let points = clean_discrete(10, 40, 906);
    let idx = PnnIndex::build(points, test_config());
    assert_eq!(idx.exact_work(), 400);
    let q = Point::new(2.0, -3.0);
    let (exact, _) = idx.quantify_exact(q);

    // Unlimited: the exact path, bit-identical to quantify_exact.
    let full = idx.quantify_within(q, QueryBudget::unlimited()).unwrap();
    assert!(!full.is_degraded());
    let QuantifyOutcome::Exact { pi, method, work } = &full else {
        panic!("expected Exact");
    };
    assert_eq!(method, &QuantifyMethod::ExactSweep);
    assert_eq!(pi, &exact);
    assert_eq!(*work, 400);

    // A budget below the exact sweep: degrade to capped adaptive MC and
    // certify the achieved accuracy honestly.
    let budget = QueryBudget::with_work(128);
    let outcome = idx.quantify_within(q, budget).unwrap();
    let QuantifyOutcome::Degraded {
        pi,
        achieved_epsilon,
        rounds_used,
        work,
    } = &outcome
    else {
        panic!("expected Degraded, got {outcome:?}");
    };
    assert!(*rounds_used <= 128 && *work <= 128);
    assert!(achieved_epsilon.is_finite() && *achieved_epsilon > 0.0);
    // The certification is honest: a 128-round estimate cannot claim the
    // configured epsilon.
    assert!(*achieved_epsilon > idx.config().epsilon);
    // And it is *correct*: the degraded answer lies within the certified
    // half-width of the exact sweep (deterministic given the build seed).
    for (i, (a, e)) in pi.iter().zip(&exact).enumerate() {
        assert!(
            (a - e).abs() <= *achieved_epsilon,
            "i={i}: degraded={a} exact={e} certified={achieved_epsilon}"
        );
    }

    // The effective budget is the min of the two caps.
    let tight = QueryBudget {
        max_work: 10_000,
        deadline_proxy: 64,
    };
    assert_eq!(tight.effective(), 64);
    let o = idx.quantify_within(q, tight).unwrap();
    assert!(o.is_degraded() && o.work() <= 64);

    // Not even one round: typed exhaustion, not a wrong answer.
    assert!(matches!(
        idx.quantify_within(q, QueryBudget::with_work(0)),
        Err(UnnError::BudgetExhausted { .. })
    ));

    // Batched budgeted queries: deterministic across thread counts.
    let mut rng = SmallRng::seed_from_u64(907);
    let qs: Vec<Point> = (0..40)
        .map(|_| Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0)))
        .collect();
    let guarded = |opts: BatchOptions| opts.map(&qs, |q| idx.quantify_guarded(q, budget));
    let reference = guarded(BatchOptions::with_threads(1));
    for threads in [2, 8] {
        let got = guarded(BatchOptions::with_threads(threads));
        assert_eq!(got, reference, "threads = {threads}");
    }
}

// ---------------------------------------------------------------------------
// Dynamic layer: hostile samplers arriving through insert churn.
// ---------------------------------------------------------------------------

#[test]
fn dynamic_insert_faults_never_break_the_engine() {
    use unn::{DynamicPnnConfig, DynamicPnnIndex};

    let config = DynamicPnnConfig {
        mc_rounds: 128,
        ..DynamicPnnConfig::default()
    };
    let mut idx = DynamicPnnIndex::with_config(config.clone()).unwrap();
    let mut oracle = DynamicPnnIndex::with_config(config).unwrap();
    let mut live = Vec::new();
    for p in clean_disks(12, 910) {
        let id = idx.insert(p.clone());
        assert_eq!(oracle.insert(p), id);
        live.push(id);
    }

    // A sampler that panics during the block build: try_insert contains it
    // as a typed error and the index is exactly as it was.
    let hostile = || {
        Uncertain::Chaos(ChaosDistribution::new(
            Uncertain::uniform_disk(Point::new(1.0, -1.0), 1.0),
            ChaosMode::PanicOnSample(3),
        ))
    };
    let len_before = idx.len();
    match idx.try_insert(hostile(), ValidationPolicy::Strict) {
        Err(UnnError::QueryPanicked { message }) => {
            assert!(message.contains("chaos"), "unexpected payload: {message}")
        }
        other => panic!("expected QueryPanicked, got {other:?}"),
    }
    assert_eq!(idx.len(), len_before, "failed insert must not burn a slot");

    // The raw (panicking) insert path: the panic escapes to the caller by
    // design, but the build-before-mutate ordering keeps the engine
    // consistent — the id is not burned and the live set is unchanged.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        idx.insert(hostile());
    }));
    assert!(panicked.is_err(), "raw insert propagates the panic");
    assert_eq!(idx.len(), len_before);

    // Post-fault churn oracle pass: the survivor keeps matching a twin that
    // never saw the hostile point, through further inserts and removes.
    for p in clean_disks(6, 911) {
        let id = idx.insert(p.clone());
        assert_eq!(oracle.insert(p), id, "id streams must stay in lockstep");
        live.push(id);
    }
    for &victim in &[live[1], live[8], live[14]] {
        assert!(idx.remove(victim));
        assert!(oracle.remove(victim));
    }
    let (snap, osnap) = (idx.snapshot(), oracle.snapshot());
    let mut rng = SmallRng::seed_from_u64(912);
    for _ in 0..24 {
        let q = Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0));
        assert_eq!(snap.nn_nonzero(q), osnap.nn_nonzero(q));
        assert_eq!(snap.quantify(q), osnap.quantify(q));
    }

    // Repair-policy inserts on degenerate-but-fixable input still work
    // after the faults: the dynamic boundary matches the static builder's.
    let fixable = Uncertain::Discrete(
        DiscreteDistribution::repair(
            vec![Point::new(2.0, 2.0), Point::new(f64::NAN, 0.0)],
            vec![1.0, 1.0],
        )
        .expect("one finite location survives repair"),
    );
    let id = idx
        .try_insert(fixable.clone(), ValidationPolicy::Repair)
        .expect("repairable point must insert");
    assert!(idx.contains(id));
    let oid = oracle
        .try_insert(fixable, ValidationPolicy::Repair)
        .expect("oracle twin");
    assert_eq!(id, oid);
    let q = Point::new(2.0, 2.0);
    assert_eq!(
        idx.snapshot().nn_nonzero(q),
        oracle.snapshot().nn_nonzero(q)
    );
}
