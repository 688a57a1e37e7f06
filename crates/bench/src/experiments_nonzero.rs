//! Experiments E1–E7: complexity and query performance of the nonzero
//! Voronoi diagram (paper §2–3). Each function regenerates one table of
//! EXPERIMENTS.md.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use unn::geom::{Aabb, Point};
use unn::nonzero::{
    collinear_quadratic, count_distinct, count_distinct_discrete, discrete_nonzero_vertices,
    disjoint_disks, equal_radii_cubic, mixed_radii_cubic, nonzero_vertices, DiskNonzeroIndex,
    NonzeroSubdivision,
};

use crate::util::{loglog_slope, random_disks, random_queries, time_ms, time_per_call_us, Table};

/// E1 / Theorem 2.5: complexity of `𝒱≠0` on random disks is `O(n³)`.
pub fn t1_random_disks(scale: u32) -> Table {
    let mut t = Table::new(
        "T1 (Thm 2.5): V!=0 vertex count, random disks  [paper: O(n^3) worst case]",
        &["n", "vertices", "n^3", "ratio"],
    );
    let ns: &[usize] = if scale >= 2 {
        &[8, 12, 16, 24, 32, 48]
    } else {
        &[8, 12, 16, 24]
    };
    let mut pts = Vec::new();
    for &n in ns {
        let disks = random_disks(n, 40.0, 0.5, 4.0, 1000 + n as u64);
        let verts = nonzero_vertices(&disks, 1e-9);
        let count = count_distinct(&verts, 1e-7);
        pts.push((n as f64, count as f64));
        t.row(vec![
            n.to_string(),
            count.to_string(),
            (n * n * n).to_string(),
            format!("{:.4}", count as f64 / (n * n * n) as f64),
        ]);
    }
    let slope = loglog_slope(&pts);
    t.note(format!(
        "measured growth exponent {slope:.2}; paper bound: <= 3 (random data is typically sub-cubic)"
    ));
    t.note(format!("PASS = exponent <= 3.2: {}", slope <= 3.2));
    t
}

/// E2 / Theorem 2.7: the mixed-radii construction realizes `Ω(n³)`.
pub fn t2_lb_mixed(scale: u32) -> Table {
    let mut t = Table::new(
        "T2 (Thm 2.7): Omega(n^3) lower-bound construction, mixed radii",
        &["m", "n=4m", "predicted 4m^3", "measured", "measured/pred"],
    );
    let ms: &[usize] = if scale >= 2 {
        &[1, 2, 3, 4, 5]
    } else {
        &[1, 2, 3]
    };
    let mut pts = Vec::new();
    let mut all_pass = true;
    for &m in ms {
        let inst = mixed_radii_cubic(m);
        let verts = nonzero_vertices(&inst.disks, 1e-9);
        let count = count_distinct(&verts, inst.snap);
        all_pass &= count >= inst.predicted_vertices;
        pts.push((4.0 * m as f64, count as f64));
        t.row(vec![
            m.to_string(),
            (4 * m).to_string(),
            inst.predicted_vertices.to_string(),
            count.to_string(),
            format!("{:.2}", count as f64 / inst.predicted_vertices as f64),
        ]);
    }
    t.note(format!(
        "growth exponent {:.2} (cubic predicted)",
        loglog_slope(&pts)
    ));
    t.note(format!(
        "PASS = measured >= predicted everywhere: {all_pass}"
    ));
    t
}

/// E3 / Theorem 2.8: `Ω(n³)` with unit disks only.
pub fn t3_lb_equal(scale: u32) -> Table {
    let mut t = Table::new(
        "T3 (Thm 2.8): Omega(n^3) lower-bound construction, equal radii",
        &["m", "n=3m", "predicted m^3", "measured", "measured/pred"],
    );
    let ms: &[usize] = if scale >= 2 {
        &[2, 3, 4, 5, 6]
    } else {
        &[2, 3, 4]
    };
    let mut pts = Vec::new();
    let mut all_pass = true;
    for &m in ms {
        let inst = equal_radii_cubic(m);
        let verts = nonzero_vertices(&inst.disks, 1e-9);
        let count = count_distinct(&verts, inst.snap);
        all_pass &= count >= inst.predicted_vertices;
        pts.push((3.0 * m as f64, count as f64));
        t.row(vec![
            m.to_string(),
            (3 * m).to_string(),
            inst.predicted_vertices.to_string(),
            count.to_string(),
            format!("{:.2}", count as f64 / inst.predicted_vertices as f64),
        ]);
    }
    t.note(format!(
        "growth exponent {:.2} (cubic predicted)",
        loglog_slope(&pts)
    ));
    t.note(format!(
        "PASS = measured >= predicted everywhere: {all_pass}"
    ));
    t
}

/// E4 / Theorem 2.10 + Lemma 2.9: disjoint disks give `O(λn²)`, and the
/// collinear construction realizes `Ω(n²)`.
pub fn t4_disjoint(scale: u32) -> Table {
    let mut t = Table::new(
        "T4 (Thm 2.10 / Lemma 2.9): disjoint disks  [paper: O(lambda n^2), Omega(n^2)]",
        &["workload", "n", "lambda", "vertices"],
    );
    let mut rng = SmallRng::seed_from_u64(2000);
    // (a) growth in n at fixed lambda.
    let ns: &[usize] = if scale >= 2 {
        &[8, 16, 32, 48, 64]
    } else {
        &[8, 16, 32]
    };
    let mut pts_n = Vec::new();
    for &n in ns {
        let disks = disjoint_disks(n, 2.0, &mut rng);
        let count = count_distinct(&nonzero_vertices(&disks, 1e-9), 1e-7);
        pts_n.push((n as f64, count as f64));
        t.row(vec![
            "n-sweep".into(),
            n.to_string(),
            "2".into(),
            count.to_string(),
        ]);
    }
    // (b) growth in lambda at fixed n.
    let lambdas: &[f64] = if scale >= 2 {
        &[1.001, 2.0, 4.0, 8.0, 16.0]
    } else {
        &[1.001, 2.0, 4.0]
    };
    let n_fixed = if scale >= 2 { 32 } else { 16 };
    let mut pts_l = Vec::new();
    for &l in lambdas {
        let disks = disjoint_disks(n_fixed, l, &mut rng);
        let count = count_distinct(&nonzero_vertices(&disks, 1e-9), 1e-7);
        pts_l.push((l, count as f64));
        t.row(vec![
            "lambda-sweep".into(),
            n_fixed.to_string(),
            format!("{l:.1}"),
            count.to_string(),
        ]);
    }
    // (c) the explicit Omega(n^2) construction.
    for m in [3usize, 5, 8] {
        let inst = collinear_quadratic(m);
        let count = count_distinct(&nonzero_vertices(&inst.disks, 1e-9), inst.snap);
        t.row(vec![
            "collinear-LB".into(),
            (2 * m).to_string(),
            "1.0".into(),
            format!("{count} (predicted >= {})", inst.predicted_vertices),
        ]);
    }
    let slope_n = loglog_slope(&pts_n);
    // The O(lambda n^2) claim is an upper bound; on random disjoint data the
    // realized count need not grow with lambda (bigger disks also spread over
    // a bigger board). Check the bound itself with a small constant.
    let lambda_bound_ok = pts_l
        .iter()
        .all(|&(l, c)| c <= 4.0 * l.max(1.0) * (n_fixed * n_fixed) as f64);
    t.note(format!(
        "n-exponent {slope_n:.2} (paper upper bound: 2); all lambda rows within 4*lambda*n^2: {lambda_bound_ok}"
    ));
    t.note(format!(
        "PASS = n-exponent <= 2.5 and lambda bound holds: {}",
        slope_n <= 2.5 && lambda_bound_ok
    ));
    t
}

/// E5 / Theorem 2.14: discrete distributions give `O(kn³)`.
pub fn t5_discrete(scale: u32) -> Table {
    let mut t = Table::new(
        "T5 (Thm 2.14): discrete-case V!=0 vertices  [paper: O(k n^3)]",
        &["n", "k", "vertices"],
    );
    let universe = Aabb::new(Point::new(-200.0, -200.0), Point::new(300.0, 300.0));
    let ns: &[usize] = if scale >= 2 {
        &[4, 6, 8, 12]
    } else {
        &[4, 6, 8]
    };
    let ks: &[usize] = if scale >= 2 {
        &[1, 2, 4, 6]
    } else {
        &[1, 2, 4]
    };
    let mut pts_n = Vec::new();
    let mut pts_k = Vec::new();
    for &n in ns {
        let objs: Vec<Vec<Point>> =
            crate::util::random_discrete(n, 3, 60.0, 4.0, 1.0, 3000 + n as u64)
                .iter()
                .map(|d| d.points().to_vec())
                .collect();
        let count =
            count_distinct_discrete(&discrete_nonzero_vertices(&objs, &universe, 1e-9), 1e-7);
        pts_n.push((n as f64, count as f64));
        t.row(vec![n.to_string(), "3".into(), count.to_string()]);
    }
    for &k in ks {
        let objs: Vec<Vec<Point>> =
            crate::util::random_discrete(6, k, 60.0, 4.0, 1.0, 4000 + k as u64)
                .iter()
                .map(|d| d.points().to_vec())
                .collect();
        let count =
            count_distinct_discrete(&discrete_nonzero_vertices(&objs, &universe, 1e-9), 1e-7);
        pts_k.push((k as f64, count as f64));
        t.row(vec!["6".into(), k.to_string(), count.to_string()]);
    }
    t.note(format!(
        "n-exponent {:.2} (paper: <= 3), k-exponent {:.2} (paper: ~1 for the extra factor)",
        loglog_slope(&pts_n),
        loglog_slope(&pts_k)
    ));
    t.note(format!(
        "PASS = n-exponent <= 3.3 and k growth non-decreasing: {}",
        loglog_slope(&pts_n) <= 3.3 && pts_k.last().expect("nonempty").1 >= pts_k[0].1
    ));
    t
}

/// E6 / Theorems 2.5, 2.11: construction time of the subdivision scales
/// near `O(n² log n + μ)`.
pub fn t6_construction(scale: u32) -> Table {
    let mut t = Table::new(
        "T6 (Thm 2.5/2.11): construction cost  [paper: O(n^2 log n + mu) expected]",
        &["n", "enum ms", "subdivision ms", "mu (verts)"],
    );
    let ns: &[usize] = if scale >= 2 {
        &[8, 16, 32, 48, 64]
    } else {
        &[8, 16, 24]
    };
    let bbox = Aabb::new(Point::new(-10.0, -10.0), Point::new(50.0, 50.0));
    let mut enum_pts = Vec::new();
    for &n in ns {
        let disks = random_disks(n, 40.0, 0.5, 3.0, 5000 + n as u64);
        let (verts, enum_ms) = time_ms(|| nonzero_vertices(&disks, 1e-9));
        let mu = count_distinct(&verts, 1e-7);
        let (_, sub_ms) = time_ms(|| NonzeroSubdivision::build(&disks, bbox, 5e-3));
        enum_pts.push((n as f64, enum_ms.max(1e-3)));
        t.row(vec![
            n.to_string(),
            format!("{enum_ms:.1}"),
            format!("{sub_ms:.1}"),
            mu.to_string(),
        ]);
    }
    t.note(format!(
        "vertex-enumeration time exponent {:.2} (O(n^3 log n) implementation of the O(n^2 log n + mu) bound)",
        loglog_slope(&enum_pts)
    ));
    t
}

/// E7 / Theorems 2.11, 3.1: `NN≠0` query time — subdivision point location
/// vs two-stage structure vs naive scan.
pub fn t7_queries(scale: u32) -> Table {
    let mut t = Table::new(
        "T7 (Thm 2.11/3.1): NN!=0 query time  [paper: O(log n + t) vs naive O(n)]",
        &["n", "two-stage us", "naive us", "speedup", "mean |t|"],
    );
    let ns: &[usize] = if scale >= 2 {
        &[100, 1_000, 10_000, 100_000]
    } else {
        &[100, 1_000, 10_000]
    };
    for &n in ns {
        // Constant density: side grows with sqrt(n) so output size t stays
        // O(1) and the query-time scaling is visible.
        let side = (n as f64).sqrt() * 4.0;
        let disks = random_disks(n, side, 0.5, 2.0, 6000 + n as u64);
        let idx = DiskNonzeroIndex::new(&disks);
        let queries = random_queries(200, side, 6001 + n as u64);
        let mut qi = 0usize;
        let two_stage = time_per_call_us(200, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            idx.query(q)
        });
        let mut qi = 0usize;
        let reps_naive = if n >= 100_000 { 50 } else { 200 };
        let naive = time_per_call_us(reps_naive, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            idx.query_naive(q)
        });
        let mean_t: f64 = queries
            .iter()
            .take(100)
            .map(|&q| idx.query(q).len() as f64)
            .sum::<f64>()
            / 100.0;
        t.row(vec![
            n.to_string(),
            format!("{two_stage:.1}"),
            format!("{naive:.1}"),
            format!("{:.1}x", naive / two_stage),
            format!("{mean_t:.1}"),
        ]);
    }
    // Subdivision point location at small n.
    let disks = random_disks(24, 40.0, 0.5, 2.0, 6100);
    let bbox = Aabb::new(Point::new(-10.0, -10.0), Point::new(50.0, 50.0));
    let sub = NonzeroSubdivision::build(&disks, bbox, 5e-3);
    let queries = random_queries(200, 40.0, 6101);
    let mut qi = 0usize;
    let loc_us = time_per_call_us(200, || {
        let q = queries[qi % queries.len()];
        qi += 1;
        sub.query(q)
    });
    t.note(format!(
        "subdivision point location at n=24: {loc_us:.1} us/query (Thm 2.11 structure; simpler but heavier than two-stage)"
    ));
    t.note("PASS = two-stage beats naive at the largest n (see speedup column)");
    t
}

/// T15: the extension structures — guaranteed Voronoi (`[SE08]`), `L∞`
/// queries (§3 remark (ii)), the Apollonius diagram `𝕄`, probabilistic
/// k-NN membership, and (E16) the part-I expected-distance NN and its
/// certified Voronoi diagram.
pub fn t15_extensions(scale: u32) -> Table {
    use crate::util::{as_uncertain, random_discrete};
    use unn::geom::Disk;
    use unn::nonzero::{ApolloniusDiagram, GuaranteedNnIndex, LinfNonzeroIndex};
    use unn::{ExpectedNnIndex, ExpectedVoronoi};
    let mut t = Table::new(
        "T15: extensions — guaranteed NN, L-infinity, Apollonius, kNN membership, expected-distance NN",
        &["structure", "n", "metric / param", "result"],
    );
    let ns: &[usize] = if scale >= 2 {
        &[1_000, 10_000]
    } else {
        &[1_000]
    };
    for &n in ns {
        let side = (n as f64).sqrt() * 4.0;
        let disks = random_disks(n, side, 0.3, 1.5, 8000 + n as u64);
        let queries = random_queries(300, side, 8001 + n as u64);

        // Guaranteed NN: hit rate and query time.
        let g = GuaranteedNnIndex::new(&disks);
        let hits = queries
            .iter()
            .filter(|&&q| g.guaranteed_nn(q).is_some())
            .count();
        let mut qi = 0usize;
        let gus = time_per_call_us(300, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            g.guaranteed_nn(q)
        });
        t.row(vec![
            "guaranteed NN".into(),
            n.to_string(),
            "L2".into(),
            format!(
                "{:.0}% guaranteed, {gus:.1} us/query",
                100.0 * hits as f64 / queries.len() as f64
            ),
        ]);

        // L-infinity two-stage queries over bounding boxes.
        let rects: Vec<unn::geom::Aabb> = disks
            .iter()
            .map(|d| {
                unn::geom::Aabb::new(
                    Point::new(d.center.x - d.radius, d.center.y - d.radius),
                    Point::new(d.center.x + d.radius, d.center.y + d.radius),
                )
            })
            .collect();
        let linf = LinfNonzeroIndex::new(&rects);
        let mut qi = 0usize;
        let lus = time_per_call_us(300, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            linf.query(q)
        });
        let mean_t: f64 = queries
            .iter()
            .take(100)
            .map(|&q| linf.query(q).len() as f64)
            .sum::<f64>()
            / 100.0;
        t.row(vec![
            "NN!=0 two-stage".into(),
            n.to_string(),
            "L-infinity".into(),
            format!("{lus:.1} us/query, mean |t| = {mean_t:.1}"),
        ]);
    }

    // Apollonius diagram complexity: linear growth check.
    let mut pts = Vec::new();
    for &n in &[32usize, 64, 128, 256] {
        let disks = random_disks(n, 60.0, 0.2, 2.0, 8100 + n as u64);
        let ap = ApolloniusDiagram::build(&disks);
        pts.push((n as f64, ap.total_arcs() as f64));
        t.row(vec![
            "Apollonius M".into(),
            n.to_string(),
            "-".into(),
            format!("{} envelope arcs", ap.total_arcs()),
        ]);
    }
    t.note(format!(
        "Apollonius arc-count growth exponent {:.2} ([AB86]: diagram complexity O(n))",
        loglog_slope(&pts)
    ));

    // kNN membership sums to k (exact DP).
    let objs = random_discrete(12, 3, 40.0, 3.0, 2.0, 8200);
    let q = Point::new(20.0, 20.0);
    let sums: Vec<String> = (1..=4)
        .map(|k| {
            let pi = unn::quantify::knn_membership_exact(&objs, q, k);
            format!("k={k}: {:.6}", pi.iter().sum::<f64>())
        })
        .collect();
    t.row(vec![
        "kNN membership sum (= k)".into(),
        "12".into(),
        "exact DP".into(),
        sums.join(", "),
    ]);

    // E16, the part-I expected-distance structures: branch-and-bound NN
    // against the linear scan, then the certified expected Voronoi diagram.
    let expected_workload = |n: usize, seed: u64| {
        let side = (n as f64).sqrt() * 6.0;
        let points = as_uncertain(&random_discrete(n, 4, side, 2.0, 2.0, seed));
        (points, side)
    };
    for &n in ns {
        let (points, side) = expected_workload(n, 80 + n as u64);
        let idx = ExpectedNnIndex::build(&points);
        let queries = random_queries(128, side, 81 + n as u64);
        let agree = queries
            .iter()
            .filter(|&&q| idx.expected_nn(q) == idx.expected_nn_naive(q))
            .count();
        let mut qi = 0usize;
        let bb_us = time_per_call_us(300, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            idx.expected_nn(q)
        });
        let mut qi = 0usize;
        let naive_us = time_per_call_us(300, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            idx.expected_nn_naive(q)
        });
        t.row(vec![
            "expected-distance NN".into(),
            n.to_string(),
            "branch&bound vs naive".into(),
            format!(
                "{bb_us:.2} vs {naive_us:.1} us/query ({:.0}x), {agree}/{} agree",
                naive_us / bb_us,
                queries.len()
            ),
        ]);
    }
    let (points, side) = expected_workload(200, 90);
    let bbox = Aabb::new(Point::new(0.0, 0.0), Point::new(side, side));
    let (evd, build_ms) = time_ms(|| ExpectedVoronoi::build(&points, bbox, side / 256.0));
    let idx = ExpectedNnIndex::build(&points);
    let queries = random_queries(128, side, 91);
    let agree = queries
        .iter()
        .filter(|&&q| idx.expected_nn(q) == Some(evd.query(q)))
        .count();
    let mut qi = 0usize;
    let evd_us = time_per_call_us(300, || {
        let q = queries[qi % queries.len()];
        qi += 1;
        evd.query(q)
    });
    t.row(vec![
        "expected Voronoi (certified)".into(),
        "200".into(),
        "resolution side/256".into(),
        format!(
            "build {build_ms:.0} ms, {evd_us:.2} us/query, {:.1}% certified, {agree}/{} agree",
            100.0 * evd.certified_fraction(),
            queries.len()
        ),
    ]);
    let _ = Disk::new(Point::ORIGIN, 1.0);
    t
}
