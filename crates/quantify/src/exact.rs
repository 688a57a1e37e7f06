//! Exact quantification probabilities for discrete distributions (Eq. 2).
//!
//! For a query `q`, the probability that `P_i` is the nearest neighbor is
//!
//! ```text
//!   π_i(q) = Σ_{p_ia ∈ P_i} w_ia · Π_{j≠i} (1 - G_{q,j}(d(p_ia, q)))
//! ```
//!
//! Evaluated by one sweep over all `N = nk` locations in increasing distance
//! from `q`: the factors `1 - G_{q,j}` only change at location distances, so
//! a running product (maintained in log space with structural-zero counting,
//! see [`quantification_exact`]) yields all `π_i(q)` in `O(N log N)` time.
//! Ties in distance are processed as groups: Eq. 2's cdf `G_{q,j}(r)` counts
//! locations at distance *equal* to `r`, so a tie group first updates every
//! factor, then credits every member.
//!
//! [`quantification_exact_recompute`] is the `O(N·n)` reference that
//! recomputes each product from scratch — the numeric oracle for tests and
//! the E14 ablation.

use unn_distr::{DiscreteDistribution, UncertainPoint};
use unn_geom::Point;

/// All quantification probabilities `π_i(q)`, exactly (up to f64 rounding).
///
/// Returns one probability per object, in input order; they sum to 1.
pub fn quantification_exact(objects: &[DiscreteDistribution], q: Point) -> Vec<f64> {
    let n = objects.len();
    let mut pi = vec![0.0; n];
    if n == 0 {
        return pi;
    }
    // (distance, object, weight), sorted by distance.
    let mut locs: Vec<(f64, u32, f64)> = Vec::new();
    for (j, obj) in objects.iter().enumerate() {
        for (p, w) in obj.points().iter().zip(obj.weights()) {
            locs.push((p.dist(q), j as u32, *w));
        }
    }
    locs.sort_by(|a, b| a.0.total_cmp(&b.0));
    unn_observe::exact_touches(locs.len() as u64);

    // Running factors rem[j] = 1 - G_{q,j}(current distance).
    let mut rem = vec![1.0; n];
    // Remaining (unconsumed) locations per object.
    let mut left = vec![0usize; n];
    for &(_, j, _) in &locs {
        left[j as usize] += 1;
    }
    // Product over j of rem[j], as (sum of logs of nonzero rem, zero count).
    let mut log_p = 0.0f64;
    let mut zeros = 0usize;

    let len = locs.len();
    let mut idx = 0;
    while idx < len {
        let d = locs[idx].0;
        let mut end = idx;
        while end < len && locs[end].0 == d {
            end += 1;
        }
        // Phase 1: fold the whole tie group into the cdfs.
        for &(_, j, w) in &locs[idx..end] {
            let j = j as usize;
            let old = rem[j];
            left[j] -= 1;
            let new = if left[j] == 0 {
                0.0
            } else {
                (old - w).max(0.0)
            };
            if old > 0.0 {
                log_p -= old.ln();
            } else {
                zeros -= 1;
            }
            if new > 0.0 {
                log_p += new.ln();
            } else {
                zeros += 1;
            }
            rem[j] = new;
        }
        // Phase 2: credit every member of the group with
        // w · Π_{l≠j} rem[l].
        for &(_, j, w) in &locs[idx..end] {
            let j = j as usize;
            let contrib = if rem[j] > 0.0 {
                if zeros == 0 {
                    (log_p - rem[j].ln()).exp()
                } else {
                    0.0
                }
            } else if zeros == 1 {
                log_p.exp()
            } else {
                0.0
            };
            pi[j] += w * contrib;
        }
        idx = end;
    }
    pi
}

/// Reference implementation recomputing each product from scratch
/// (`O(N·n)`): the oracle for the sweep above.
pub fn quantification_exact_recompute(objects: &[DiscreteDistribution], q: Point) -> Vec<f64> {
    let n = objects.len();
    let mut pi = vec![0.0; n];
    for (i, obj) in objects.iter().enumerate() {
        for (p, w) in obj.points().iter().zip(obj.weights()) {
            let r = p.dist(q);
            let mut prod = 1.0;
            for (j, other) in objects.iter().enumerate() {
                if j == i {
                    continue;
                }
                prod *= 1.0 - other.distance_cdf(q, r);
                if prod == 0.0 {
                    break;
                }
            }
            pi[i] += w * prod;
        }
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn obj(pts: &[(f64, f64)], ws: &[f64]) -> DiscreteDistribution {
        DiscreteDistribution::new(
            pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            ws.to_vec(),
        )
        .unwrap()
    }

    fn random_objects(n: usize, k: usize, seed: u64) -> Vec<DiscreteDistribution> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cx: f64 = rng.random_range(-20.0..20.0);
                let cy: f64 = rng.random_range(-20.0..20.0);
                let pts: Vec<Point> = (0..k)
                    .map(|_| {
                        Point::new(
                            cx + rng.random_range(-3.0..3.0),
                            cy + rng.random_range(-3.0..3.0),
                        )
                    })
                    .collect();
                let ws: Vec<f64> = (0..k).map(|_| rng.random_range(0.1..5.0)).collect();
                DiscreteDistribution::new(pts, ws).unwrap()
            })
            .collect()
    }

    #[test]
    fn two_certain_points() {
        let objs = vec![obj(&[(0.0, 0.0)], &[1.0]), obj(&[(10.0, 0.0)], &[1.0])];
        let pi = quantification_exact(&objs, Point::new(1.0, 0.0));
        assert!((pi[0] - 1.0).abs() < 1e-12);
        assert!(pi[1].abs() < 1e-12);
    }

    #[test]
    fn coin_flip_objects() {
        // Two objects, each 50/50 between a near and a far location,
        // symmetric around q: P(A nearer) = w_near,A * (prob B not nearer) …
        // enumerate by hand: A at d=1 (0.5) or d=3 (0.5); B at d=2 (0.5) or
        // d=4 (0.5). P(A NN): A=1: B always farther: 0.5. A=3: B=4 case:
        // 0.5*0.5 = 0.25. Total 0.75; B gets 0.25.
        let objs = vec![
            obj(&[(1.0, 0.0), (3.0, 0.0)], &[0.5, 0.5]),
            obj(&[(2.0, 0.0), (4.0, 0.0)], &[0.5, 0.5]),
        ];
        let pi = quantification_exact(&objs, Point::new(0.0, 0.0));
        assert!((pi[0] - 0.75).abs() < 1e-12, "{pi:?}");
        assert!((pi[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ties_are_counted_le() {
        // Two certain points at the same distance: Eq. 2 uses
        // G(d) with <=, so each sees the other as "already there":
        // both get w * (1 - 1) = 0. The paper's convention makes
        // exact ties contribute zero mass to both (a measure-zero event for
        // continuous data; degenerate by construction here).
        let objs = vec![obj(&[(1.0, 0.0)], &[1.0]), obj(&[(-1.0, 0.0)], &[1.0])];
        let pi = quantification_exact(&objs, Point::new(0.0, 0.0));
        assert_eq!(pi, vec![0.0, 0.0]);
    }

    #[test]
    fn sweep_matches_recompute_oracle() {
        for seed in 120..125 {
            let objs = random_objects(8, 4, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 1000);
            for _ in 0..20 {
                let q = Point::new(rng.random_range(-30.0..30.0), rng.random_range(-30.0..30.0));
                let a = quantification_exact(&objs, q);
                let b = quantification_exact_recompute(&objs, q);
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-10, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let objs = random_objects(10, 5, 130);
        let mut rng = SmallRng::seed_from_u64(131);
        for _ in 0..50 {
            let q = Point::new(rng.random_range(-30.0..30.0), rng.random_range(-30.0..30.0));
            let pi = quantification_exact(&objs, q);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
            assert!(pi.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn matches_monte_carlo_simulation() {
        let objs = random_objects(5, 3, 132);
        let q = Point::new(0.0, 0.0);
        let pi = quantification_exact(&objs, q);
        // Simulate.
        use unn_distr::UncertainPoint;
        let mut rng = SmallRng::seed_from_u64(133);
        let trials = 200_000;
        let mut wins = vec![0u32; objs.len()];
        for _ in 0..trials {
            let mut best = (0usize, f64::INFINITY);
            for (i, o) in objs.iter().enumerate() {
                let d = o.sample(&mut rng).dist(q);
                if d < best.1 {
                    best = (i, d);
                }
            }
            wins[best.0] += 1;
        }
        for (i, &w) in wins.iter().enumerate() {
            let freq = w as f64 / trials as f64;
            assert!(
                (freq - pi[i]).abs() < 0.005,
                "i={i}: sim {freq} vs exact {}",
                pi[i]
            );
        }
    }

    #[test]
    fn vpr_lower_bound_probabilities() {
        // Lemma 4.1's construction: P_i has a near location p_i and a far
        // location p'_i ≈ (100, 0), each with probability 1/2. The paper
        // states the degenerate (all p'_i coincident) configuration; here
        // the far points are perturbed into general position, for which
        // Eq. 2 gives exactly π_i(q) = 0.5^{r+1} for the near rank r, plus
        // 0.5^n for the single object whose far location is closest.
        let n = 5;
        let mut objs = Vec::new();
        for i in 0..n {
            let angle = i as f64;
            objs.push(obj(
                &[
                    (
                        0.3 * angle.cos() * (1.0 + 0.1 * i as f64),
                        0.3 * angle.sin() * (1.0 + 0.1 * i as f64),
                    ),
                    (100.0 + 0.01 * i as f64, 0.0),
                ],
                &[0.5, 0.5],
            ));
        }
        let q = Point::new(0.01, 0.02);
        let pi = quantification_exact(&objs, q);
        // Rank the near locations by distance to q.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objs[a].points()[0]
                .dist(q)
                .total_cmp(&objs[b].points()[0].dist(q))
        });
        for (r, &i) in order.iter().enumerate() {
            let far_bonus = if i == 0 { 0.5f64.powi(n as i32) } else { 0.0 };
            let want = 0.5f64.powi(r as i32 + 1) + far_bonus;
            assert!(
                (pi[i] - want).abs() < 1e-12,
                "rank {r}: pi = {}, want {want}",
                pi[i]
            );
        }
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_sweep_equals_oracle(
            seed in 0u64..10_000, qx in -30.0f64..30.0, qy in -30.0f64..30.0,
        ) {
            let objs = random_objects(6, 3, seed);
            let q = Point::new(qx, qy);
            let a = quantification_exact(&objs, q);
            let b = quantification_exact_recompute(&objs, q);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-10);
            }
        }
    }
}
