//! Read-path signature battery: runs every kd-tree / forest query family
//! and serializes every observable output — ids, distance bits, visit
//! sequences, completion flags, fold outputs — into a flat word stream.
//! Two signatures are equal **iff** the two paths were bit-identical on
//! every kernel, which is exactly the claim the differential suites make
//! (batched vs scalar, threaded vs sequential).

use unn_geom::{AabbSoA, Point};
use unn_nonzero::DeltaCompose;
use unn_spatial::{KdConfig, KdForest, KdTree, Neighbor};

use crate::corpus::radii;

/// Layout knobs under test: the shipped defaults, the scan-heavy arena
/// profile, and two degenerate shapes (single-point leaves with a real
/// tree descent, and mid-size leaves with a brute-force crossover) that
/// exercise partial lane batches and the flat-scan path.
pub fn configs() -> [KdConfig; 4] {
    [
        KdConfig::default(),
        KdConfig::scan_heavy(),
        KdConfig {
            leaf_size: 1,
            brute_force_below: 0,
        },
        KdConfig {
            leaf_size: 5,
            brute_force_below: 40,
        },
    ]
}

fn push_neighbor(sig: &mut Vec<u64>, n: Option<Neighbor>) {
    match n {
        Some(n) => {
            sig.push(1);
            sig.push(n.id as u64);
            sig.push(n.dist.to_bits());
        }
        None => sig.push(0),
    }
}

fn push_pair(sig: &mut Vec<u64>, v: Option<(usize, f64)>) {
    match v {
        Some((i, d)) => {
            sig.push(1);
            sig.push(i as u64);
            sig.push(d.to_bits());
        }
        None => sig.push(0),
    }
}

/// Runs the full read-path battery against one tree (nearest, m-nearest,
/// disk reports, capped reports, weighted minima, box minima, prune
/// folds) and serializes every observable output. `scalar` selects the
/// retained scalar-oracle twins of each kernel.
///
/// The one deliberate exception is `prune_with_cap`, whose batched walk is
/// allowed to skip contract-dead points: there the fold *outputs*
/// (`delta_min`, `prune_bound`, `cap_for`) enter the signature — never
/// visit counts.
pub fn kd_signature(
    tree: &KdTree,
    pts: &[Point],
    lo: &[f64],
    boxes: &AabbSoA,
    queries: &[Point],
    scalar: bool,
) -> Vec<u64> {
    let mut sig = Vec::new();
    for &q in queries {
        for init in [f64::INFINITY, 1.5] {
            let n = if scalar {
                tree.nearest_within_scalar(q, init)
            } else {
                tree.nearest_within(q, init)
            };
            push_neighbor(&mut sig, n);
        }
        let mut out: Vec<Neighbor> = Vec::new();
        for m in [1usize, 4, 33] {
            out.clear();
            if scalar {
                tree.m_nearest_into_scalar(q, m, &mut out);
            } else {
                tree.m_nearest_into(q, m, &mut out);
            }
            sig.push(out.len() as u64);
            for n in &out {
                sig.push(n.id as u64);
                sig.push(n.dist.to_bits());
            }
        }
        for r in radii(pts, q) {
            {
                let visit = &mut |i: usize, d: f64| {
                    sig.push(i as u64);
                    sig.push(d.to_bits());
                };
                if scalar {
                    tree.in_disk_scalar(q, r, visit);
                } else {
                    tree.in_disk(q, r, visit);
                }
            }
            sig.push(u64::MAX); // sequence terminator
            for cap in [0usize, 1, 5, usize::MAX] {
                let complete = {
                    let visit = &mut |i: usize, d: f64| {
                        sig.push(i as u64);
                        sig.push(d.to_bits());
                    };
                    if scalar {
                        tree.in_disk_capped_scalar(q, r, cap, visit)
                    } else {
                        tree.in_disk_capped(q, r, cap, visit)
                    }
                };
                sig.push(u64::MAX);
                sig.push(complete as u64);
            }
            {
                let visit = &mut |i: usize, d: f64| {
                    sig.push(i as u64);
                    sig.push(d.to_bits());
                };
                if scalar {
                    tree.report_ball_below_scalar(q, r, visit);
                } else {
                    tree.report_ball_below(q, r, visit);
                }
            }
            sig.push(u64::MAX);
        }
        for init in [f64::INFINITY, 2.0] {
            let v = if scalar {
                tree.min_adjusted_weighted_from_scalar(q, init)
            } else {
                tree.min_adjusted_weighted_from(q, init)
            };
            push_pair(&mut sig, v);
        }
        let two = if scalar {
            tree.min_two_adjusted_weighted_scalar(q)
        } else {
            tree.min_two_adjusted_weighted(q)
        };
        match two {
            Some((i, a, b)) => {
                sig.push(1);
                sig.push(i as u64);
                sig.push(a.to_bits());
                sig.push(b.to_bits());
            }
            None => sig.push(0),
        }
        let bx = if scalar {
            tree.min_adjusted_boxes_scalar(q, boxes)
        } else {
            tree.min_adjusted_boxes(q, boxes)
        };
        push_pair(&mut sig, bx);
        // Two fold starts: the canonical fresh fold under an infinite cap,
        // and a pre-seeded fold whose own prune_bound is the entry cap
        // (the shared-bound idiom from the dynamic read path).
        for preseed in [false, true] {
            let mut fold = DeltaCompose::new();
            if preseed {
                let r = radii(pts, q);
                fold.observe(r[1] + 1.0, u64::MAX);
                fold.observe(r[2] + 1.0, u64::MAX - 1);
            }
            let cap0 = fold.prune_bound();
            let visit = &mut |i: usize| {
                fold.observe(pts[i].dist(q) + lo[i], i as u64);
                fold.prune_bound()
            };
            let fin = if scalar {
                tree.prune_with_cap_scalar(q, cap0, visit)
            } else {
                tree.prune_with_cap(q, cap0, visit)
            };
            sig.push(fin.to_bits());
            sig.push(fold.delta_min().to_bits());
            sig.push(fold.prune_bound().to_bits());
            for id in 0..4u64 {
                sig.push(fold.cap_for(id).to_bits());
            }
        }
    }
    sig
}

/// The forest twin of [`kd_signature`]: nearest and m-nearest across every
/// round of the forest, batched or scalar.
pub fn forest_signature(forest: &KdForest, queries: &[Point], scalar: bool) -> Vec<u64> {
    let mut sig = Vec::new();
    let mut out: Vec<Neighbor> = Vec::new();
    for round in 0..forest.rounds() {
        for &q in queries {
            for init in [f64::INFINITY, 2.0] {
                let n = if scalar {
                    forest.nearest_within_scalar(round, q, init)
                } else {
                    forest.nearest_within(round, q, init)
                };
                push_neighbor(&mut sig, n);
            }
            for m in [1usize, 3] {
                out.clear();
                if scalar {
                    forest.m_nearest_into_scalar(round, q, m, &mut out);
                } else {
                    forest.m_nearest_into(round, q, m, &mut out);
                }
                sig.push(out.len() as u64);
                for n in &out {
                    sig.push(n.id as u64);
                    sig.push(n.dist.to_bits());
                }
            }
        }
    }
    sig
}
