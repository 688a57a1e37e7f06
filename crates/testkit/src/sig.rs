//! Read-path signature battery: runs every kd-tree query family
//! and serializes every observable output — ids, distance bits, visit
//! sequences, completion flags, fold outputs — into a flat word stream.
//! Two signatures are equal **iff** the two runs were bit-identical on
//! every kernel, which is the claim the thread-determinism suites make
//! (concurrent readers vs a sequential one).

use unn_geom::{AabbSoA, Point};
use unn_nonzero::DeltaCompose;
use unn_spatial::{KdConfig, KdTree, Neighbor};

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
/// capped disk reports, ball reports, weighted minima, box minima, prune
/// folds) and serializes every observable output.
///
/// `prune_with_cap` may skip contract-dead points, so its fold *outputs*
/// (`delta_min`, `prune_bound`, `cap_for`) enter the signature — never
/// visit counts.
pub fn kd_signature(
    tree: &KdTree,
    pts: &[Point],
    lo: &[f64],
    boxes: &AabbSoA,
    queries: &[Point],
) -> Vec<u64> {
    let mut sig = Vec::new();
    for &q in queries {
        for init in [f64::INFINITY, 1.5] {
            push_neighbor(&mut sig, tree.nearest_within(q, init));
        }
        let mut out: Vec<Neighbor> = Vec::new();
        for m in [1usize, 4, 33] {
            tree.m_nearest_into(q, m, &mut out);
            sig.push(out.len() as u64);
            for n in &out {
                sig.push(n.id as u64);
                sig.push(n.dist.to_bits());
            }
        }
        for r in radii(pts, q) {
            for cap in [0usize, 1, 5, usize::MAX] {
                let complete = tree.in_disk_capped(q, r, cap, &mut |i, d| {
                    sig.push(i as u64);
                    sig.push(d.to_bits());
                });
                sig.push(u64::MAX); // sequence terminator
                sig.push(complete as u64);
            }
            tree.report_ball_below(q, r, &mut |i, d| {
                sig.push(i as u64);
                sig.push(d.to_bits());
            });
            sig.push(u64::MAX);
        }
        push_pair(&mut sig, tree.min_adjusted_weighted(q));
        match tree.min_two_adjusted_weighted(q) {
            Some((i, a, b)) => {
                sig.push(1);
                sig.push(i as u64);
                sig.push(a.to_bits());
                sig.push(b.to_bits());
            }
            None => sig.push(0),
        }
        push_pair(&mut sig, tree.min_adjusted_boxes(q, boxes));
        for preseed in [false, true] {
            let mut fold = prune_fold_start(pts, q, preseed);
            let cap0 = fold.prune_bound();
            let fin = tree.prune_with_cap(q, cap0, &mut |i: usize| {
                fold.observe(pts[i].dist(q) + lo[i], i as u64);
                fold.prune_bound()
            });
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

/// The two `prune_with_cap` fold starts every battery runs: the canonical
/// fresh fold under an infinite cap, and (`preseed`) a fold already holding
/// two out-of-corpus pairs, so its own `prune_bound` is a finite entry cap
/// (the shared-bound idiom of the dynamic read path).
pub fn prune_fold_start(pts: &[Point], q: Point, preseed: bool) -> DeltaCompose {
    let mut fold = DeltaCompose::new();
    if preseed {
        let r = radii(pts, q);
        fold.observe(r[1] + 1.0, u64::MAX);
        fold.observe(r[2] + 1.0, u64::MAX - 1);
    }
    fold
}
