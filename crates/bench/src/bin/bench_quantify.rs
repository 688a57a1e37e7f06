//! Timing harness for the quantification fast path; writes
//! `BENCH_quantify.json` (median ns/query per variant) at the repo root.
//!
//! ```sh
//! cargo run -p unn-bench --release --bin bench_quantify
//! ```
//!
//! Variants at each `n`:
//!
//! * `arena_pruned`    — arena forest, Δ(q)-seeded descents (the default,
//!   batched SoA kernels);
//! * `arena_unpruned`  — arena forest, `f64::INFINITY` seed (one descent
//!   per round); its `π̂` must equal the pruned path's bit for bit on every
//!   bench query;
//! * `perround_trees`  — legacy layout: one kd-tree allocation per round;
//! * `adaptive`        — early-stopped estimate at (ε = 0.05, δ = 0.01),
//!   with the mean fraction of the `s` budget it consumed.
//!
//! Two layout sweeps record the cost surface behind the `KdConfig`
//! constants (EXPERIMENTS.md T20); no default follows their argmin, which
//! moves between runs:
//!
//! * `leaf_sweep` — global-ball fold latency by leaf size at `n = 4096`;
//! * `bf_crossover` — flat batched scan vs default tree descent on small
//!   inputs.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::distr::UncertainPoint;
use unn::geom::Point;
use unn::quantify::{McBackend, MonteCarloIndex};
use unn::spatial::{KdConfig, KdTree};
use unn_bench::util::{as_uncertain, random_discrete, random_queries};

const S: usize = 512;
const REPS: usize = 9;

/// Median ns/query of `f` run over the query set, `REPS` repetitions.
fn median_ns_per_query(queries: &[Point], mut f: impl FnMut(Point)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for &q in queries {
                f(q);
            }
            start.elapsed().as_secs_f64() * 1e9 / queries.len() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct SizeResult {
    n: usize,
    arena_pruned: f64,
    arena_unpruned: f64,
    perround_trees: f64,
    adaptive: f64,
    adaptive_rounds_frac: f64,
}

fn run_size(n: usize) -> SizeResult {
    let side = (n as f64).sqrt() * 8.0;
    let objs = random_discrete(n, 3, side, 3.0, 2.0, 70 + n as u64);
    let points = as_uncertain(&objs);
    let queries = random_queries(128, side, 71 + n as u64);
    let mut rng = SmallRng::seed_from_u64(72);
    let mc = MonteCarloIndex::build(&points, S, McBackend::KdTree, &mut rng);
    let mut rng = SmallRng::seed_from_u64(72);
    let per_round: Vec<KdTree> = (0..S)
        .map(|_| {
            let inst: Vec<Point> = points.iter().map(|p| p.sample(&mut rng)).collect();
            KdTree::new(&inst)
        })
        .collect();

    let mut buf = Vec::new();
    let arena_pruned = median_ns_per_query(&queries, |q| {
        mc.query_into(q, &mut buf);
        std::hint::black_box(buf.len());
    });
    let arena_unpruned = median_ns_per_query(&queries, |q| {
        mc.query_into_seeded(q, f64::INFINITY, &mut buf);
        std::hint::black_box(buf.len());
    });
    // Differential check rides along with the timing: Δ(q) pruning must
    // not change the estimate on any bench query.
    let mut unpruned_buf = Vec::new();
    for &q in &queries {
        mc.query_into(q, &mut buf);
        mc.query_into_seeded(q, f64::INFINITY, &mut unpruned_buf);
        assert!(
            buf.iter()
                .zip(&unpruned_buf)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && buf.len() == unpruned_buf.len(),
            "pruned estimate diverged from the unpruned one at n={n}, q={q:?}"
        );
    }
    let perround_trees = median_ns_per_query(&queries, |q| {
        buf.clear();
        buf.resize(n, 0.0);
        for t in &per_round {
            buf[t.nearest(q).expect("nonempty").id] += 1.0;
        }
        let w = 1.0 / S as f64;
        for v in buf.iter_mut() {
            *v *= w;
        }
        std::hint::black_box(buf.len());
    });
    let mut rounds_total = 0usize;
    let adaptive = median_ns_per_query(&queries, |q| {
        std::hint::black_box(mc.quantify_adaptive(q, 0.05, 0.01).rounds_used);
    });
    for &q in &queries {
        rounds_total += mc.quantify_adaptive(q, 0.05, 0.01).rounds_used;
    }
    SizeResult {
        n,
        arena_pruned,
        arena_unpruned,
        perround_trees,
        adaptive,
        adaptive_rounds_frac: rounds_total as f64 / (queries.len() * S) as f64,
    }
}

/// Global-ball fold latency by leaf size at `n = 4096`: rebuilds the
/// `s·n`-sample global tree under each candidate `leaf_size` and times the
/// Δ(q)-seeded capped ball fold (the winners_into hot loop).
fn run_leaf_sweep() -> Vec<(usize, f64)> {
    let n = 4096usize;
    let side = (n as f64).sqrt() * 8.0;
    let objs = random_discrete(n, 3, side, 3.0, 2.0, 70 + n as u64);
    let points = as_uncertain(&objs);
    let queries = random_queries(128, side, 71 + n as u64);
    let mut rng = SmallRng::seed_from_u64(72);
    let mc = MonteCarloIndex::build(&points, S, McBackend::KdTree, &mut rng);
    // Reconstruct the same s·n instantiation arena the index built (same
    // seed, same draw order).
    let mut rng = SmallRng::seed_from_u64(72);
    let mut all: Vec<Point> = Vec::with_capacity(S * n);
    for _ in 0..S {
        all.extend(points.iter().map(|p| p.sample(&mut rng)));
    }
    let seeds: Vec<f64> = queries
        .iter()
        .map(|&q| mc.prune_radius(q) * (1.0 + 1e-12))
        .collect();
    let mut sweep = Vec::new();
    for leaf in [8usize, 16, 32, 64, 128, 256, 512] {
        let tree = KdTree::with_config(
            &all,
            KdConfig {
                leaf_size: leaf,
                brute_force_below: leaf,
            },
        );
        let mut best: Vec<(f64, u32)> = Vec::new();
        let mut qi = 0usize;
        // Same magic-multiply round/object split as the real fold.
        let magic = u64::MAX / n as u64 + 1;
        let ns = median_ns_per_query(&queries, |q| {
            best.clear();
            best.resize(S, (f64::INFINITY, u32::MAX));
            let seed = seeds[qi % queries.len()];
            qi += 1;
            let complete = tree.in_disk_capped(q, seed, 32 * S, &mut |pos, d| {
                let r = ((pos as u128 * magic as u128) >> 64) as usize;
                let obj = (pos - r * n) as u32;
                let e = &mut best[r];
                if d < e.0 || (d == e.0 && obj < e.1) {
                    *e = (d, obj);
                }
            });
            std::hint::black_box(complete);
        });
        sweep.push((leaf, ns));
    }
    sweep
}

/// Brute-force crossover: `nearest` latency of the default tree descent vs
/// a single flat batched leaf, by input size.
fn run_bf_crossover() -> Vec<(usize, f64, f64)> {
    let mut rows = Vec::new();
    for n in [8usize, 16, 32, 64, 128, 256] {
        let side = 200.0;
        let mut rng = SmallRng::seed_from_u64(700 + n as u64);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
            .collect();
        let queries = random_queries(256, side, 701 + n as u64);
        let tree = KdTree::new(&pts);
        let flat = KdTree::with_config(
            &pts,
            KdConfig {
                leaf_size: n,
                brute_force_below: n,
            },
        );
        let tree_ns = median_ns_per_query(&queries, |q| {
            std::hint::black_box(tree.nearest(q).map(|nb| nb.id));
        });
        let flat_ns = median_ns_per_query(&queries, |q| {
            std::hint::black_box(flat.nearest(q).map(|nb| nb.id));
        });
        rows.push((n, tree_ns, flat_ns));
    }
    rows
}

/// Adaptive stopping on a well-separated instance (one object wins every
/// round): fraction of a `s = 4000` budget the stopper actually consumes at
/// (ε = 0.05, δ = 0.01), and the mean certified half-width.
fn run_separated() -> (usize, f64, f64) {
    let s = 4000usize;
    let points: Vec<unn::Uncertain> = (0..64)
        .map(|i| unn::Uncertain::uniform_disk(Point::new(1000.0 * i as f64, 0.0), 0.5))
        .collect();
    let mut rng = SmallRng::seed_from_u64(80);
    let mc = MonteCarloIndex::build(&points, s, McBackend::KdTree, &mut rng);
    let queries: Vec<Point> = (0..32)
        .map(|i| Point::new(1000.0 * (i % 64) as f64 + 3.0, -2.0))
        .collect();
    let (mut rounds_total, mut hw_total) = (0usize, 0.0f64);
    for &q in &queries {
        let a = mc.quantify_adaptive(q, 0.05, 0.01);
        rounds_total += a.rounds_used;
        hw_total += a.half_width;
    }
    (
        s,
        rounds_total as f64 / (queries.len() * s) as f64,
        hw_total / queries.len() as f64,
    )
}

fn main() {
    let mut out = String::from("{\n  \"bench\": \"quantify_fast_path\",\n");
    out.push_str(&format!(
        "  \"s\": {S},\n  \"unit\": \"ns_per_query_median\",\n"
    ));
    out.push_str("  \"sizes\": [\n");
    let results: Vec<SizeResult> = [64usize, 512, 4096].iter().map(|&n| run_size(n)).collect();
    for (i, r) in results.iter().enumerate() {
        println!(
            "n={:5}  arena_pruned={:.0}ns  arena_unpruned={:.0}ns  \
             perround_trees={:.0}ns  adaptive={:.0}ns (rounds {:.1}% of s)  \
             speedup(perround/pruned)={:.2}x",
            r.n,
            r.arena_pruned,
            r.arena_unpruned,
            r.perround_trees,
            r.adaptive,
            100.0 * r.adaptive_rounds_frac,
            r.perround_trees / r.arena_pruned,
        );
        out.push_str(&format!(
            "    {{ \"n\": {}, \"arena_pruned\": {:.1}, \"arena_unpruned\": {:.1}, \
             \"perround_trees\": {:.1}, \"adaptive\": {:.1}, \
             \"adaptive_rounds_frac\": {:.4}, \"speedup_perround_over_pruned\": {:.3} }}{}\n",
            r.n,
            r.arena_pruned,
            r.arena_unpruned,
            r.perround_trees,
            r.adaptive,
            r.adaptive_rounds_frac,
            r.perround_trees / r.arena_pruned,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    let sweep = run_leaf_sweep();
    print!("leaf sweep (n=4096 global-ball fold): ");
    for &(l, ns) in &sweep {
        print!("leaf={l}:{ns:.0}ns  ");
    }
    println!();
    out.push_str("  \"leaf_sweep\": [\n");
    for (i, &(l, ns)) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"leaf_size\": {l}, \"ball_fold_ns\": {ns:.1} }}{}\n",
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    let bf_rows = run_bf_crossover();
    print!("brute-force crossover: ");
    for &(n, t, f) in &bf_rows {
        print!("n={n}:tree {t:.0}ns/flat {f:.0}ns  ");
    }
    println!();
    out.push_str("  \"bf_crossover\": [\n");
    for (i, &(n, t, f)) in bf_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"n\": {n}, \"tree_ns\": {t:.1}, \"flat_ns\": {f:.1} }}{}\n",
            if i + 1 == bf_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    let (sep_s, sep_frac, sep_hw) = run_separated();
    println!(
        "separated: adaptive used {:.1}% of s={sep_s} (mean half-width {:.4} <= 0.05)",
        100.0 * sep_frac,
        sep_hw
    );
    out.push_str(&format!(
        "  \"adaptive_separated\": {{ \"s\": {sep_s}, \"eps\": 0.05, \"delta\": 0.01, \
         \"rounds_frac\": {sep_frac:.4}, \"mean_half_width\": {sep_hw:.4} }}\n}}\n"
    ));
    std::fs::write("BENCH_quantify.json", &out).expect("write BENCH_quantify.json");
    println!("wrote BENCH_quantify.json");
}
