//! Churn benchmark for the dynamic index; writes `BENCH_dynamic.json`
//! (sustained update throughput and median query latency, dynamic vs
//! rebuild-from-scratch) at the repo root.
//!
//! ```sh
//! cargo run -p unn-bench --release --bin bench_dynamic
//! ```
//!
//! For each `n ∈ {256, 1024, 4096}`:
//!
//! * **updates** — mixed churn (each update pair = remove a random live
//!   point + insert a fresh one, so `n` stays constant) at two churn rates
//!   (the fraction of the live set replaced during the measurement),
//!   against the baseline that rebuilds a static [`PnnIndex`] from scratch
//!   after every update — the only option before the dynamic subsystem;
//! * **queries** — median ns/query for `NN≠0` and Monte-Carlo
//!   quantification on the churned dynamic snapshot vs the static index on
//!   the same live set, with the same per-block round count `s`.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::dynamic::{CompactionPolicy, DynamicPnnConfig, DynamicPnnIndex, PointId};
use unn::geom::Point;
use unn::{PnnConfig, PnnIndex, Uncertain};
use unn_bench::util::random_queries;

const S: usize = 192;
const QUERY_REPS: usize = 5;

fn base_config() -> PnnConfig {
    PnnConfig {
        max_mc_rounds: S,
        ..PnnConfig::default()
    }
}

fn dynamic_config() -> DynamicPnnConfig {
    DynamicPnnConfig {
        base: base_config(),
        mc_rounds: S,
        ..DynamicPnnConfig::default()
    }
}

fn random_disk(rng: &mut SmallRng, side: f64) -> Uncertain {
    Uncertain::uniform_disk(
        Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
        rng.random_range(0.5..2.0),
    )
}

fn median_ns_per_query(queries: &[Point], mut f: impl FnMut(Point)) -> f64 {
    let mut samples: Vec<f64> = (0..QUERY_REPS)
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

struct ChurnResult {
    rate: f64,
    dynamic_updates_per_sec: f64,
    rebuild_updates_per_sec: f64,
    speedup: f64,
}

/// One mixed read/write phase: `pairs` remove+insert pairs under `policy`,
/// with query batches interleaved between update strides.
struct PolicyResult {
    policy: &'static str,
    rate: f64,
    pairs: usize,
    updates_per_sec: f64,
    query_nn_nonzero_ns: f64,
    query_quantify_ns: f64,
    blocks: usize,
}

struct SizeResult {
    n: usize,
    churn: Vec<ChurnResult>,
    policies: Vec<PolicyResult>,
    q_nonzero_dynamic: f64,
    q_nonzero_static: f64,
    q_quantify_dynamic: f64,
    q_quantify_static: f64,
    blocks: usize,
    merges: u64,
    compactions: u64,
}

const POLICIES: [(&str, CompactionPolicy); 3] = [
    ("logarithmic", CompactionPolicy::Logarithmic),
    ("tiered", CompactionPolicy::Tiered { max_blocks: 3 }),
    ("merge_to_one", CompactionPolicy::MergeToOne),
];

/// Runs one interleaved phase: strides of update pairs alternating with a
/// query batch on a fresh snapshot (so every batch sees the churned state,
/// block layout included). Returns sustained update throughput and the
/// median-of-batches ns/query for both read paths.
fn mixed_phase(
    index: &mut DynamicPnnIndex,
    live: &mut [PointId],
    pairs: usize,
    side: f64,
    rng: &mut SmallRng,
    queries: &[Point],
) -> (f64, f64, f64) {
    let stride = (pairs / 8).max(1);
    let mut update_secs = 0.0;
    let mut nn_samples: Vec<f64> = Vec::new();
    let mut qt_samples: Vec<f64> = Vec::new();
    let mut done = 0usize;
    while done < pairs {
        let burst = stride.min(pairs - done);
        let start = Instant::now();
        for _ in 0..burst {
            let slot = rng.random_range(0..live.len());
            assert!(index.remove(live[slot]), "mirror out of sync");
            live[slot] = index.insert(random_disk(rng, side));
        }
        update_secs += start.elapsed().as_secs_f64();
        done += burst;

        let snap = index.snapshot();
        let start = Instant::now();
        for &q in queries {
            std::hint::black_box(snap.nn_nonzero(q).len());
        }
        nn_samples.push(start.elapsed().as_secs_f64() * 1e9 / queries.len() as f64);
        let start = Instant::now();
        for &q in queries {
            std::hint::black_box(snap.quantify(q).0.len());
        }
        qt_samples.push(start.elapsed().as_secs_f64() * 1e9 / queries.len() as f64);
    }
    nn_samples.sort_by(f64::total_cmp);
    qt_samples.sort_by(f64::total_cmp);
    (
        (2 * pairs) as f64 / update_secs,
        nn_samples[nn_samples.len() / 2],
        qt_samples[qt_samples.len() / 2],
    )
}

/// The per-policy mixed read/write matrix at one size: every policy runs
/// 1% / 10% / 50% churn phases back-to-back on one index (bulk-inserted
/// bootstrap, so even `MergeToOne` starts from a single affordable build).
/// `MergeToOne` pays a full rebuild per insert, so its phases are capped to
/// a handful of pairs — the recorded `pairs` is the honest count.
fn run_policies(n: usize, side: f64, queries: &[Point]) -> Vec<PolicyResult> {
    let mut out = Vec::new();
    for (name, policy) in POLICIES {
        let mut rng = SmallRng::seed_from_u64(140 + n as u64);
        let mut index = DynamicPnnIndex::with_config(DynamicPnnConfig {
            policy,
            ..dynamic_config()
        })
        .unwrap_or_else(|e| panic!("config: {e}"));
        let points: Vec<Uncertain> = (0..n).map(|_| random_disk(&mut rng, side)).collect();
        let mut live = index.bulk_insert(points);
        for rate in [0.01f64, 0.1, 0.5] {
            let mut pairs = ((n as f64 * rate) as usize).max(8);
            if matches!(policy, CompactionPolicy::MergeToOne) {
                pairs = pairs.min(if n >= 4096 { 8 } else { 16 });
            }
            let (updates_per_sec, nn_ns, qt_ns) =
                mixed_phase(&mut index, &mut live, pairs, side, &mut rng, queries);
            out.push(PolicyResult {
                policy: name,
                rate,
                pairs,
                updates_per_sec,
                query_nn_nonzero_ns: nn_ns,
                query_quantify_ns: qt_ns,
                blocks: index.stats().blocks,
            });
        }
    }
    out
}

/// Sustained dynamic throughput: `pairs` remove+insert pairs against a
/// live index, counted as `2·pairs` updates.
fn dynamic_updates_per_sec(
    index: &mut DynamicPnnIndex,
    live: &mut [PointId],
    pairs: usize,
    side: f64,
    rng: &mut SmallRng,
) -> f64 {
    let start = Instant::now();
    for _ in 0..pairs {
        let slot = rng.random_range(0..live.len());
        assert!(index.remove(live[slot]), "mirror out of sync");
        live[slot] = index.insert(random_disk(rng, side));
    }
    (2 * pairs) as f64 / start.elapsed().as_secs_f64()
}

/// Baseline: every update forces a from-scratch static build (point-set
/// cloning excluded from the timer; sampling and structure construction
/// dominate regardless).
fn rebuild_updates_per_sec(points: &[Uncertain], rebuilds: usize) -> f64 {
    let copies: Vec<Vec<Uncertain>> = (0..rebuilds).map(|_| points.to_vec()).collect();
    let start = Instant::now();
    for pts in copies {
        std::hint::black_box(PnnIndex::build(pts, base_config()));
    }
    rebuilds as f64 / start.elapsed().as_secs_f64()
}

fn run_size(n: usize) -> SizeResult {
    let side = (n as f64).sqrt() * 8.0;
    let mut rng = SmallRng::seed_from_u64(90 + n as u64);
    let mut index =
        DynamicPnnIndex::with_config(dynamic_config()).unwrap_or_else(|e| panic!("config: {e}"));
    let mut live: Vec<PointId> = (0..n)
        .map(|_| index.insert(random_disk(&mut rng, side)))
        .collect();

    // Mixed churn at two rates; throughput is sustained (merges and
    // compactions triggered inside the timed window are paid for).
    let churn = [0.1f64, 0.5]
        .iter()
        .map(|&rate| {
            let pairs = ((n as f64 * rate) as usize).max(16);
            let dynamic = dynamic_updates_per_sec(&mut index, &mut live, pairs, side, &mut rng);
            let rebuilds = if n >= 4096 { 3 } else { 5 };
            let snapshot_points: Vec<Uncertain> = index
                .snapshot()
                .live_points()
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            let rebuild = rebuild_updates_per_sec(&snapshot_points, rebuilds);
            ChurnResult {
                rate,
                dynamic_updates_per_sec: dynamic,
                rebuild_updates_per_sec: rebuild,
                speedup: dynamic / rebuild,
            }
        })
        .collect();

    // Query latency on the churned state, dynamic vs static on the same
    // live set with the same round count.
    let snap = index.snapshot();
    let static_points: Vec<Uncertain> = snap.live_points().into_iter().map(|(_, p)| p).collect();
    let static_index = PnnIndex::build(static_points, base_config());
    let queries = random_queries(128, side, 91 + n as u64);
    let q_nonzero_dynamic = median_ns_per_query(&queries, |q| {
        std::hint::black_box(snap.nn_nonzero(q).len());
    });
    let q_nonzero_static = median_ns_per_query(&queries, |q| {
        std::hint::black_box(static_index.nn_nonzero(q).len());
    });
    let q_quantify_dynamic = median_ns_per_query(&queries, |q| {
        std::hint::black_box(snap.quantify(q).0.len());
    });
    let q_quantify_static = median_ns_per_query(&queries, |q| {
        std::hint::black_box(static_index.quantify(q).0.len());
    });

    let policies = run_policies(n, side, &queries);

    let stats = index.stats();
    SizeResult {
        n,
        churn,
        policies,
        q_nonzero_dynamic,
        q_nonzero_static,
        q_quantify_dynamic,
        q_quantify_static,
        blocks: stats.blocks,
        merges: stats.merges,
        compactions: stats.compactions,
    }
}

fn main() {
    let results: Vec<SizeResult> = [256usize, 1024, 4096]
        .iter()
        .map(|&n| run_size(n))
        .collect();

    let mut out = String::from("{\n  \"bench\": \"dynamic_index\",\n");
    out.push_str(&format!("  \"s\": {S},\n"));
    out.push_str(
        "  \"unit\": { \"updates\": \"updates_per_sec\", \"query\": \"ns_per_query_median\" },\n",
    );
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        println!(
            "n={:5}  blocks={} merges={} compactions={}",
            r.n, r.blocks, r.merges, r.compactions
        );
        let mut churn_json = String::new();
        for (j, c) in r.churn.iter().enumerate() {
            println!(
                "  churn {:>4.0}%: dynamic {:>10.0} upd/s  rebuild {:>8.2} upd/s  speedup {:>8.1}x",
                100.0 * c.rate,
                c.dynamic_updates_per_sec,
                c.rebuild_updates_per_sec,
                c.speedup
            );
            churn_json.push_str(&format!(
                "      {{ \"rate\": {:.2}, \"dynamic_updates_per_sec\": {:.1}, \
                 \"rebuild_updates_per_sec\": {:.3}, \"speedup\": {:.1} }}{}\n",
                c.rate,
                c.dynamic_updates_per_sec,
                c.rebuild_updates_per_sec,
                c.speedup,
                if j + 1 == r.churn.len() { "" } else { "," }
            ));
        }
        println!(
            "  query: nn_nonzero {:.0}ns (static {:.0}ns)  quantify {:.0}ns (static {:.0}ns)",
            r.q_nonzero_dynamic, r.q_nonzero_static, r.q_quantify_dynamic, r.q_quantify_static
        );
        let mut policy_json = String::new();
        for (j, p) in r.policies.iter().enumerate() {
            println!(
                "  {:>12} @ {:>3.0}%: {:>9.0} upd/s  nn_nonzero {:>8.0}ns  quantify {:>8.0}ns  \
                 ({} pairs, {} blocks)",
                p.policy,
                100.0 * p.rate,
                p.updates_per_sec,
                p.query_nn_nonzero_ns,
                p.query_quantify_ns,
                p.pairs,
                p.blocks
            );
            policy_json.push_str(&format!(
                "      {{ \"policy\": \"{}\", \"rate\": {:.2}, \"pairs\": {}, \
                 \"updates_per_sec\": {:.1}, \"query_nn_nonzero_ns\": {:.1}, \
                 \"query_quantify_ns\": {:.1}, \"blocks\": {} }}{}\n",
                p.policy,
                p.rate,
                p.pairs,
                p.updates_per_sec,
                p.query_nn_nonzero_ns,
                p.query_quantify_ns,
                p.blocks,
                if j + 1 == r.policies.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    {{ \"n\": {}, \"blocks\": {}, \"merges\": {}, \"compactions\": {},\n      \
             \"churn\": [\n{}      ],\n      \
             \"policies\": [\n{}      ],\n      \
             \"query_nn_nonzero_dynamic\": {:.1}, \"query_nn_nonzero_static\": {:.1},\n      \
             \"query_quantify_dynamic\": {:.1}, \"query_quantify_static\": {:.1} }}{}\n",
            r.n,
            r.blocks,
            r.merges,
            r.compactions,
            churn_json,
            policy_json,
            r.q_nonzero_dynamic,
            r.q_nonzero_static,
            r.q_quantify_dynamic,
            r.q_quantify_static,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    // The acceptance bar: sustained dynamic update throughput must beat
    // rebuild-per-update by >= 10x at the largest size under mixed churn.
    let largest = results.last().expect("nonempty sizes");
    let min_speedup = largest
        .churn
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "acceptance: min speedup at n={} is {:.1}x (bar: 10x)",
        largest.n, min_speedup
    );
    assert!(
        min_speedup >= 10.0,
        "dynamic update throughput speedup {min_speedup:.1}x below the 10x bar"
    );

    // Read-path acceptance bar: at the largest size under 10% churn, the
    // best policy's NN!=0 latency must land within 3x of the static index.
    let best_nn = largest
        .policies
        .iter()
        .filter(|p| (p.rate - 0.1).abs() < 1e-9)
        .map(|p| p.query_nn_nonzero_ns)
        .fold(f64::INFINITY, f64::min);
    println!(
        "acceptance: best-policy nn_nonzero at n={} / 10% churn is {:.0}ns vs static {:.0}ns \
         ({:.2}x, bar: 3x)",
        largest.n,
        best_nn,
        largest.q_nonzero_static,
        best_nn / largest.q_nonzero_static
    );
    assert!(
        best_nn <= 3.0 * largest.q_nonzero_static,
        "best-policy nn_nonzero {best_nn:.0}ns exceeds 3x static {:.0}ns",
        largest.q_nonzero_static
    );

    std::fs::write("BENCH_dynamic.json", &out).expect("write BENCH_dynamic.json");
    println!("wrote BENCH_dynamic.json");
}
