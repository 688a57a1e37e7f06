//! Pipeline-observability harness; writes `BENCH_observe.json` (aggregated
//! [`unn::observe::PipelineMetrics`] per instance size) at the repo root.
//!
//! ```sh
//! cargo run -p unn-bench --release --features observe --bin bench_observe
//! ```
//!
//! Without `--features observe` the binary still runs — the result-derived
//! fields (rounds used/total, outcomes, latency) stay live, but the deep
//! traversal counters read zero and the JSON says `"counters_enabled": false`.
//!
//! Per size `n`, two batches over a shared query set:
//!
//! * `adaptive`   — `quantify_adaptive` at (ε = 0.05, δ = 0.01) through
//!   `PnnIndex::observed_batch`: rounds-used histogram, ball-fold vs descent
//!   split, checkpoint count, kd/forest pruning effectiveness;
//! * `nn_nonzero` — `nn_nonzero` through `PnnIndex::observed_batch`:
//!   Lemma 2.1 stage-2 candidate counts and kd pruning for the nonzero-NN
//!   path.

use unn::batch::BatchOptions;
use unn::observe::{MonotonicClock, PipelineMetrics};
use unn::PnnIndex;
use unn_bench::util::{as_uncertain, random_discrete, random_queries};

const EPS: f64 = 0.05;
const DELTA: f64 = 0.01;
const QUERIES: usize = 256;

struct SizeReport {
    n: usize,
    s: usize,
    adaptive_json: String,
    nn_json: String,
}

fn run_size(n: usize) -> SizeReport {
    let side = (n as f64).sqrt() * 8.0;
    let objs = random_discrete(n, 3, side, 3.0, 2.0, 70 + n as u64);
    let points = as_uncertain(&objs);
    let queries = random_queries(QUERIES, side, 71 + n as u64);
    let idx = PnnIndex::new(points);
    let clock = MonotonicClock;
    let opts = BatchOptions::default();

    let mut adaptive = PipelineMetrics::new();
    idx.observed_batch(&queries, &opts, &mut adaptive, &clock, |q| {
        idx.quantify_adaptive(q, EPS, DELTA)
    });

    let mut nn = PipelineMetrics::new();
    idx.observed_batch(&queries, &opts, &mut nn, &clock, |q| idx.nn_nonzero(q));

    println!("== n = {n}: adaptive quantify (eps={EPS}, delta={DELTA}) ==");
    print!("{}", adaptive.render_text());
    println!("== n = {n}: nonzero NN ==");
    print!("{}", nn.render_text());

    SizeReport {
        n,
        s: idx.mc_rounds(),
        adaptive_json: adaptive.render_json(),
        nn_json: nn.render_json(),
    }
}

fn main() {
    let mut out = String::from("{\n  \"bench\": \"observe_pipeline\",\n");
    out.push_str(&format!(
        "  \"counters_enabled\": {},\n  \"eps\": {EPS}, \"delta\": {DELTA}, \"queries\": {QUERIES},\n",
        unn::observe::counters_enabled()
    ));
    if !unn::observe::counters_enabled() {
        println!("note: deep counters are compiled out; rerun with --features observe");
    }
    out.push_str("  \"sizes\": [\n");
    let reports: Vec<SizeReport> = [256usize, 2048].iter().map(|&n| run_size(n)).collect();
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"n\": {}, \"s\": {},\n      \"adaptive\": {},\n      \"nn_nonzero\": {} }}{}\n",
            r.n,
            r.s,
            r.adaptive_json.replace('\n', "\n      "),
            r.nn_json.replace('\n', "\n      "),
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_observe.json", &out).expect("write BENCH_observe.json");
    println!("wrote BENCH_observe.json");
}
