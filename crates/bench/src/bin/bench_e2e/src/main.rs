//! End-to-end serving benchmark: drives the real stack (`unn-net` TCP →
//! `unn-wire` → `unn-serve` dispatcher → `unn-dynamic` shards) over
//! localhost, times every batch from the client side, and checks answers
//! against oracles. README.md next to this package describes the
//! workloads, the metrics and how to compare two commits.
//!
//! ```sh
//! cargo run --release --offline --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml -- \
//!     --workload mc-static --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--workload` the run prints `workload metric value unit` lines and,
//! last, one JSON object (`correct`, `attempted`, `failed`, `metrics`);
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the spans as JSON. Without `--workload`, or with
//! `--runs N`, every workload (or the one named) runs in a child process
//! of its own, N times, and with N > 1 the spread of each metric over the
//! runs is printed and flagged when it exceeds the metric's bound.

mod oracle;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use workload::{Spec, SPECS};

/// A reported metric and how it is judged.
#[derive(Debug)]
pub struct MetricDef {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off. The timing bounds are
/// the largest a bound may be: on the 2-vCPU machine the benchmark was
/// tuned on, ten runs spread (IQR ÷ median) up to 0.23 on the timing
/// metrics, and up to 0.16 on set-up alone, which does the same
/// single-threaded work every run.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("qps", "1/s", "higher", 0.25),
    e2e("batch_p50_ms", "ms", "lower", 0.25),
    e2e("batch_p95_ms", "ms", "lower", 0.25),
    e2e("rss_mb", "MB", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Printed beside the end-to-end metrics but not bounded: the p99 tail
/// spread up to 0.38 (IQR ÷ median) between runs, and the failure share
/// is 0 on a healthy run (the JSON result's `failed` and `attempted` carry
/// it).
pub const UNBOUNDED: [(&str, &str); 2] = [("batch_p99_ms", "ms"), ("fail_frac", "fraction")];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [MetricDef; 33] = [
    layer("net.self_us", "us", "lower"),
    layer("net.retried_attempts", "count", "lower"),
    layer("net.reconnects", "count", "lower"),
    layer("wire.req_bytes_per_query", "bytes", "lower"),
    layer("wire.reply_bytes_per_query", "bytes", "lower"),
    layer("wire.encode_us_per_batch", "us", "lower"),
    layer("wire.decode_us_per_batch", "us", "lower"),
    layer("serve.dispatch_us_per_batch", "us", "lower"),
    layer("serve.self_us_per_batch", "us", "lower"),
    layer("serve.exact_frac", "fraction", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.degraded", "count", "lower"),
    layer("serve.retries", "count", "lower"),
    layer("serve.refresh_us", "us", "lower"),
    layer("dynamic.delta_fold_us_per_query", "us", "lower"),
    layer("dynamic.report_nonzero_us_per_query", "us", "lower"),
    layer("dynamic.round_winners_us_per_query", "us", "lower"),
    layer("dynamic.blocks_per_shard", "count", "lower"),
    layer("dynamic.insert_us", "us", "lower"),
    layer("dynamic.remove_us", "us", "lower"),
    layer("dynamic.snapshot_us", "us", "lower"),
    layer("dynamic.exact_view_us", "us", "lower"),
    layer("dynamic.merges_per_1k_updates", "count", "lower"),
    layer("dynamic.compactions_per_1k_updates", "count", "lower"),
    layer("nonzero.ids_per_query", "count", "lower"),
    layer("quantify.fold_us_per_query", "us", "lower"),
    layer("quantify.rounds_frac", "fraction", "lower"),
    layer("quantify.eps_mean", "fraction", "lower"),
    layer("quantify.exact_us_per_query", "us", "lower"),
    layer("loadgen.update_p50_ms", "ms", "lower"),
    layer("loadgen.update_p99_ms", "ms", "lower"),
    layer("loadgen.writer_late_ms", "ms", "lower"),
    layer("loadgen.trace_overhead", "fraction", "lower"),
];

/// Measured window per workload unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: window length and corpus divisor.
const SMOKE_SECONDS: f64 = 1.0;
const SMOKE_SCALE: usize = 16;

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans FILE] [--runs N] [--smoke]";

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    runs: usize,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        runs: 1,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if workload::spec(&value).is_none() {
                    let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                    return Err(bad(&format!("one of {}", names.join(", "))));
                }
                a.workload = Some(value);
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value)),
            "--runs" => {
                a.runs = value.parse().map_err(|_| bad("a positive integer"))?;
                if a.runs == 0 {
                    return Err(bad("a positive integer"));
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.smoke {
        a.seconds = SMOKE_SECONDS;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.runs) {
        (Some(name), 1) => {
            let spec = workload::spec(name).expect("validated by parse_args");
            run_one(spec, &args)
        }
        _ => orchestrate(&args),
    }
}

/// The in-process run `a` asks for.
fn opts(spec: &Spec, a: &Args) -> run::Opts {
    let spans = a.trace.then(|| {
        a.spans.clone().unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
            PathBuf::from(dir)
                .join("bench_e2e")
                .join(format!("{}-seed{}.spans.json", spec.name, a.seed))
        })
    });
    run::Opts {
        seed: a.seed,
        window: Duration::from_secs_f64(a.seconds),
        scale: if a.smoke { SMOKE_SCALE } else { 1 },
        trace: a.trace,
        spans,
    }
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let report = match run::run(spec, &opts(spec, args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", spec.name);
    }
    for m in &report.mismatches {
        eprintln!("bench_e2e: {}: wrong answer: {m}", spec.name);
    }
    let listed: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, ..)| listed.iter().any(|d| d.name == *name))
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each selected workload `runs` times, each run in a child process
/// of its own (so `rss_mb` is per workload), relays their metric lines,
/// and with more than one run prints each metric's median, quartiles and
/// spread.
fn orchestrate(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_e2e: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| a.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();
    for s in &specs {
        println!("# {}: {}", s.name, s.why);
    }
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for run in 0..a.runs {
        for (w, spec) in specs.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }]);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("bench_e2e: {}: cannot start a run: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let [_, metric, value, unit] = fields[..] else {
                    continue;
                };
                let Ok(v) = value.parse::<f64>() else {
                    continue;
                };
                println!("{line}");
                values
                    .entry((w, metric.to_string()))
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(v);
            }
            if !out.status.success() {
                eprintln!(
                    "bench_e2e: {}: run {run} failed ({})",
                    spec.name, out.status
                );
                ok = false;
            }
        }
    }
    if a.runs > 1 {
        println!(
            "# workload metric median q1 q3 spread bound unit, over {} runs",
            a.runs
        );
        for ((w, metric), (unit, v)) in values {
            let s = stats::Spread::of(v);
            let bound = END_TO_END
                .iter()
                .find(|d| d.name == metric)
                .and_then(|d| d.bound);
            let flag = match bound {
                Some(b) if s.exceeds(b) => " SPREAD-EXCEEDS-BOUND",
                _ => "",
            };
            println!(
                "# {} {metric} {} {} {} {:.4} {} {unit}{flag}",
                specs[w].name,
                s.median,
                s.q1,
                s.q3,
                s.rel_iqr,
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let mut line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            if let Some(b) = d.bound {
                line.push_str(&format!(", \"bound\": {b}"));
            }
            line.push('}');
            assert!(
                BENCHMARK_JSON.contains(&line),
                "BENCHMARK.json lacks {line}"
            );
        }
        for s in &SPECS {
            let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why);
            assert!(
                BENCHMARK_JSON.contains(&line),
                "BENCHMARK.json lacks {line}"
            );
        }
        assert_eq!(
            BENCHMARK_JSON.matches("{\"name\": ").count(),
            SPECS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload churn-nn --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("churn-nn"));
        assert_eq!((a.seed, a.seconds, a.trace, a.runs), (7, 3.0, true, 1));
        assert_eq!(
            parse("--smoke --seconds 9").expect("valid").seconds,
            SMOKE_SECONDS
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--runs 0",
            "--seed",
            "--x 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// Every workload at smoke size, untraced and traced: every metric is
    /// reported with its unit and finite, every oracle passes, and nothing
    /// fails.
    #[test]
    fn smoke_reports_every_metric_and_passes_every_oracle() {
        for spec in &SPECS {
            for trace in [false, true] {
                let o = run::Opts {
                    seed: 3,
                    window: Duration::from_secs_f64(SMOKE_SECONDS),
                    scale: SMOKE_SCALE,
                    trace,
                    spans: None,
                };
                let r = run::run(spec, &o)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
                let what = format!("{} trace={trace}", spec.name);
                assert!(
                    r.correct(),
                    "{what}: {:?} ({} checked)",
                    r.mismatches,
                    r.checked
                );
                assert_eq!(r.failed, 0, "{what}");
                let listed: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
                } else {
                    END_TO_END
                        .iter()
                        .map(|d| (d.name, d.unit))
                        .chain(UNBOUNDED)
                        .collect()
                };
                for (name, want_unit) in listed {
                    let Some(&(_, v, unit)) = r.metrics.iter().find(|(n, ..)| *n == name) else {
                        panic!("{what}: {name} not reported");
                    };
                    assert_eq!(unit, want_unit, "{what}: {name}");
                    assert!(v.is_finite(), "{what}: {name} = {v}");
                }
            }
        }
    }
}
