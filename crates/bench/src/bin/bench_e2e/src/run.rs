//! One run of one workload: set-up, warm-up, the measured window, the
//! answer checks, and the metrics.
//!
//! The untraced run measures the end-to-end metrics. The traced run splits
//! the window in two halves, the first untraced and the second with a span
//! around every `NetClient::serve` call and writer step (their qps ratio is
//! the tracing overhead), then replays a sample of the stream through the
//! layers (see `replay`) and derives the per-layer metrics from the spans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use unn_dynamic::DynamicStats;
use unn_observe::ServeCounters;

use crate::oracle;
use crate::replay::{self, BatchTimes};
use crate::stats;
use crate::trace::{self_times, to_json, Span, Tracer};
use crate::workload::{self, run_phase, run_writes, Phase, PhaseOut, Spec, Stack, Tick, Writer};

/// Request streams outside the measured window's (readers use 0, 1, …).
const WARMUP_STREAM: u64 = 100;
const QUIESCED_STREAM: u64 = 200;

/// How one in-process run is set up.
pub struct Opts {
    /// Seed of the corpus, the request streams and the writer.
    pub seed: u64,
    /// Measured window.
    pub window: Duration,
    /// Corpus divisor (16 in smoke runs).
    pub scale: usize,
    /// Measure the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

impl Opts {
    /// A load phase of this run; only the measured streams are sampled.
    fn phase<'a>(
        &self,
        first_stream: u64,
        length: Duration,
        tracer: Option<&'a Tracer>,
    ) -> Phase<'a> {
        Phase {
            seed: self.seed,
            first_stream,
            length,
            sample: first_stream != WARMUP_STREAM,
            tracer,
        }
    }
}

/// One run's results.
pub struct Report {
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Read requests and writer ticks attempted in the measured window.
    pub attempted: u64,
    /// … of which failed.
    pub failed: u64,
    /// Batches checked against an oracle.
    pub checked: u64,
    /// Oracle mismatches.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Every check passed, and there was at least one.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.checked > 0
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts a phase's requests and checks its answers; the static
    /// workloads' samples are checked against the snapshot they were
    /// served from here, after the window.
    fn absorb(
        &mut self,
        spec: &Spec,
        o: &Opts,
        stack: &Stack,
        out: &PhaseOut,
    ) -> Result<(), String> {
        for r in &out.readers {
            if let Some(e) = &r.error {
                eprintln!("bench_e2e: {}: transport error: {e}", spec.name);
            }
            self.attempted += r.queries;
            self.failed += r.failed;
            self.checked += r.checked + r.sampled.len() as u64;
            self.mismatches.extend(r.mismatches.iter().cloned());
            for s in &r.sampled {
                if let Err(e) = s.check(spec, o.seed, &stack.snap) {
                    self.mismatches.push(e);
                }
            }
        }
        if out.readers.iter().all(|r| r.queries == 0) {
            return Err("the window sent no batch".into());
        }
        Ok(())
    }

    fn absorb_ticks(&mut self, ticks: &[Tick]) {
        self.attempted += ticks.len() as u64;
        self.failed += ticks.iter().filter(|t| !t.ok).count() as u64;
    }
}

/// Runs one workload in this process.
pub fn run(spec: &Spec, o: &Opts) -> Result<Report, String> {
    let corpus = workload::corpus(o.seed, spec.n / o.scale);
    let mut setup_s = Vec::new();
    let mut built: Option<Stack> = None;
    for _ in 0..if o.trace { 1 } else { workload::SETUPS } {
        if let Some(old) = built.take() {
            old.shutdown();
        }
        let (stack, secs) = Stack::build(spec, &corpus)?;
        setup_s.push(secs);
        built = Some(stack);
    }
    let mut stack = built.expect("at least one setup");
    // Taken before any load: the peak after load varied 3-18 % between
    // identical runs with how the allocator kept per-thread arenas.
    let rss_mb = peak_rss_mb()?;
    let mut writer = Writer::new(o.seed, &stack);
    run_phase(
        spec,
        &mut stack,
        &mut writer,
        &o.phase(WARMUP_STREAM, o.window / 10, None),
    );
    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        checked: 0,
        mismatches: Vec::new(),
    };
    let result = if o.trace {
        traced(spec, o, &mut stack, &mut writer, &mut report)
    } else {
        untraced(spec, o, &mut stack, &mut writer, &mut report).map(|()| {
            report.push("rss_mb", rss_mb, "MB");
            report.push("setup_s", stats::median(&stats::sorted(setup_s)), "s");
            let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
            report.push("fail_frac", fail_frac, "fraction");
        })
    };
    if result.is_ok() && spec.churn {
        // One batch once the writer has stopped, against the final state.
        let reqs = spec.batch(o.seed, QUIESCED_STREAM, 0);
        let replies = stack.clients[0]
            .serve(&reqs)
            .map_err(|e| format!("quiesced batch: {e}"))?;
        report.checked += 1;
        if let Err(e) = oracle::check(spec, &stack.set.snapshot(), &reqs, &replies) {
            report.mismatches.push(format!("quiesced batch: {e}"));
        }
    }
    stack.shutdown();
    result.map(|()| report)
}

fn qps(out: &PhaseOut) -> f64 {
    out.readers.iter().map(|r| r.queries).sum::<u64>() as f64 / out.wall.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn untraced(
    spec: &Spec,
    o: &Opts,
    stack: &mut Stack,
    writer: &mut Writer,
    report: &mut Report,
) -> Result<(), String> {
    let window = run_phase(spec, stack, writer, &o.phase(0, o.window, None));
    report.absorb(spec, o, stack, &window)?;
    report.absorb_ticks(&window.ticks);
    let rtt = stats::sorted(
        window
            .readers
            .iter()
            .flat_map(|r| r.rtt_ms.iter().copied())
            .collect(),
    );
    report.push("qps", qps(&window), "1/s");
    report.push("batch_p50_ms", stats::nearest_rank(&rtt, 50.0), "ms");
    report.push("batch_p95_ms", stats::tail(&rtt, 95.0)?, "ms");
    report.push("batch_p99_ms", stats::tail(&rtt, 99.0)?, "ms");
    Ok(())
}

/// Counter totals at one moment, for per-phase differences.
#[derive(Clone)]
struct Totals {
    serve: ServeCounters,
    /// Retried attempts and reconnects.
    transport: (u64, u64),
    shards: Vec<DynamicStats>,
    updates: u64,
}

impl Totals {
    fn of(stack: &Stack, writer: &Writer) -> Totals {
        Totals {
            serve: stack.serve_counters(),
            transport: stack.transport_faults(),
            shards: stack.set.shard_stats(),
            updates: writer.updates,
        }
    }
}

fn traced(
    spec: &Spec,
    o: &Opts,
    stack: &mut Stack,
    writer: &mut Writer,
    report: &mut Report,
) -> Result<(), String> {
    let half = o.window / 2;
    let plain = run_phase(spec, stack, writer, &o.phase(0, half, None));
    report.absorb(spec, o, stack, &plain)?;
    report.absorb_ticks(&plain.ticks);

    let tracer = Arc::new(Tracer::new());
    let t0 = Totals::of(stack, writer);
    let window = run_phase(spec, stack, writer, &o.phase(0, half, Some(&tracer)));
    report.absorb(spec, o, stack, &window)?;
    let t1 = Totals::of(stack, writer);

    // The static workloads replay against the snapshot they served from,
    // churn-nn against its final state.
    let snap = if spec.churn {
        stack.set.snapshot()
    } else {
        stack.snap.clone()
    };
    let rep = replay::replay(spec, o.seed, &snap, &tracer);

    // churn-nn's writer ran beside the traced readers; the static
    // workloads' writer runs now, alone.
    let (ticks, w0, w1) = if spec.churn {
        (window.ticks.clone(), t0.clone(), t1.clone())
    } else {
        let w0 = Totals::of(stack, writer);
        let ticks = run_writes(stack, writer, o.window / 10, Some(&tracer));
        (ticks, w0, Totals::of(stack, writer))
    };
    report.absorb_ticks(&ticks);
    if ticks.is_empty() {
        return Err("the writer made no tick".into());
    }

    let spans = tracer.spans();
    if let Some(path) = &o.spans {
        write_spans(path, &spans)?;
    }
    let selfs = self_times(&spans);
    let durs_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let median_us = |name: &str| -> Result<f64, String> {
        let v = durs_us(name);
        if v.is_empty() {
            return Err(format!("no {name} span was recorded"));
        }
        Ok(stats::median(&stats::sorted(v)))
    };
    let per_query_us = |name: &str| -> Result<f64, String> {
        match rep.reached.get(name) {
            Some(&n) if n > 0 => Ok(durs_us(name).iter().sum::<f64>() / n as f64),
            _ => Err(format!("no replayed query reached {name}")),
        }
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    // net: the round trip less what the replay spent in the codec and the
    // dispatcher on the same batch; what is left is socket I/O, waiting for
    // the dispatcher lock, and the server's connection loop.
    let rtt_ns: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "net.serve")
        .map(|s| (s.rid, s.dur_ns()))
        .collect();
    let net_self: Vec<f64> = rep
        .batches
        .iter()
        .filter_map(|b| {
            let rtt = *rtt_ns.get(&b.rid)? as f64;
            Some((rtt - (b.encode_ns + b.decode_ns + b.dispatch_ns) as f64) / 1e3)
        })
        .collect();
    if net_self.is_empty() {
        return Err("the traced window sent none of the replayed batches".into());
    }
    report.push("net.self_us", stats::median(&stats::sorted(net_self)), "us");
    report.push(
        "net.retried_attempts",
        (t1.transport.0 - t0.transport.0) as f64,
        "count",
    );
    report.push(
        "net.reconnects",
        (t1.transport.1 - t0.transport.1) as f64,
        "count",
    );

    let queries = rep.queries as f64;
    let per_batch_us = |f: fn(&BatchTimes) -> f64| {
        rep.batches.iter().map(f).sum::<f64>() / rep.batches.len() as f64 / 1e3
    };
    report.push(
        "wire.req_bytes_per_query",
        rep.req_bytes as f64 / queries,
        "bytes",
    );
    report.push(
        "wire.reply_bytes_per_query",
        rep.reply_bytes as f64 / queries,
        "bytes",
    );
    report.push(
        "wire.encode_us_per_batch",
        per_batch_us(|b| b.encode_ns as f64),
        "us",
    );
    report.push(
        "wire.decode_us_per_batch",
        per_batch_us(|b| b.decode_ns as f64),
        "us",
    );

    // The dispatcher's own time: its untraced duration less what the
    // traced twin's shard calls cover and the replayed folds and sweeps.
    let serve_self_us = rep
        .batches
        .iter()
        .map(|b| {
            let shard_calls = spans[b.traced_dispatch].dur_ns() - selfs[b.traced_dispatch];
            b.dispatch_ns as f64 - shard_calls as f64 - b.fold_exact_ns as f64
        })
        .sum::<f64>()
        / rep.batches.len() as f64
        / 1e3;
    report.push(
        "serve.dispatch_us_per_batch",
        per_batch_us(|b| b.dispatch_ns as f64),
        "us",
    );
    report.push("serve.self_us_per_batch", serve_self_us, "us");
    let served = |f: fn(&ServeCounters) -> u64| (f(&t1.serve) - f(&t0.serve)) as f64;
    report.push(
        "serve.exact_frac",
        served(|c| c.answered_exact) / served(|c| c.queries).max(1.0),
        "fraction",
    );
    report.push("serve.shed", served(|c| c.shed), "count");
    report.push("serve.degraded", served(|c| c.degraded), "count");
    report.push("serve.retries", served(|c| c.retries), "count");
    report.push("serve.refresh_us", median_us("serve.refresh")?, "us");

    report.push(
        "dynamic.delta_fold_us_per_query",
        per_query_us("dynamic.delta_fold")?,
        "us",
    );
    report.push(
        "dynamic.report_nonzero_us_per_query",
        per_query_us("dynamic.report_nonzero")?,
        "us",
    );
    report.push(
        "dynamic.round_winners_us_per_query",
        per_query_us("dynamic.round_winners")?,
        "us",
    );
    let blocks = t1.shards.iter().map(|s| s.blocks as f64).sum::<f64>() / t1.shards.len() as f64;
    report.push("dynamic.blocks_per_shard", blocks, "count");
    report.push("dynamic.insert_us", median_us("dynamic.insert")?, "us");
    report.push("dynamic.remove_us", median_us("dynamic.remove")?, "us");
    report.push("dynamic.snapshot_us", median_us("dynamic.snapshot")?, "us");
    report.push(
        "dynamic.exact_view_us",
        median_us("dynamic.exact_view")?,
        "us",
    );
    let per_1k = |f: fn(&DynamicStats) -> u64| {
        let sum = |t: &Totals| t.shards.iter().map(f).sum::<u64>();
        (sum(&w1) - sum(&w0)) as f64 * 1e3 / (w1.updates - w0.updates).max(1) as f64
    };
    report.push(
        "dynamic.merges_per_1k_updates",
        per_1k(|s| s.merges),
        "count",
    );
    report.push(
        "dynamic.compactions_per_1k_updates",
        per_1k(|s| s.compactions),
        "count",
    );

    report.push("nonzero.ids_per_query", mean(&rep.ids), "count");
    report.push(
        "quantify.fold_us_per_query",
        per_query_us("quantify.fold")?,
        "us",
    );
    report.push("quantify.rounds_frac", mean(&rep.rounds_frac), "fraction");
    report.push("quantify.eps_mean", mean(&rep.eps), "fraction");
    report.push(
        "quantify.exact_us_per_query",
        per_query_us("quantify.exact")?,
        "us",
    );

    let updates = stats::sorted(ticks.iter().map(|t| ms(t.end - t.due)).collect());
    report.push(
        "loadgen.update_p50_ms",
        stats::nearest_rank(&updates, 50.0),
        "ms",
    );
    report.push(
        "loadgen.update_p99_ms",
        stats::nearest_rank(&updates, 99.0),
        "ms",
    );
    let late: Vec<f64> = ticks.iter().map(|t| ms(t.start - t.due)).collect();
    report.push("loadgen.writer_late_ms", mean(&late), "ms");
    report.push(
        "loadgen.trace_overhead",
        1.0 - qps(&window) / qps(&plain),
        "fraction",
    );
    Ok(())
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_json(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
