//! The traced replay: a fixed sample of the request stream sent through
//! each layer's public calls one at a time, so every layer's time is
//! measured from the same run.
//!
//! Per batch, in request order and under one request id: encode the
//! request frame → decode it → `Dispatcher::serve` on a twin of the server's
//! dispatcher whose shard backends record a span per call → encode the
//! reply frame → decode it. The dispatcher has no hook around its
//! Monte-Carlo fold or its exact sweep, so each answer of those tiers is
//! computed once more through the same public calls (`adaptive_over_winners`,
//! `ExactView::quantify`) and timed on its own.
//!
//! A layer the sampled stream never reaches (the Monte-Carlo calls on an
//! NN≠0 workload, say) is timed on a probe of [`PROBE_QUERIES`] of the
//! sample's query points (one for the exact sweep, which takes seconds on
//! a large corpus), so every per-layer time is a measured cost on the
//! workload's own corpus; `serve.exact_frac`, `nonzero.ids_per_query` and
//! `quantify.rounds_frac` say how much the stream itself used each tier.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use unn_dynamic::PointId;
use unn_geom::Point;
use unn_nonzero::DeltaCompose;
use unn_serve::{EngineShard, Outcome, Reply, Request, ShardBackend, ShardSetSnapshot};
use unn_wire::{decode_frame, encode_frame, Frame, ReplyBatch, RequestBatch};

use crate::oracle::fold;
use crate::trace::{SpanId, Tracer};
use crate::workload::{rid, Spec};

/// Query points a layer probe times.
pub const PROBE_QUERIES: usize = 8;

/// Batches the replay sends through the layers.
pub const SAMPLE_BATCHES: u64 = 256;

/// A production shard backend that records a span around every call.
struct TracedShard {
    inner: EngineShard,
    tracer: Arc<Tracer>,
}

impl ShardBackend for TracedShard {
    fn live_ids(&self) -> &[PointId] {
        self.inner.live_ids()
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn delta_fold(&self, q: Point) -> (DeltaCompose, u64) {
        self.tracer
            .in_context("dynamic.delta_fold", || self.inner.delta_fold(q))
    }

    fn report_nonzero(&self, q: Point, fold: &DeltaCompose) -> (Vec<PointId>, u64) {
        self.tracer.in_context("dynamic.report_nonzero", || {
            self.inner.report_nonzero(q, fold)
        })
    }

    fn round_winners(&self, q: Point) -> (Vec<(f64, PointId)>, u64) {
        self.tracer
            .in_context("dynamic.round_winners", || self.inner.round_winners(q))
    }
}

/// One replayed batch.
pub struct BatchTimes {
    /// Its request id (matches the window's `net.serve` span).
    pub rid: u64,
    /// `Dispatcher::serve` on the untraced twin, in nanoseconds.
    pub dispatch_ns: u64,
    /// The traced twin's `serve.dispatch` span, parent of its shard calls.
    pub traced_dispatch: SpanId,
    /// Encoding the request and the reply, in nanoseconds.
    pub encode_ns: u64,
    /// Decoding the request and the reply, in nanoseconds.
    pub decode_ns: u64,
    /// Replayed folds and exact sweeps of its answers, in nanoseconds.
    pub fold_exact_ns: u64,
}

/// What the replay measured besides its spans.
#[derive(Default)]
pub struct Replay {
    /// Per replayed batch.
    pub batches: Vec<BatchTimes>,
    /// Requests replayed.
    pub queries: u64,
    /// Request frame bytes.
    pub req_bytes: u64,
    /// Reply frame bytes.
    pub reply_bytes: u64,
    /// Queries that reached each traced layer call, by span name.
    pub reached: BTreeMap<&'static str, u64>,
    /// NN≠0 answer sizes.
    pub ids: Vec<f64>,
    /// Monte-Carlo rounds used over rounds available, per answer.
    pub rounds_frac: Vec<f64>,
    /// Certified error per quantify answer (0 for exact).
    pub eps: Vec<f64>,
}

impl Replay {
    fn reach(&mut self, layers: &[&'static str], queries: u64) {
        for l in layers {
            *self.reached.entry(l).or_default() += queries;
        }
    }
}

/// Replays batches `0..SAMPLE_BATCHES / readers` of every reader stream
/// through the layers over `snap`, then probes the layers the stream did
/// not reach.
///
/// Each batch is dispatched twice: by a plain twin of the server's
/// dispatcher, which gives the dispatch time, and by a traced twin, whose
/// shard-call spans (each one a mutex push) say which part of it the shard
/// calls took.
pub fn replay(spec: &Spec, seed: u64, snap: &ShardSetSnapshot, tracer: &Arc<Tracer>) -> Replay {
    let t = &**tracer;
    let mut plain = spec.dispatcher(snap, |inner| Box::new(inner));
    let mut twin = spec.dispatcher(snap, |inner| {
        Box::new(TracedShard {
            inner,
            tracer: Arc::clone(tracer),
        })
    });
    let mut out = Replay::default();
    let mut points = Vec::new();
    for stream in 0..spec.readers as u64 {
        for idx in 0..SAMPLE_BATCHES / spec.readers as u64 {
            let rid = rid(stream, idx);
            let root = t.open("replay.batch", None, rid);
            let requests = spec.batch(seed, stream, idx);
            let (frame, enc_req) = t.span("wire.encode_request", Some(root), rid, || {
                encode_frame(&Frame::RequestBatch(RequestBatch {
                    budget_nanos: u64::MAX,
                    requests,
                }))
            });
            let (decoded, dec_req) = t.span("wire.decode_request", Some(root), rid, || {
                decode_frame(&frame)
            });
            let Ok(Frame::RequestBatch(batch)) = decoded else {
                panic!("request frame did not round-trip: {decoded:?}");
            };
            let reqs = batch.requests;
            let start = Instant::now();
            let replies = plain.serve(&reqs);
            let dispatch_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let traced_dispatch = t.open("serve.dispatch", Some(root), rid);
            t.set_context(Some(traced_dispatch), rid);
            let traced_replies = twin.serve(&reqs);
            t.close(traced_dispatch);
            assert!(
                outcomes_equal(&replies, &traced_replies),
                "the traced twin must answer like the plain one"
            );
            let (reply_frame, enc_rep) = t.span("wire.encode_reply", Some(root), rid, || {
                encode_frame(&Frame::ReplyBatch(ReplyBatch { replies }))
            });
            let (decoded, dec_rep) = t.span("wire.decode_reply", Some(root), rid, || {
                decode_frame(&reply_frame)
            });
            let Ok(Frame::ReplyBatch(ReplyBatch { replies })) = decoded else {
                panic!("reply frame did not round-trip: {decoded:?}");
            };
            out.queries += reqs.len() as u64;
            out.req_bytes += frame.len() as u64;
            out.reply_bytes += reply_frame.len() as u64;
            let mut fold_exact_ns = 0;
            for (req, reply) in reqs.iter().zip(&replies) {
                let (Request::NnNonzero(q) | Request::Quantify(q)) = *req;
                if points.len() < PROBE_QUERIES {
                    points.push(q);
                }
                match &reply.outcome {
                    Outcome::Nonzero { ids } => {
                        out.ids.push(ids.len() as f64);
                        out.reach(&["dynamic.delta_fold", "dynamic.report_nonzero"], 1);
                    }
                    Outcome::Exact { .. } => {
                        let view = snap.exact_view();
                        fold_exact_ns += t
                            .span("quantify.exact", Some(root), rid, || view.quantify(q))
                            .1;
                        out.eps.push(0.0);
                        out.reach(&["quantify.exact"], 1);
                    }
                    Outcome::Adaptive {
                        achieved_epsilon,
                        rounds_used,
                        ..
                    }
                    | Outcome::Capped {
                        achieved_epsilon,
                        rounds_used,
                        ..
                    } => {
                        let cap = if matches!(reply.outcome, Outcome::Capped { .. }) {
                            spec.dispatch_config().admission.capped_rounds.min(spec.s)
                        } else {
                            spec.s
                        };
                        let winners: Vec<_> =
                            snap.shards().iter().map(|s| s.round_winners(q)).collect();
                        fold_exact_ns += t
                            .span("quantify.fold", Some(root), rid, || {
                                fold(&winners, snap.live_ids(), spec, cap)
                            })
                            .1;
                        out.rounds_frac.push(*rounds_used as f64 / spec.s as f64);
                        out.eps.push(*achieved_epsilon);
                        out.reach(&["dynamic.round_winners", "quantify.fold"], 1);
                    }
                    Outcome::Shed { .. } => {}
                }
            }
            t.close(root);
            out.batches.push(BatchTimes {
                rid,
                dispatch_ns,
                traced_dispatch,
                encode_ns: enc_req + enc_rep,
                decode_ns: dec_req + dec_rep,
                fold_exact_ns,
            });
        }
    }
    probe(spec, snap, &points, t, &mut out);
    out
}

/// Replies equal in everything but their wall-clock `elapsed_nanos`.
fn outcomes_equal(a: &[Reply], b: &[Reply]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            Reply {
                elapsed_nanos: y.elapsed_nanos,
                ..x.clone()
            } == *y
        })
}

/// Times the layer calls the replayed stream did not reach, on the
/// sample's first query points, under a `replay.probe` span.
fn probe(spec: &Spec, snap: &ShardSetSnapshot, points: &[Point], t: &Tracer, out: &mut Replay) {
    let rid = u64::MAX;
    let root = t.open("replay.probe", None, rid);
    if !out.reached.contains_key("dynamic.delta_fold") {
        for &q in points {
            let mut merged = DeltaCompose::new();
            for s in snap.shards() {
                merged.merge(
                    &t.span("dynamic.delta_fold", Some(root), rid, || s.delta_fold(q))
                        .0,
                );
            }
            let mut ids = Vec::new();
            for s in snap.shards() {
                t.span("dynamic.report_nonzero", Some(root), rid, || {
                    s.report_nonzero_under(q, &merged, &mut ids)
                });
            }
            out.ids.push(ids.len() as f64);
        }
        out.reach(
            &["dynamic.delta_fold", "dynamic.report_nonzero"],
            points.len() as u64,
        );
    }
    if !out.reached.contains_key("quantify.fold") {
        for &q in points {
            let winners: Vec<_> = snap
                .shards()
                .iter()
                .map(|s| {
                    t.span("dynamic.round_winners", Some(root), rid, || {
                        s.round_winners(q)
                    })
                    .0
                })
                .collect();
            let (a, _) = t.span("quantify.fold", Some(root), rid, || {
                fold(&winners, snap.live_ids(), spec, spec.s)
            });
            out.rounds_frac.push(a.rounds_used as f64 / spec.s as f64);
            out.eps.push(a.half_width);
        }
        out.reach(
            &["dynamic.round_winners", "quantify.fold"],
            points.len() as u64,
        );
    }
    if !out.reached.contains_key("quantify.exact") {
        if let Some(&q) = points.first() {
            let view = snap.exact_view();
            t.span("quantify.exact", Some(root), rid, || view.quantify(q));
            out.reach(&["quantify.exact"], 1);
        }
    }
    t.close(root);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{corpus, spec, SHARDS};
    use unn_serve::{ShardPolicy, ShardSet};

    #[test]
    fn replayed_spans_nest_under_their_batch() {
        let spec = spec("mc-static").expect("known workload");
        let mut set =
            ShardSet::new(SHARDS, ShardPolicy::Hash, spec.serve_config()).expect("valid config");
        for p in corpus(5, 64) {
            set.insert(p);
        }
        let tracer = Arc::new(Tracer::new());
        let rep = replay(spec, 5, &set.snapshot(), &tracer);
        let spans = tracer.spans();
        assert_eq!(rep.batches.len() as u64, SAMPLE_BATCHES);
        assert_eq!(rep.queries, SAMPLE_BATCHES * spec.batch as u64);
        for b in &rep.batches {
            let d = &spans[b.traced_dispatch];
            assert_eq!((d.name, d.rid), ("serve.dispatch", b.rid));
            let root = d.parent.expect("dispatch has a batch span");
            assert_eq!(spans[root].name, "replay.batch");
        }
        let shard_calls: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "dynamic.round_winners")
            .collect();
        assert_eq!(shard_calls.len() as u64, rep.queries * SHARDS as u64);
        for s in shard_calls {
            let p = &spans[s.parent.expect("shard calls have a parent")];
            assert_eq!((p.name, p.rid), ("serve.dispatch", s.rid));
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        // Layers an MC stream never reaches are probed.
        assert_eq!(
            rep.reached.get("dynamic.delta_fold"),
            Some(&(PROBE_QUERIES as u64))
        );
        assert_eq!(rep.reached.get("quantify.exact"), Some(&1));
    }
}
