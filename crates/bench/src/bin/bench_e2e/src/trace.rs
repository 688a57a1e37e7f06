//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer was
//! made), the span that caused it, and the request id it serves. Spans are
//! kept in memory and written out as JSON after the run; a span's self time
//! is its duration minus the part of its interval that its direct children
//! cover, so children that overlap one another (shard calls on parallel
//! dispatcher workers) are not counted twice.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, e.g. `serve.dispatch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (batch) this span worked for.
    pub rid: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    // Parent (`id + 1`, 0 = none) and request id for spans opened by code
    // the caller cannot hand them to: shard calls made on the dispatcher's
    // worker threads.
    ctx_parent: AtomicUsize,
    ctx_rid: AtomicU64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ctx_parent: AtomicUsize::new(0),
            ctx_rid: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose interval is already known.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rid,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it. Use this for spans
    /// that must exist before their children are recorded.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, rid: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, rid, now, now)
    }

    /// Ends an opened span now.
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans[id].end_ns = end;
    }

    /// Sets the parent and request id that [`Tracer::in_context`] uses.
    pub fn set_context(&self, parent: Option<SpanId>, rid: u64) {
        self.ctx_rid.store(rid, Ordering::SeqCst);
        self.ctx_parent
            .store(parent.map_or(0, |p| p + 1), Ordering::SeqCst);
    }

    /// Times `f` as a span; returns its result and duration in
    /// nanoseconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rid: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, rid, start, end);
        (out, self.ns(end) - self.ns(start))
    }

    /// Times `f` as a span under the current context.
    pub fn in_context<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.ctx_parent.load(Ordering::SeqCst).checked_sub(1);
        let rid = self.ctx_rid.load(Ordering::SeqCst);
        self.span(name, parent, rid, f).0
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }
}

/// Runs `f`, recording it as a span when `tracer` is present.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    rid: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, rid, f).0,
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in k.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// The spans and their self times as one JSON document, a span per line.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"rid\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.rid,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rid: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("serve.dispatch", 0, 100, None),
            // Two parallel shard calls overlapping on [30, 40).
            span("dynamic.delta_fold", 10, 40, Some(0)),
            span("dynamic.delta_fold", 30, 60, Some(0)),
            // Disjoint from both.
            span("dynamic.report_nonzero", 70, 80, Some(0)),
        ];
        // Covered: [10, 60) + [70, 80) = 60.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn nested_grandchildren_do_not_count_against_the_root() {
        let spans = vec![
            span("replay.batch", 0, 100, None),
            span("serve.dispatch", 20, 80, Some(0)),
            span("dynamic.round_winners", 30, 50, Some(1)),
            // A child contained in a sibling, and one running past the end
            // of its parent (clipped to the parent).
            span("wire.encode", 25, 35, Some(0)),
            span("wire.decode", 90, 120, Some(0)),
        ];
        // Root covered: [20, 80) ∪ [25, 35) ∪ [90, 100) = 70.
        assert_eq!(self_times(&spans), vec![30, 40, 20, 10, 30]);
    }

    #[test]
    fn tracer_links_context_spans_and_dumps_json() {
        let t = Tracer::new();
        let root = t.open("replay.batch", None, 3);
        t.set_context(Some(root), 3);
        let v = t.in_context("dynamic.delta_fold", || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].rid, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json(&spans);
        assert!(json.starts_with("{\"spans\": [\n"));
        assert!(json.contains("\"name\": \"dynamic.delta_fold\""));
        assert!(json.contains(&format!("\"parent\": {root}, \"rid\": 3}}\n")));
        assert!(json.contains("\"parent\": null"));
        assert_eq!(json.matches("\"id\": ").count(), 2);
    }
}
