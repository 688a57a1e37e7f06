//! The serving run loop: admission, deadlines, retries, breakers, and
//! honest degradation.
//!
//! Determinism: every decision the loop takes is a pure function of the
//! request stream and the per-call self-reported timings. Admission tiers
//! are assigned in one sequential pass *before* the parallel fan-out;
//! per-query shard visits run in shard order with a serial elapsed-time
//! model (call nanos plus backoff); and breaker transitions replay each
//! query's call outcomes in request order *after* the batch. Answers and
//! counters are therefore bit-identical at any thread count, faults
//! included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rayon::prelude::*;
use unn_dynamic::{EngineSnapshot, PointId};
use unn_geom::Point;
use unn_nonzero::DeltaCompose;
use unn_observe::{Clock, ServeCounters};
use unn_quantify::{adaptive_half_width_bound, adaptive_over_winners, ADAPTIVE_MIN_ROUNDS};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::shard::{merge_winners, ranks_in, ExactView, ShardSetSnapshot};
use crate::ServeError;

/// One shard as the dispatcher sees it: metadata plus the three query
/// calls, each self-reporting its elapsed nanoseconds (measured by the
/// injected clock for real shards; synthetic for chaos wrappers). The
/// dispatcher treats every call as fallible — panics are caught, timings
/// drive timeouts, and answers are validated before merging.
pub trait ShardBackend: Send + Sync {
    /// This shard's live ids, sorted ascending.
    fn live_ids(&self) -> &[PointId];

    /// Monte-Carlo rounds per block on this shard.
    fn rounds(&self) -> usize;

    /// Stage-1 Lemma 2.1 fold over this shard.
    fn delta_fold(&self, q: Point) -> (DeltaCompose, u64);

    /// Stage-2 NN≠0 report under an externally merged fold.
    fn report_nonzero(&self, q: Point, fold: &DeltaCompose) -> (Vec<PointId>, u64);

    /// Per-round `(distance, id)` winners for `q`.
    fn round_winners(&self, q: Point) -> (Vec<(f64, PointId)>, u64);
}

/// The production backend: a frozen per-shard engine view timed by the
/// injected clock (zero elapsed under `NullClock`, keeping the whole loop
/// deterministic).
pub struct EngineShard {
    snap: EngineSnapshot,
    clock: Arc<dyn Clock + Send + Sync>,
}

impl EngineShard {
    /// Wraps one shard's frozen view.
    pub fn new(snap: EngineSnapshot, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        Self { snap, clock }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.clock.now_nanos();
        let out = f();
        (out, self.clock.now_nanos().saturating_sub(t0))
    }
}

impl ShardBackend for EngineShard {
    fn live_ids(&self) -> &[PointId] {
        self.snap.live_ids()
    }

    fn rounds(&self) -> usize {
        self.snap.rounds()
    }

    fn delta_fold(&self, q: Point) -> (DeltaCompose, u64) {
        self.timed(|| self.snap.delta_fold(q))
    }

    fn report_nonzero(&self, q: Point, fold: &DeltaCompose) -> (Vec<PointId>, u64) {
        self.timed(|| {
            let mut out = Vec::new();
            self.snap.report_nonzero_under(q, fold, &mut out);
            out
        })
    }

    fn round_winners(&self, q: Point) -> (Vec<(f64, PointId)>, u64) {
        self.timed(|| self.snap.round_winners(q))
    }
}

/// Bounded retry with exponential backoff for transient shard failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts beyond the first per shard call.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based) is `backoff_base_nanos << (k-1)`,
    /// charged to the query's deadline.
    pub backoff_base_nanos: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_nanos: 1_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry `attempt` (1-based).
    pub fn backoff_nanos(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_base_nanos.saturating_mul(1u64 << shift)
    }
}

/// Cross-batch admission feedback: a token bucket refilled from observed
/// completion rates. Without it admission is per-batch only — every batch
/// gets the full [`AdmissionConfig::work_capacity`] regardless of how the
/// previous batches went. With feedback, work spent must be *earned back*
/// by completed answers (plus an optional clock-driven trickle), so a
/// backlog of expensive batches tightens admission until completions catch
/// up. Deterministic under the injected clock: under `NullClock` the
/// trickle contributes nothing and refill is a pure function of the
/// completion counters.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackConfig {
    /// Bucket capacity in work units (≥ 1); refill saturates here.
    pub bucket_capacity: u64,
    /// Tokens in the bucket at construction.
    pub initial_tokens: u64,
    /// Tokens earned per completed (non-shed) answer.
    pub tokens_per_completion: u64,
    /// Trickle refill per elapsed second of injected-clock time.
    pub tokens_per_sec: u64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            bucket_capacity: 4_096,
            initial_tokens: 4_096,
            tokens_per_completion: 64,
            tokens_per_sec: 0,
        }
    }
}

/// Admission control: a per-batch work budget spent tier-by-tier. A
/// quantify request starts at the cheapest tier that certifies
/// [`DispatchConfig::epsilon`]: adaptive Monte-Carlo when its `s` rounds
/// certify ε over the live set before the query runs (see
/// [`unn_quantify::adaptive_half_width_bound`]) and cost fewer work units
/// than the exact sweep, the exact sweep otherwise. When a request no
/// longer fits its tier it is *downgraded* — adaptive Monte-Carlo, then
/// round-capped Monte-Carlo — and only shed when even the capped tier does
/// not fit.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Work units available per [`Dispatcher::serve`] batch
    /// (`u64::MAX` = unlimited). Exact costs its sweep touches, adaptive
    /// costs `s` rounds, capped costs [`AdmissionConfig::capped_rounds`].
    pub work_capacity: u64,
    /// Flat work cost charged per NN≠0 request.
    pub nn_cost: u64,
    /// Monte-Carlo round cap of the lowest quantification tier (≥ 1).
    pub capped_rounds: usize,
    /// Cross-batch feedback; `None` keeps per-batch-only capacity.
    pub feedback: Option<FeedbackConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            work_capacity: u64::MAX,
            nn_cost: 8,
            capped_rounds: 64,
            feedback: None,
        }
    }
}

/// Dispatcher tuning.
#[derive(Clone, Copy, Debug)]
pub struct DispatchConfig {
    /// Worker threads for the batch fan-out (`None` = ambient pool).
    pub threads: Option<usize>,
    /// Per-query deadline in modeled nanoseconds (`u64::MAX` = none):
    /// shard call time plus backoff, accumulated in shard order after the
    /// time of an exact sweep that faulted.
    pub deadline_nanos: u64,
    /// Per shard call timeout (`u64::MAX` = none): a call reporting more
    /// elapsed nanoseconds counts as a failure.
    pub call_timeout_nanos: u64,
    /// Retry policy for failed shard calls.
    pub retry: RetryPolicy,
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Load-shedding ladder.
    pub admission: AdmissionConfig,
    /// Adaptive-tier target additive error, in `(0, 1)`. Admission also
    /// reads it: when `s` rounds certify it over the full live set, the
    /// adaptive tier answers in place of a costlier exact sweep.
    pub epsilon: f64,
    /// Monte-Carlo failure probability, in `(0, 1)`.
    pub delta: f64,
    /// First adaptive checkpoint (≥ 1).
    pub adaptive_min_rounds: usize,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            threads: None,
            deadline_nanos: u64::MAX,
            call_timeout_nanos: u64::MAX,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            admission: AdmissionConfig::default(),
            epsilon: 0.05,
            delta: 0.01,
            adaptive_min_rounds: ADAPTIVE_MIN_ROUNDS,
        }
    }
}

impl DispatchConfig {
    fn validate(&self) -> Result<(), ServeError> {
        let bad = |reason: String| Err(ServeError::InvalidConfig { reason });
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return bad(format!("epsilon must be in (0, 1), got {}", self.epsilon));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return bad(format!("delta must be in (0, 1), got {}", self.delta));
        }
        if self.adaptive_min_rounds == 0 {
            return bad("adaptive_min_rounds must be >= 1".into());
        }
        if self.admission.capped_rounds == 0 {
            return bad("capped_rounds must be >= 1".into());
        }
        if let Some(fb) = &self.admission.feedback {
            if fb.bucket_capacity == 0 {
                return bad("feedback bucket_capacity must be >= 1".into());
            }
            if fb.initial_tokens > fb.bucket_capacity {
                return bad(format!(
                    "feedback initial_tokens {} exceeds bucket_capacity {}",
                    fb.initial_tokens, fb.bucket_capacity
                ));
            }
        }
        Ok(())
    }
}

/// One query in a serve batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Request {
    /// Ids with nonzero probability of being the nearest neighbor.
    NnNonzero(Point),
    /// Quantification probabilities, at the best tier admission allows.
    Quantify(Point),
}

impl Request {
    fn point(&self) -> Point {
        match self {
            Request::NnNonzero(q) | Request::Quantify(q) => *q,
        }
    }
}

/// Why a request was shed instead of answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Admission ran out of work capacity even for the capped tier.
    CapacityExhausted,
    /// The query point was non-finite.
    InvalidQuery,
    /// Every shard failed or was excluded; there is nothing honest to say.
    NoCoverage,
    /// The deadline expired before any shard answered.
    DeadlineExceeded,
}

/// How a request was answered (or not).
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// NN≠0 ids over the covered shards, sorted ascending.
    Nonzero {
        /// The ids.
        ids: Vec<PointId>,
    },
    /// Exact-tier probabilities (full coverage by construction).
    Exact {
        /// Dense π over [`Reply::layout`].
        pi: Vec<f64>,
    },
    /// Adaptive Monte-Carlo tier.
    Adaptive {
        /// Dense π over [`Reply::layout`].
        pi: Vec<f64>,
        /// The certified half-width at stopping — honest for the covered
        /// set.
        achieved_epsilon: f64,
        /// Rounds consumed.
        rounds_used: usize,
    },
    /// Round-capped Monte-Carlo tier (load shedding by downgrade).
    Capped {
        /// Dense π over [`Reply::layout`].
        pi: Vec<f64>,
        /// The certified half-width the surviving rounds actually earn.
        achieved_epsilon: f64,
        /// Rounds consumed.
        rounds_used: usize,
    },
    /// No answer; the reason is honest.
    Shed {
        /// Why.
        reason: ShedReason,
    },
}

/// One request's full reply: the outcome plus the coverage and fault
/// accounting that makes a degraded answer honest.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The answer (or shed reason).
    pub outcome: Outcome,
    /// The live ids each probability slot refers to (covered shards only,
    /// sorted ascending); empty for NN≠0 and shed replies.
    pub layout: Vec<PointId>,
    /// Shards that contributed no answer (breaker-open, failed after
    /// retries, or deadline-skipped), in shard order.
    pub failed_shards: Vec<usize>,
    /// Live points covered by the answering shards.
    pub covered: usize,
    /// Live points across all shards.
    pub total_live: usize,
    /// Retries spent on this request.
    pub retries: u64,
    /// Modeled latency: the exact sweep's clock time, or shard call nanos
    /// plus backoff, serial in shard order (an exact sweep that faulted
    /// stays charged before the Monte-Carlo fallback). Real time under a
    /// real clock, 0 under `NullClock`.
    pub elapsed_nanos: u64,
    /// True when the answer is below the dispatcher's top tier or covers
    /// only a subset of shards. With an exact view, the top tier is exact:
    /// an adaptive answer stays flagged even when admission chose it
    /// because it certifies ε; read `achieved_epsilon` for its accuracy.
    pub degraded: bool,
}

impl Reply {
    /// True when some live points are missing from the answer.
    pub fn partial(&self) -> bool {
        self.covered < self.total_live
    }
}

/// The per-query tier admission assigns before the fan-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    Nn,
    Exact,
    Adaptive,
    Capped,
    Shed(ShedReason),
}

/// Per-query fault log, folded into metrics and breakers after the batch.
#[derive(Default)]
struct CallLog {
    /// (shard, success) per attempt, in visit order.
    events: Vec<(usize, bool)>,
    retries: u64,
    timeouts: u64,
    panics: u64,
    poisons: u64,
    exact_fault: bool,
    deadline_hit: bool,
    shard_nanos: Vec<(usize, u64)>,
}

enum CallResult<T> {
    Ok(T),
    Failed,
    Skipped,
}

/// The serving loop over a frozen set of shard backends.
pub struct Dispatcher {
    backends: Vec<Box<dyn ShardBackend>>,
    /// The backends' live ids merged and sorted once per epoch: the layout
    /// of every full-coverage Monte-Carlo reply.
    layout: Vec<PointId>,
    exact: Option<Arc<ExactView>>,
    total_live: usize,
    s: usize,
    cfg: DispatchConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    breakers: Vec<CircuitBreaker>,
    metrics: ServeCounters,
    /// Token-bucket state for cross-batch admission feedback (present only
    /// when [`AdmissionConfig::feedback`] is configured).
    bucket: Option<TokenBucket>,
}

/// Cross-batch feedback state: the tokens left plus the completion count
/// and clock reading already credited.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    tokens: u64,
    credited_completions: u64,
    last_refill_nanos: u64,
}

impl Dispatcher {
    /// A dispatcher over explicit backends. Without an [`ExactView`] the
    /// quantification ladder starts at the adaptive tier.
    pub fn new(
        backends: Vec<Box<dyn ShardBackend>>,
        exact: Option<Arc<ExactView>>,
        cfg: DispatchConfig,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        if backends.is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "need at least one shard backend".into(),
            });
        }
        let n = backends.len();
        let layout = merged_layout(&backends);
        let total_live = layout.len();
        let s = backends.iter().map(|b| b.rounds()).max().unwrap_or(1);
        let bucket = cfg.admission.feedback.map(|fb| TokenBucket {
            tokens: fb.initial_tokens,
            credited_completions: 0,
            last_refill_nanos: clock.now_nanos(),
        });
        Ok(Self {
            backends,
            layout,
            exact,
            total_live,
            s,
            cfg,
            clock,
            breakers: vec![CircuitBreaker::new(cfg.breaker); n],
            metrics: ServeCounters::new(n),
            bucket,
        })
    }

    /// A dispatcher over a [`ShardSetSnapshot`]'s per-shard views, with the
    /// merged exact view enabled.
    pub fn for_snapshot(
        snap: &ShardSetSnapshot,
        cfg: DispatchConfig,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Result<Self, ServeError> {
        let backends: Vec<Box<dyn ShardBackend>> = snap
            .shards()
            .iter()
            .map(|s| {
                Box::new(EngineShard::new(s.clone(), Arc::clone(&clock))) as Box<dyn ShardBackend>
            })
            .collect();
        Self::new(backends, Some(snap.exact_view()), cfg, clock)
    }

    /// Swaps the backends, the exact view and the cached reply layout
    /// (the snapshot's merged `live_ids`) for a fresh epoch while keeping
    /// breaker state and metrics — the serving loop under churn. Breakers
    /// are reset only if the shard count changes.
    pub fn refresh(&mut self, snap: &ShardSetSnapshot) {
        self.backends = snap
            .shards()
            .iter()
            .map(|s| {
                Box::new(EngineShard::new(s.clone(), Arc::clone(&self.clock)))
                    as Box<dyn ShardBackend>
            })
            .collect();
        self.layout = snap.live_ids().to_vec();
        self.exact = Some(snap.exact_view());
        self.total_live = snap.len();
        self.s = snap.mc_rounds();
        if self.breakers.len() != self.backends.len() {
            self.breakers = vec![CircuitBreaker::new(self.cfg.breaker); self.backends.len()];
        }
        if self.metrics.shard_latency.len() < self.backends.len() {
            let n = self.backends.len();
            self.metrics
                .shard_latency
                .resize(n, unn_observe::Histogram::default());
            self.metrics.shard_failures.resize(n, 0);
        }
    }

    /// Replaces shard `k`'s backend through `wrap` — the chaos-injection
    /// seam ([`crate::ChaosShard`]). The exact view is dropped (it bypasses
    /// the backends, so faults injected at the call layer would not reach
    /// it); the ladder starts at the adaptive tier afterwards.
    pub fn wrap_shard(
        &mut self,
        k: usize,
        wrap: impl FnOnce(Box<dyn ShardBackend>) -> Box<dyn ShardBackend>,
    ) {
        // Temporarily park a zero-size placeholder; `EmptyShard` never
        // serves because the slot is written back before any query runs.
        let slot = std::mem::replace(&mut self.backends[k], Box::new(EmptyShard));
        self.backends[k] = wrap(slot);
        self.layout = merged_layout(&self.backends);
        self.exact = None;
    }

    /// Current per-shard breaker states.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers.iter().map(CircuitBreaker::state).collect()
    }

    /// Counter totals so far.
    pub fn metrics(&self) -> &ServeCounters {
        &self.metrics
    }

    /// Monte-Carlo rounds per shard block (the adaptive tier's cap).
    pub fn mc_rounds(&self) -> usize {
        self.s
    }

    /// Live points across all shards (what the handshake advertises).
    pub fn total_live(&self) -> usize {
        self.total_live
    }

    /// Serves one batch. Replies are in request order; faults never escape
    /// (shard panics are caught and isolated), and every decision is
    /// deterministic at any thread count.
    pub fn serve(&mut self, requests: &[Request]) -> Vec<Reply> {
        self.serve_with_deadline(requests, u64::MAX)
    }

    /// Serves one batch under an additional per-query deadline budget in
    /// modeled nanoseconds, clamped against the configured
    /// [`DispatchConfig::deadline_nanos`] (whichever is tighter wins). This
    /// is the entry point for remote callers: a client sends its *remaining*
    /// budget with each batch, so time already burned on transport and
    /// retries honestly tightens the server-side ladder.
    pub fn serve_with_deadline(&mut self, requests: &[Request], budget_nanos: u64) -> Vec<Reply> {
        let saved = self.cfg.deadline_nanos;
        self.cfg.deadline_nanos = saved.min(budget_nanos);
        let now = self.clock.now_nanos();
        self.refill_bucket(now);
        for br in &mut self.breakers {
            br.poll(now);
        }
        let excluded: Vec<bool> = self
            .breakers
            .iter()
            .map(|b| b.state() == BreakerState::Open)
            .collect();
        let (plans, spent) = self.admit(requests, &excluded);
        if let Some(bucket) = &mut self.bucket {
            bucket.tokens = bucket.tokens.saturating_sub(spent);
        }
        let work: Vec<(Request, Plan)> = requests.iter().copied().zip(plans).collect();
        let this: &Dispatcher = self;
        let results: Vec<(Reply, CallLog)> = run_pool(self.cfg.threads, || {
            work.par_iter()
                .map(|&(req, plan)| this.run_query(req, plan, &excluded))
                .collect()
        });
        self.absorb(&results, now);
        self.cfg.deadline_nanos = saved;
        results.into_iter().map(|(reply, _)| reply).collect()
    }

    /// Tokens currently in the feedback bucket (`None` when feedback is
    /// off). Observable state for tests and metrics renders.
    pub fn feedback_tokens(&self) -> Option<u64> {
        self.bucket.as_ref().map(|b| b.tokens)
    }

    /// Refills the feedback bucket from completions recorded since the
    /// last batch plus the clock trickle, saturating at capacity. A pure
    /// function of the counters and the injected clock.
    fn refill_bucket(&mut self, now: u64) {
        let (Some(bucket), Some(fb)) = (&mut self.bucket, &self.cfg.admission.feedback) else {
            return;
        };
        let completed = self.metrics.answered_nonzero
            + self.metrics.answered_exact
            + self.metrics.answered_adaptive
            + self.metrics.answered_capped;
        let fresh = completed.saturating_sub(bucket.credited_completions);
        bucket.credited_completions = completed;
        let mut earned = fresh.saturating_mul(fb.tokens_per_completion);
        if fb.tokens_per_sec > 0 {
            let elapsed = now.saturating_sub(bucket.last_refill_nanos);
            earned = earned.saturating_add(
                (elapsed as u128 * fb.tokens_per_sec as u128 / 1_000_000_000) as u64,
            );
        }
        bucket.last_refill_nanos = now;
        bucket.tokens = bucket.tokens.saturating_add(earned).min(fb.bucket_capacity);
    }

    /// Sequential admission pass: assigns each request the cheapest tier
    /// that certifies ε and that the remaining work capacity affords, and
    /// reports the work units spent. Pure function of the request stream,
    /// batch-start breaker states, the feedback-bucket level, and the
    /// config, live count and round count — independent of execution order.
    fn admit(&self, requests: &[Request], excluded: &[bool]) -> (Vec<Plan>, u64) {
        let adm = &self.cfg.admission;
        let any_excluded = excluded.iter().any(|&e| e);
        // Monte-Carlo certifies ε before any query runs when the largest
        // half-width `s` rounds can end on is within it; the exact tier is
        // then skipped whenever it costs more work units.
        let mc_certified = self.total_live > 0
            && adaptive_half_width_bound(
                self.total_live,
                self.cfg.delta,
                self.cfg.adaptive_min_rounds,
                self.s,
            ) <= self.cfg.epsilon;
        let exact_work = self
            .exact
            .as_ref()
            .map(|v| v.work())
            .filter(|&w| !(mc_certified && w > self.s as u64));
        let budget = match &self.bucket {
            Some(bucket) => adm.work_capacity.min(bucket.tokens),
            None => adm.work_capacity,
        };
        let mut remaining = budget;
        let spend = |cost: u64, remaining: &mut u64| {
            if cost <= *remaining {
                *remaining -= cost;
                true
            } else {
                false
            }
        };
        let plans = requests
            .iter()
            .map(|req| {
                let q = req.point();
                if !(q.x.is_finite() && q.y.is_finite()) {
                    return Plan::Shed(ShedReason::InvalidQuery);
                }
                match req {
                    Request::NnNonzero(_) => {
                        if spend(adm.nn_cost, &mut remaining) {
                            Plan::Nn
                        } else {
                            Plan::Shed(ShedReason::CapacityExhausted)
                        }
                    }
                    Request::Quantify(_) => {
                        // Exact needs full coverage: any breaker-open shard
                        // forces the Monte-Carlo tiers, which answer
                        // honestly over the covered subset.
                        if !any_excluded {
                            if let Some(w) = exact_work {
                                if w <= remaining {
                                    remaining -= w;
                                    return Plan::Exact;
                                }
                            }
                        }
                        if spend(self.s as u64, &mut remaining) {
                            Plan::Adaptive
                        } else if spend(adm.capped_rounds as u64, &mut remaining) {
                            Plan::Capped
                        } else {
                            Plan::Shed(ShedReason::CapacityExhausted)
                        }
                    }
                }
            })
            .collect();
        (plans, budget - remaining)
    }

    /// One shard call with retries, timeout, validation, and deadline
    /// accounting. `elapsed` is the query's serial time model.
    fn call_shard<T>(
        &self,
        k: usize,
        elapsed: &mut u64,
        log: &mut CallLog,
        valid: impl Fn(&T) -> bool,
        f: impl Fn() -> (T, u64),
    ) -> CallResult<T> {
        for attempt in 0..=self.cfg.retry.max_retries {
            if attempt > 0 {
                log.retries += 1;
                *elapsed = elapsed.saturating_add(self.cfg.retry.backoff_nanos(attempt));
            }
            if *elapsed >= self.cfg.deadline_nanos {
                log.deadline_hit = true;
                return CallResult::Skipped;
            }
            match catch_unwind(AssertUnwindSafe(&f)) {
                Ok((val, nanos)) => {
                    log.shard_nanos.push((k, nanos));
                    *elapsed = elapsed.saturating_add(nanos);
                    if nanos > self.cfg.call_timeout_nanos {
                        log.timeouts += 1;
                        log.events.push((k, false));
                    } else if !valid(&val) {
                        log.poisons += 1;
                        log.events.push((k, false));
                    } else {
                        log.events.push((k, true));
                        return CallResult::Ok(val);
                    }
                }
                Err(_) => {
                    log.panics += 1;
                    log.events.push((k, false));
                }
            }
        }
        CallResult::Failed
    }

    fn shed_reply(
        &self,
        reason: ShedReason,
        log: &CallLog,
        failed: Vec<usize>,
        elapsed: u64,
    ) -> Reply {
        Reply {
            outcome: Outcome::Shed { reason },
            layout: Vec::new(),
            failed_shards: failed,
            covered: 0,
            total_live: self.total_live,
            retries: log.retries,
            elapsed_nanos: elapsed,
            degraded: false,
        }
    }

    /// Executes one planned request. Immutable; runs on worker threads.
    fn run_query(&self, req: Request, plan: Plan, excluded: &[bool]) -> (Reply, CallLog) {
        let mut log = CallLog::default();
        let shed = |this: &Self, reason, log: CallLog| {
            let reply = this.shed_reply(reason, &log, Vec::new(), 0);
            (reply, log)
        };
        match plan {
            Plan::Shed(reason) => shed(self, reason, log),
            Plan::Nn => self.run_nn(req.point(), excluded, log),
            Plan::Exact => {
                let q = req.point();
                let mut swept_nanos = 0;
                if let Some(view) = &self.exact {
                    let t0 = self.clock.now_nanos();
                    let swept = catch_unwind(AssertUnwindSafe(|| view.quantify(q)));
                    swept_nanos = self.clock.now_nanos().saturating_sub(t0);
                    if let Ok(pi) = swept {
                        if pi.iter().all(|p| p.is_finite()) {
                            let reply = Reply {
                                outcome: Outcome::Exact { pi },
                                layout: view.ids().to_vec(),
                                failed_shards: Vec::new(),
                                covered: self.total_live,
                                total_live: self.total_live,
                                retries: 0,
                                elapsed_nanos: swept_nanos,
                                degraded: false,
                            };
                            return (reply, log);
                        }
                    }
                }
                // Exact sweep faulted (panic or non-finite): fall down the
                // ladder to adaptive Monte-Carlo, which never touches
                // distribution cdf code. The failed sweep's time stays
                // charged to the query.
                log.exact_fault = true;
                self.run_quantify(q, self.s, true, excluded, log, swept_nanos)
            }
            Plan::Adaptive => {
                let downgraded = self.exact.is_some();
                self.run_quantify(req.point(), self.s, downgraded, excluded, log, 0)
            }
            Plan::Capped => {
                let cap = self.cfg.admission.capped_rounds.min(self.s);
                self.run_quantify(req.point(), cap, true, excluded, log, 0)
            }
        }
    }

    fn run_nn(&self, q: Point, excluded: &[bool], mut log: CallLog) -> (Reply, CallLog) {
        if self.total_live == 0 {
            let reply = Reply {
                outcome: Outcome::Nonzero { ids: Vec::new() },
                layout: Vec::new(),
                failed_shards: Vec::new(),
                covered: 0,
                total_live: 0,
                retries: 0,
                elapsed_nanos: 0,
                degraded: false,
            };
            return (reply, log);
        }
        let mut elapsed = 0u64;
        let mut folds: Vec<Option<DeltaCompose>> = Vec::with_capacity(self.backends.len());
        let mut failed: Vec<usize> = Vec::new();
        for (k, be) in self.backends.iter().enumerate() {
            if excluded[k] {
                folds.push(None);
                failed.push(k);
                continue;
            }
            if be.live_ids().is_empty() {
                folds.push(None);
                continue;
            }
            let got = self.call_shard(
                k,
                &mut elapsed,
                &mut log,
                |f: &DeltaCompose| f.is_empty() || f.delta_min().is_finite(),
                || be.delta_fold(q),
            );
            match got {
                CallResult::Ok(f) => folds.push(Some(f)),
                CallResult::Failed | CallResult::Skipped => {
                    folds.push(None);
                    failed.push(k);
                }
            }
        }
        let mut merged = DeltaCompose::new();
        let mut any = false;
        for f in folds.iter().flatten() {
            merged.merge(f);
            any = true;
        }
        if !any {
            let reason = if log.deadline_hit {
                ShedReason::DeadlineExceeded
            } else {
                ShedReason::NoCoverage
            };
            let reply = self.shed_reply(reason, &log, failed, elapsed);
            return (reply, log);
        }
        let mut ids: Vec<PointId> = Vec::new();
        let mut covered = 0usize;
        for (k, be) in self.backends.iter().enumerate() {
            if folds[k].is_none() {
                continue;
            }
            let got = self.call_shard(
                k,
                &mut elapsed,
                &mut log,
                |_| true,
                || be.report_nonzero(q, &merged),
            );
            match got {
                CallResult::Ok(part) => {
                    ids.extend(part);
                    covered += be.live_ids().len();
                }
                CallResult::Failed | CallResult::Skipped => failed.push(k),
            }
        }
        failed.sort_unstable();
        ids.sort_unstable();
        let degraded = covered < self.total_live;
        let reply = Reply {
            outcome: Outcome::Nonzero { ids },
            layout: Vec::new(),
            failed_shards: failed,
            covered,
            total_live: self.total_live,
            retries: log.retries,
            elapsed_nanos: elapsed,
            degraded,
        };
        (reply, log)
    }

    /// The Monte-Carlo tiers: `cap` rounds over the covered shards, with
    /// `elapsed` nanoseconds already spent on the query.
    fn run_quantify(
        &self,
        q: Point,
        cap: usize,
        downgraded: bool,
        excluded: &[bool],
        mut log: CallLog,
        mut elapsed: u64,
    ) -> (Reply, CallLog) {
        if self.total_live == 0 {
            let reply = Reply {
                outcome: Outcome::Exact { pi: Vec::new() },
                layout: Vec::new(),
                failed_shards: Vec::new(),
                covered: 0,
                total_live: 0,
                retries: 0,
                elapsed_nanos: elapsed,
                degraded: false,
            };
            return (reply, log);
        }
        let mut acc: Vec<(f64, PointId)> = Vec::new();
        let mut covered_lists: Vec<&[PointId]> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        for (k, be) in self.backends.iter().enumerate() {
            if excluded[k] {
                failed.push(k);
                continue;
            }
            if be.live_ids().is_empty() {
                continue;
            }
            let got = self.call_shard(
                k,
                &mut elapsed,
                &mut log,
                |w: &Vec<(f64, PointId)>| {
                    w.iter().all(|(d, id)| d.is_finite() && *id != PointId::MAX)
                },
                || be.round_winners(q),
            );
            match got {
                CallResult::Ok(w) => {
                    merge_winners(&mut acc, &w);
                    covered_lists.push(be.live_ids());
                }
                CallResult::Failed | CallResult::Skipped => failed.push(k),
            }
        }
        if covered_lists.is_empty() {
            let reason = if log.deadline_hit {
                ShedReason::DeadlineExceeded
            } else {
                ShedReason::NoCoverage
            };
            let reply = self.shed_reply(reason, &log, failed, elapsed);
            return (reply, log);
        }
        // Full coverage answers over the layout cached for the epoch; only
        // a partial answer merges the covered shards' ids per query.
        let covered = if failed.is_empty() {
            self.layout.clone()
        } else {
            let mut covered: Vec<PointId> = covered_lists.concat();
            covered.sort_unstable();
            covered
        };
        let n_covered = covered.len();
        let ranks = ranks_in(&covered, &acc);
        let a = adaptive_over_winners(
            &ranks,
            n_covered,
            self.cfg.epsilon,
            self.cfg.delta,
            self.cfg.adaptive_min_rounds,
            cap,
        );
        let partial = n_covered < self.total_live;
        let capped_tier = cap < self.s;
        let outcome = if capped_tier {
            Outcome::Capped {
                pi: a.pi,
                achieved_epsilon: a.half_width,
                rounds_used: a.rounds_used,
            }
        } else {
            Outcome::Adaptive {
                pi: a.pi,
                achieved_epsilon: a.half_width,
                rounds_used: a.rounds_used,
            }
        };
        let reply = Reply {
            outcome,
            layout: covered,
            failed_shards: failed,
            covered: n_covered,
            total_live: self.total_live,
            retries: log.retries,
            elapsed_nanos: elapsed,
            degraded: downgraded || partial || capped_tier,
        };
        (reply, log)
    }

    /// Folds the batch's logs into metrics and replays call outcomes into
    /// the breakers, in request order — the one place breaker state moves.
    fn absorb(&mut self, results: &[(Reply, CallLog)], now: u64) {
        for (reply, log) in results {
            let m = &mut self.metrics;
            m.queries += 1;
            match &reply.outcome {
                Outcome::Nonzero { .. } => m.answered_nonzero += 1,
                Outcome::Exact { .. } => m.answered_exact += 1,
                Outcome::Adaptive { .. } => m.answered_adaptive += 1,
                Outcome::Capped { .. } => m.answered_capped += 1,
                Outcome::Shed { reason } => {
                    m.shed += 1;
                    match reason {
                        ShedReason::CapacityExhausted => m.shed_capacity += 1,
                        ShedReason::InvalidQuery => m.shed_invalid += 1,
                        ShedReason::NoCoverage => m.shed_no_coverage += 1,
                        ShedReason::DeadlineExceeded => m.shed_deadline += 1,
                    }
                }
            }
            if reply.degraded {
                m.degraded += 1;
            }
            if reply.partial() && !matches!(reply.outcome, Outcome::Shed { .. }) {
                m.partial += 1;
            }
            m.retries += log.retries;
            m.timeouts += log.timeouts;
            m.shard_panics += log.panics;
            m.poisoned_answers += log.poisons;
            if log.exact_fault {
                m.exact_faults += 1;
            }
            m.query_latency.record(reply.elapsed_nanos / 1_000);
            for &(k, nanos) in &log.shard_nanos {
                m.shard_latency[k].record(nanos / 1_000);
            }
            for &(k, ok) in &log.events {
                if !ok {
                    m.shard_failures[k] += 1;
                }
                let br = &mut self.breakers[k];
                let before = br.state();
                if ok {
                    br.record_success();
                } else {
                    br.record_failure(now);
                }
                let after = br.state();
                if after == BreakerState::Open && before != BreakerState::Open {
                    m.breaker_trips += 1;
                }
                if after == BreakerState::Closed && before == BreakerState::HalfOpen {
                    m.breaker_recoveries += 1;
                }
            }
        }
    }
}

/// The live ids of `backends`, merged and sorted ascending.
fn merged_layout(backends: &[Box<dyn ShardBackend>]) -> Vec<PointId> {
    let mut layout: Vec<PointId> = backends
        .iter()
        .flat_map(|b| b.live_ids().iter().copied())
        .collect();
    layout.sort_unstable();
    layout
}

/// A permanently empty placeholder backend (used only transiently while
/// wrapping a real backend; see [`Dispatcher::wrap_shard`]).
struct EmptyShard;

impl ShardBackend for EmptyShard {
    fn live_ids(&self) -> &[PointId] {
        &[]
    }
    fn rounds(&self) -> usize {
        1
    }
    fn delta_fold(&self, _q: Point) -> (DeltaCompose, u64) {
        (DeltaCompose::new(), 0)
    }
    fn report_nonzero(&self, _q: Point, _fold: &DeltaCompose) -> (Vec<PointId>, u64) {
        (Vec::new(), 0)
    }
    fn round_winners(&self, _q: Point) -> (Vec<(f64, PointId)>, u64) {
        (Vec::new(), 0)
    }
}

/// Runs `op` on an `n`-thread pool when requested (degrading to the
/// ambient pool if the build fails) — the same shape as the core crate's
/// batch options.
fn run_pool<R: Send>(threads: Option<usize>, op: impl FnOnce() -> R + Send) -> R {
    match threads {
        None => op(),
        Some(n) => match rayon::ThreadPoolBuilder::new().num_threads(n).build() {
            Ok(pool) => pool.install(op),
            Err(_) => op(),
        },
    }
}
