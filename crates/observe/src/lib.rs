//! Zero-cost-when-disabled instrumentation for the query pipeline.
//!
//! The crate has two halves with different compilation stories:
//!
//! * **Counter hooks** ([`kd_node_visited`], [`ball_point`],
//!   [`mc_checkpoint`], …) — free functions the hot paths in
//!   `unn-spatial`, `unn-quantify`, `unn-nonzero`, `unn-dynamic` and
//!   `unn-net` call unconditionally. Without the `enabled` feature every
//!   hook is an empty `#[inline(always)]` function, so the instrumented
//!   build is byte-identical to an uninstrumented one (CI asserts the marker
//!   symbol `unn_observe_counters_enabled` is absent from default-feature
//!   release binaries). With `enabled`, per-query hooks bump one
//!   thread-local array of [`Cell`](std::cell::Cell)s — no atomics, no
//!   locks, no allocation on the query path — and the transport hooks bump
//!   one process-global array of atomics.
//! * **Aggregation types** ([`QueryStats`], [`PipelineMetrics`],
//!   [`Histogram`]) — always compiled. They also carry the *result-derived*
//!   fields (rounds used, outcome, certified accuracy) that the `unn`
//!   observed entry points fill in from query return values, so batch
//!   metrics stay meaningful even when the deep counters are compiled out.
//!
//! Each counter is declared once, in the [`CounterSet`] or [`NetCounters`]
//! table below; the storage slots, the field-wise sum and the JSON keys all
//! come from that one declaration.
//!
//! # Determinism contract
//!
//! Every non-timing field of a [`PipelineMetrics`] is an order-independent
//! sum (or fixed-bucket histogram) of per-query quantities that are
//! themselves pure functions of `(index, query)`. Batch runs therefore
//! produce bit-identical deterministic totals for every thread count and
//! query order ([`PipelineMetrics::deterministic`] zeroes the timing
//! fields; `tests/batch_determinism.rs` in the workspace root asserts the
//! contract at 1/2/8 threads). Wall-clock enters only through a
//! caller-injected [`Clock`]; tests inject [`NullClock`] and get all-zero
//! timing.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Marker symbol for the CI codegen guard: exists if and only if the
/// counters were compiled in, so `nm | grep` on a release binary proves the
/// default build carries no instrumentation.
#[cfg(feature = "enabled")]
#[no_mangle]
#[inline(never)]
pub extern "C" fn unn_observe_counters_enabled() -> u8 {
    1
}

/// `true` when the crate was built with the `enabled` feature (the deep
/// counters are live); `false` when every hook is a no-op.
///
/// Routed through the `no_mangle` marker so any binary that asks keeps the
/// symbol alive for the `nm` guard (thin LTO would otherwise garbage-collect
/// the otherwise-unreferenced function).
#[inline]
pub fn counters_enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        unn_observe_counters_enabled() == 1
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Counter tables
// ---------------------------------------------------------------------------

/// Declares a table of `u64` counters: the public struct with one named
/// field per counter, a private slot enum indexing the storage array, a
/// field-wise [`add`](CounterSet::add) and a [`named`](CounterSet::named)
/// listing in declaration order.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, slots $slot:ident [$len:ident] {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        #[allow(non_camel_case_types)]
        enum $slot {
            $($field,)*
        }

        const $len: usize = [$(stringify!($field)),*].len();

        impl $name {
            /// Every counter as `(field name, value)`, in declaration order.
            pub fn named(&self) -> [(&'static str, u64); $len] {
                [$((stringify!($field), self.$field)),*]
            }

            /// Adds `other` field by field.
            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            #[cfg(feature = "enabled")]
            fn from_slots(slots: [u64; $len]) -> Self {
                Self {
                    $($field: slots[$slot::$field as usize],)*
                }
            }
        }
    };
}

counter_table! {
    /// The raw per-query counters the structure-level hooks populate.
    ///
    /// All zeros when the `enabled` feature is off.
    pub struct CounterSet, slots Slot [COUNTERS] {
        /// Kd-tree nodes expanded (all [`KdTree`](../unn_spatial) traversals:
        /// nearest, range, `min_adjusted`, reporting).
        kd_nodes_visited,
        /// Kd-tree subtrees cut by the branch-and-bound test.
        kd_nodes_pruned,
        /// Points reported by `in_disk_capped` ball traversals (the
        /// Monte-Carlo global-ball fold).
        ball_points_visited,
        /// Round-forest nodes expanded (per-round descents).
        forest_nodes_visited,
        /// Round-forest subtrees cut.
        forest_nodes_pruned,
        /// Monte-Carlo rounds answered by the single-traversal global-ball
        /// fold (Δ-pruned fast path).
        mc_ball_rounds,
        /// Monte-Carlo rounds answered by a per-round seeded descent
        /// (fallback / capped path).
        mc_descent_rounds,
        /// Adaptive-stopping checkpoints evaluated.
        mc_checkpoints,
        /// Candidates examined by the Lemma 2.1 stage-2 reporting pass
        /// (`NN≠0` two-stage structures).
        nonzero_candidates,
        /// Locations touched by the exact Eq. 2 sweep.
        exact_location_touches,
        /// Blocks of a dynamic (Bentley–Saxe) index probed by this query.
        dyn_blocks_probed,
        /// Tombstoned entries skipped while composing this query across a
        /// dynamic index's blocks.
        dyn_tombstones_filtered,
        /// Logarithmic-method block merges triggered (update-side counter:
        /// bumped by `insert`, not by queries).
        dyn_merges,
        /// Tombstone compactions triggered (update-side counter).
        dyn_compactions,
        /// Hot-block promotions: read-heavy merge-to-one rebuilds triggered by
        /// the read/update ratio heuristic (update-side counter).
        dyn_promotions,
        /// Leaf points fed through the SoA scan kernels by this query's
        /// tree/forest traversals.
        leaf_points_scanned,
        /// Full-width lane batches executed by the SoA scan kernels
        /// (`leaf_points_scanned / LANES`, rounded down per leaf).
        simd_batches,
    }
}

counter_table! {
    /// Totals from the network-transport hooks (`unn-net`). Unlike the
    /// per-query [`CounterSet`] these are process-global atomics: transport
    /// I/O happens on connection threads, not inside an observed query, so
    /// thread-local accumulation would lose the counts. All zeros when the
    /// `enabled` feature is off.
    pub struct NetCounters, slots NetSlot [NET_COUNTERS] {
        /// Frames received (after length-prefix reassembly).
        frames_in,
        /// Frames sent.
        frames_out,
        /// Body bytes received (excluding length prefixes).
        bytes_in,
        /// Body bytes sent (excluding length prefixes).
        bytes_out,
        /// Frames that failed to decode (truncated / corrupt / unknown tag).
        decode_errors,
        /// Handshakes rejected for a protocol-version mismatch.
        version_mismatches,
        /// Client reconnects (a new connection replacing a broken one).
        reconnects,
    }
}

// ---------------------------------------------------------------------------
// Per-query counters (thread-local; zero-cost when disabled)
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
thread_local! {
    static TLS: [std::cell::Cell<u64>; COUNTERS] =
        const { [const { std::cell::Cell::new(0) }; COUNTERS] };
}

#[inline(always)]
fn bump(slot: Slot, n: u64) {
    #[cfg(feature = "enabled")]
    TLS.with(|t| {
        let c = &t[slot as usize];
        c.set(c.get() + n);
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, n);
}

/// Per-query hooks: `name => field` bumps the field by one,
/// `name(n) => field` by `n`.
macro_rules! hooks {
    (@amount) => { 1 };
    (@amount $n:ident) => { $n };
    ($($(#[$doc:meta])* $name:ident $(($n:ident))? => $field:ident,)*) => {
        $(
            $(#[$doc])*
            #[inline(always)]
            pub fn $name($($n: u64)?) {
                bump(Slot::$field, hooks!(@amount $($n)?));
            }
        )*
    };
}

hooks! {
    /// One kd-tree node expanded.
    kd_node_visited => kd_nodes_visited,
    /// One kd-tree subtree pruned by its bound.
    kd_node_pruned => kd_nodes_pruned,
    /// One point reported by a disk-range traversal.
    ball_point => ball_points_visited,
    /// One round-forest node expanded.
    forest_node_visited => forest_nodes_visited,
    /// One round-forest subtree pruned.
    forest_node_pruned => forest_nodes_pruned,
    /// One Monte-Carlo round answered by the global-ball fold.
    mc_ball_round => mc_ball_rounds,
    /// One Monte-Carlo round answered by a per-round descent.
    mc_descent_round => mc_descent_rounds,
    /// One adaptive-stopping checkpoint evaluated.
    mc_checkpoint => mc_checkpoints,
    /// One Lemma 2.1 stage-2 candidate examined.
    nonzero_candidate => nonzero_candidates,
    /// `n` locations touched by the exact quantification sweep.
    exact_touches(n) => exact_location_touches,
    /// One dynamic-index block probed by a composed query.
    dyn_block_probed => dyn_blocks_probed,
    /// One tombstoned entry filtered out of a composed query.
    dyn_tombstone_filtered => dyn_tombstones_filtered,
    /// One logarithmic-method block merge (update side).
    dyn_merge => dyn_merges,
    /// One tombstone compaction (update side).
    dyn_compaction => dyn_compactions,
    /// One hot-block promotion: read-ratio-triggered merge-to-one (update
    /// side).
    dyn_promotion => dyn_promotions,
    /// `n` leaf points fed through an SoA scan kernel.
    leaf_points(n) => leaf_points_scanned,
    /// `n` full-width lane batches executed by an SoA scan kernel.
    simd_batches_add(n) => simd_batches,
}

/// Resets the thread-local counters; call at the start of an observed
/// query. No-op (and free) when the counters are compiled out.
#[inline(always)]
pub fn begin_query() {
    #[cfg(feature = "enabled")]
    TLS.with(|t| t.iter().for_each(|c| c.set(0)));
}

/// Reads the thread-local counters accumulated since [`begin_query`].
/// All-zero when the counters are compiled out.
#[inline(always)]
pub fn take_counters() -> CounterSet {
    #[cfg(feature = "enabled")]
    {
        TLS.with(|t| CounterSet::from_slots(std::array::from_fn(|i| t[i].get())))
    }
    #[cfg(not(feature = "enabled"))]
    {
        CounterSet::default()
    }
}

// ---------------------------------------------------------------------------
// Network transport counters (process-global; zero-cost when disabled)
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
static NET: [AtomicU64; NET_COUNTERS] = [const { AtomicU64::new(0) }; NET_COUNTERS];

#[inline(always)]
fn net_bump(slot: NetSlot, n: u64) {
    #[cfg(feature = "enabled")]
    NET[slot as usize].fetch_add(n, AtomicOrdering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, n);
}

/// One frame of `bytes` body bytes received.
#[inline(always)]
pub fn net_frame_in(bytes: u64) {
    net_bump(NetSlot::frames_in, 1);
    net_bump(NetSlot::bytes_in, bytes);
}

/// One frame of `bytes` body bytes sent.
#[inline(always)]
pub fn net_frame_out(bytes: u64) {
    net_bump(NetSlot::frames_out, 1);
    net_bump(NetSlot::bytes_out, bytes);
}

/// One frame rejected by the decoder.
#[inline(always)]
pub fn net_decode_error() {
    net_bump(NetSlot::decode_errors, 1);
}

/// One handshake rejected for a version mismatch.
#[inline(always)]
pub fn net_version_mismatch() {
    net_bump(NetSlot::version_mismatches, 1);
}

/// One client reconnect.
#[inline(always)]
pub fn net_reconnect() {
    net_bump(NetSlot::reconnects, 1);
}

/// Reads the process-global network counters. All-zero when the counters
/// are compiled out.
#[inline]
pub fn net_counters() -> NetCounters {
    #[cfg(feature = "enabled")]
    {
        NetCounters::from_slots(std::array::from_fn(|i| {
            NET[i].load(AtomicOrdering::Relaxed)
        }))
    }
    #[cfg(not(feature = "enabled"))]
    {
        NetCounters::default()
    }
}

/// Zeroes the process-global network counters (test isolation).
#[inline]
pub fn net_counters_reset() {
    #[cfg(feature = "enabled")]
    NET.iter().for_each(|a| a.store(0, AtomicOrdering::Relaxed));
}

// ---------------------------------------------------------------------------
// Per-query stats and clocks
// ---------------------------------------------------------------------------

/// How an observed query ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The exact (or configured-accuracy) answer was produced.
    #[default]
    Exact,
    /// The budget forced the degraded fallback path.
    Degraded,
    /// The query returned a typed error (see [`QueryStats::error_label`]).
    Errored,
}

/// Stable labels for the `UnnError` variants, in declaration order; the
/// keys of [`PipelineMetrics::error_counts`]. `unn-observe` cannot depend
/// on `unn`, so errors cross the boundary as `&'static str` labels.
pub const ERROR_LABELS: [&str; 5] = [
    "invalid_distribution",
    "invalid_config",
    "degenerate_geometry",
    "budget_exhausted",
    "query_panicked",
];

/// The index of `label` in [`ERROR_LABELS`], if it is one.
pub fn error_label_index(label: &str) -> Option<usize> {
    ERROR_LABELS.iter().position(|&l| l == label)
}

/// Everything observed about one query: the structure-level counters plus
/// the result-derived fields the observed entry points fill in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Structure-level counters (all zero unless the `enabled` feature is
    /// on).
    pub counters: CounterSet,
    /// Monte-Carlo rounds consumed (adaptive or budgeted paths; 0 for
    /// non-MC queries).
    pub rounds_used: u64,
    /// Rounds available (`s`); 0 for non-MC queries.
    pub rounds_total: u64,
    /// The honest certified accuracy the query reported (half-width /
    /// achieved ε); 0 when not applicable.
    pub achieved_epsilon: f64,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Which [`ERROR_LABELS`] entry, when `outcome` is
    /// [`QueryOutcome::Errored`].
    pub error_label: Option<&'static str>,
    /// Wall-clock nanoseconds by the caller-injected [`Clock`] (0 under
    /// [`NullClock`]).
    pub wall_nanos: u64,
}

/// Caller-injected time source: the only way wall-clock enters the
/// pipeline, so determinism tests can inject [`NullClock`] and compare
/// metrics bit-for-bit.
pub trait Clock: Sync {
    /// Nanoseconds from an arbitrary fixed origin (monotonic).
    fn now_nanos(&self) -> u64;
}

/// The deterministic clock: always 0. Timing fields vanish; everything
/// else is unaffected.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullClock;

impl Clock for NullClock {
    #[inline]
    fn now_nanos(&self) -> u64 {
        0
    }
}

/// A monotonic wall clock (process-relative origin) for production use.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let origin = *ORIGIN.get_or_init(Instant::now);
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A manually-advanced clock for deterministic time-dependent logic
/// (retry backoff, circuit-breaker cooldowns): `now_nanos` reads an atomic
/// that only moves when a test calls [`VirtualClock::advance`]. Clones
/// share the same underlying instant.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: std::sync::Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock frozen at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.now.fetch_add(nanos, AtomicOrdering::Relaxed);
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now_nanos(&self) -> u64 {
        self.now.load(AtomicOrdering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of histogram buckets: bucket 0 holds value 0, bucket `b ≥ 1`
/// holds `[2^(b−1), 2^b)`, the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 24;

/// A fixed-bucket power-of-two histogram of `u64` samples.
///
/// Bucket membership is a pure function of the sample, so a histogram of
/// deterministic per-query quantities does not depend on the order they
/// are recorded in — the property the batch determinism contract needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts (see [`HIST_BUCKETS`] for the bucket layout).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (exact integer sum: order-independent).
    pub sum: u128,
}

impl Histogram {
    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The inclusive lower bound of bucket `b`.
    pub fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-quantile (the upper edge of the bucket the
    /// quantile falls in); `p` in `[0, 1]`.
    pub fn quantile_upper(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b + 1 < HIST_BUCKETS {
                    Self::bucket_lo(b + 1).saturating_sub(1)
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Pipeline metrics
// ---------------------------------------------------------------------------

/// Metric totals over the queries of one or more batches, with renderers.
/// Every field except the timing pair at the bottom is deterministic under
/// the batch contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Queries recorded.
    pub queries: u64,
    /// Sums of the per-query [`CounterSet`]s.
    pub counters: CounterSet,
    /// Sum of Monte-Carlo rounds consumed.
    pub rounds_used: u64,
    /// Sum of rounds available (`s` per MC query).
    pub rounds_total: u64,
    /// Queries that ended [`QueryOutcome::Exact`].
    pub exact_count: u64,
    /// Queries that ended [`QueryOutcome::Degraded`].
    pub degraded_count: u64,
    /// Typed-error counts, keyed by [`ERROR_LABELS`].
    pub error_counts: [u64; ERROR_LABELS.len()],
    /// Network-transport totals folded in via
    /// [`PipelineMetrics::absorb_net`] (all-zero for purely in-process
    /// runs).
    pub net: NetCounters,
    /// Histogram of per-query `rounds_used`.
    pub rounds_hist: Histogram,
    /// Histogram of per-query wall nanoseconds — **timing**, excluded from
    /// [`PipelineMetrics::deterministic`].
    pub latency_hist: Histogram,
    /// Total wall nanoseconds — **timing**, excluded from
    /// [`PipelineMetrics::deterministic`].
    pub wall_nanos: u128,
}

impl PipelineMetrics {
    /// Empty totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query's stats in.
    pub fn record(&mut self, stats: &QueryStats) {
        self.queries += 1;
        self.counters.add(&stats.counters);
        self.rounds_used += stats.rounds_used;
        self.rounds_total += stats.rounds_total;
        match stats.outcome {
            QueryOutcome::Exact => self.exact_count += 1,
            QueryOutcome::Degraded => self.degraded_count += 1,
            QueryOutcome::Errored => {
                if let Some(i) = stats.error_label.and_then(error_label_index) {
                    self.error_counts[i] += 1;
                }
            }
        }
        self.rounds_hist.record(stats.rounds_used);
        self.latency_hist.record(stats.wall_nanos);
        self.wall_nanos += stats.wall_nanos as u128;
    }

    /// Folds network-transport totals in (typically the [`net_counters`]
    /// reading taken when the metrics are rendered).
    pub fn absorb_net(&mut self, net: &NetCounters) {
        self.net.add(net);
    }

    /// The totals with their timing fields (latency histogram, wall-clock
    /// total) zeroed: equal across thread counts and query orders for
    /// deterministic workloads — the value the determinism tests compare.
    pub fn deterministic(&self) -> PipelineMetrics {
        PipelineMetrics {
            latency_hist: Histogram::default(),
            wall_nanos: 0,
            ..self.clone()
        }
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let (s, c, net) = (self, &self.counters, &self.net);
        let mut out = String::new();
        let _ = writeln!(out, "pipeline metrics: {} queries", s.queries);
        let _ = writeln!(
            out,
            "  kd nodes     visited {:>12}  pruned {:>12}  ({:.1}% cut)",
            c.kd_nodes_visited,
            c.kd_nodes_pruned,
            pct(c.kd_nodes_pruned, c.kd_nodes_visited + c.kd_nodes_pruned),
        );
        let _ = writeln!(
            out,
            "  forest nodes visited {:>12}  pruned {:>12}  ({:.1}% cut)",
            c.forest_nodes_visited,
            c.forest_nodes_pruned,
            pct(
                c.forest_nodes_pruned,
                c.forest_nodes_visited + c.forest_nodes_pruned
            ),
        );
        let _ = writeln!(out, "  ball points visited  {:>12}", c.ball_points_visited);
        let _ = writeln!(
            out,
            "  mc rounds    ball {:>12}  descent {:>12}  checkpoints {}",
            c.mc_ball_rounds, c.mc_descent_rounds, c.mc_checkpoints
        );
        let _ = writeln!(
            out,
            "  rounds used {} / {} available ({:.1}% early-stop saving); mean/query {:.1}",
            s.rounds_used,
            s.rounds_total,
            if s.rounds_total == 0 {
                0.0
            } else {
                100.0 - pct(s.rounds_used, s.rounds_total)
            },
            s.rounds_hist.mean(),
        );
        let _ = writeln!(
            out,
            "  nonzero candidates {}; exact sweep touches {}",
            c.nonzero_candidates, c.exact_location_touches
        );
        let _ = writeln!(
            out,
            "  dynamic: blocks probed {}, tombstones filtered {}, merges {}, compactions {}, promotions {}",
            c.dyn_blocks_probed,
            c.dyn_tombstones_filtered,
            c.dyn_merges,
            c.dyn_compactions,
            c.dyn_promotions
        );
        let _ = writeln!(
            out,
            "  kernels: leaf points scanned {}, simd batches {}",
            c.leaf_points_scanned, c.simd_batches
        );
        let _ = writeln!(
            out,
            "  net: frames {}/{} in/out, bytes {}/{} in/out, decode errors {}, version mismatches {}, reconnects {}",
            net.frames_in,
            net.frames_out,
            net.bytes_in,
            net.bytes_out,
            net.decode_errors,
            net.version_mismatches,
            net.reconnects
        );
        let _ = writeln!(
            out,
            "  outcomes: {} exact, {} degraded, {} errors",
            s.exact_count,
            s.degraded_count,
            s.error_counts.iter().sum::<u64>()
        );
        for (label, &n) in ERROR_LABELS.iter().zip(&s.error_counts) {
            if n > 0 {
                let _ = writeln!(out, "    {label}: {n}");
            }
        }
        let _ = writeln!(
            out,
            "  wall total {} ns; latency p50<= {} ns, p99<= {} ns",
            s.wall_nanos,
            s.latency_hist.quantile_upper(0.5),
            s.latency_hist.quantile_upper(0.99),
        );
        out
    }

    /// JSON rendering (flat object; histograms as bucket arrays).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{{\n  \"queries\": {},\n", self.queries);
        let totals = [
            ("rounds_used", self.rounds_used),
            ("rounds_total", self.rounds_total),
            ("exact_count", self.exact_count),
            ("degraded_count", self.degraded_count),
        ];
        for (key, value) in self.counters.named().into_iter().chain(totals) {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        for (key, value) in self.net.named() {
            let _ = writeln!(out, "  \"net_{key}\": {value},");
        }
        let errors: Vec<String> = ERROR_LABELS
            .iter()
            .zip(&self.error_counts)
            .map(|(l, c)| format!("\"{l}\": {c}"))
            .collect();
        let _ = writeln!(out, "  \"error_counts\": {{ {} }},", errors.join(", "));
        let _ = writeln!(
            out,
            "  \"rounds_hist\": {},",
            json_buckets(&self.rounds_hist)
        );
        let _ = writeln!(
            out,
            "  \"latency_hist\": {},",
            json_buckets(&self.latency_hist)
        );
        let _ = write!(out, "  \"wall_nanos\": {}\n}}", self.wall_nanos);
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn json_buckets(h: &Histogram) -> String {
    let inner: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
    format!(
        "{{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
        h.count,
        h.sum,
        inner.join(", ")
    )
}

// ---------------------------------------------------------------------------
// Serving-tier metrics
// ---------------------------------------------------------------------------

/// Counter totals for the sharded serving tier (`unn-serve`): admission
/// outcomes, fault handling, breaker lifecycle, and per-shard latency.
/// Like [`PipelineMetrics`], everything except the latency histograms is
/// deterministic for a deterministic workload (and under a deterministic
/// clock the histograms are too).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests admitted into a serve batch (including ones later shed).
    pub queries: u64,
    /// Quantify requests answered at the exact tier.
    pub answered_exact: u64,
    /// Quantify requests answered at the adaptive Monte-Carlo tier.
    pub answered_adaptive: u64,
    /// Quantify requests answered at the round-capped Monte-Carlo tier.
    pub answered_capped: u64,
    /// NN≠0 requests answered.
    pub answered_nonzero: u64,
    /// Requests shed (no answer produced), total across reasons.
    pub shed: u64,
    /// … because admission ran out of work capacity.
    pub shed_capacity: u64,
    /// … because the query point was non-finite.
    pub shed_invalid: u64,
    /// … because no shard produced an answer.
    pub shed_no_coverage: u64,
    /// … because the per-query deadline expired before any coverage.
    pub shed_deadline: u64,
    /// Answers below the requested tier, from partial coverage, or both.
    pub degraded: u64,
    /// Answers covering only a subset of live shards.
    pub partial: u64,
    /// Shard-call retries performed (attempts beyond each first try).
    pub retries: u64,
    /// Shard calls that exceeded the per-call timeout.
    pub timeouts: u64,
    /// Shard calls that panicked (caught and isolated).
    pub shard_panics: u64,
    /// Shard answers rejected by validation (NaN poison).
    pub poisoned_answers: u64,
    /// Exact-tier sweeps that faulted and fell back to Monte-Carlo.
    pub exact_faults: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries (`HalfOpen` → `Closed`).
    pub breaker_recoveries: u64,
    /// Per-query modeled latency (shard call time + backoff), in
    /// **microseconds** — the 24 power-of-two buckets then span ~4s, a
    /// serving-scale range.
    pub query_latency: Histogram,
    /// Per-shard call latency in microseconds, indexed by shard.
    pub shard_latency: Vec<Histogram>,
    /// Per-shard failed-call counts (timeout + panic + poison), indexed by
    /// shard.
    pub shard_failures: Vec<u64>,
}

impl ServeCounters {
    /// Zeroed counters sized for `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self {
            shard_latency: vec![Histogram::default(); n_shards],
            shard_failures: vec![0; n_shards],
            ..Self::default()
        }
    }

    /// The counters with latency histograms zeroed: the value that is equal
    /// across thread counts for a deterministic workload even under a real
    /// clock.
    pub fn deterministic(&self) -> ServeCounters {
        let mut s = self.clone();
        s.query_latency = Histogram::default();
        s.shard_latency = vec![Histogram::default(); s.shard_latency.len()];
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 1..HIST_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
        }
        let samples = [0u64, 1, 5, 9, 100, 3, 77, 1024, 65535];
        let mut h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        assert_eq!(h.count, samples.len() as u64);
        assert_eq!(h.sum, samples.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn record_counts_outcomes_and_rounds() {
        let stats = |rounds: u64, outcome: QueryOutcome| QueryStats {
            rounds_used: rounds,
            rounds_total: 100,
            outcome,
            ..QueryStats::default()
        };
        let mut metrics = PipelineMetrics::new();
        for s in [
            stats(10, QueryOutcome::Exact),
            stats(20, QueryOutcome::Degraded),
            stats(30, QueryOutcome::Exact),
            QueryStats {
                outcome: QueryOutcome::Errored,
                error_label: Some("budget_exhausted"),
                ..QueryStats::default()
            },
        ] {
            metrics.record(&s);
        }
        assert_eq!(metrics.queries, 4);
        assert_eq!(metrics.exact_count, 2);
        assert_eq!(metrics.degraded_count, 1);
        assert_eq!(metrics.error_counts[3], 1);
        assert_eq!(metrics.rounds_used, 60);
        assert_eq!(metrics.rounds_total, 300);
    }

    #[test]
    fn renders_do_not_panic_and_mention_totals() {
        let mut metrics = PipelineMetrics::new();
        metrics.record(&QueryStats {
            rounds_used: 12,
            rounds_total: 64,
            wall_nanos: 1500,
            ..QueryStats::default()
        });
        let text = metrics.render_text();
        assert!(text.contains("1 queries"));
        let json = metrics.render_json();
        assert!(json.contains("\"rounds_used\": 12"));
        assert!(json.contains("\"query_panicked\": 0"));
        // Every counter of both tables has its key.
        for (name, _) in CounterSet::default().named() {
            assert!(json.contains(&format!("\"{name}\": ")), "json lacks {name}");
        }
        for (name, _) in NetCounters::default().named() {
            assert!(
                json.contains(&format!("\"net_{name}\": ")),
                "json lacks {name}"
            );
        }
        // The deterministic view zeroes only timing.
        let det = metrics.deterministic();
        assert_eq!(det.wall_nanos, 0);
        assert_eq!(det.latency_hist, Histogram::default());
        assert_eq!(det.rounds_used, 12);
    }

    #[test]
    fn disabled_counters_read_zero() {
        begin_query();
        kd_node_visited();
        ball_point();
        let c = take_counters();
        if counters_enabled() {
            assert_eq!(c.kd_nodes_visited, 1);
            assert_eq!(c.ball_points_visited, 1);
        } else {
            assert_eq!(c, CounterSet::default());
        }
    }

    #[test]
    fn each_hook_moves_only_its_own_counter() {
        let hooks: [(fn(), &str, u64); COUNTERS] = [
            (kd_node_visited, "kd_nodes_visited", 1),
            (kd_node_pruned, "kd_nodes_pruned", 1),
            (ball_point, "ball_points_visited", 1),
            (forest_node_visited, "forest_nodes_visited", 1),
            (forest_node_pruned, "forest_nodes_pruned", 1),
            (mc_ball_round, "mc_ball_rounds", 1),
            (mc_descent_round, "mc_descent_rounds", 1),
            (mc_checkpoint, "mc_checkpoints", 1),
            (nonzero_candidate, "nonzero_candidates", 1),
            (|| exact_touches(5), "exact_location_touches", 5),
            (dyn_block_probed, "dyn_blocks_probed", 1),
            (dyn_tombstone_filtered, "dyn_tombstones_filtered", 1),
            (dyn_merge, "dyn_merges", 1),
            (dyn_compaction, "dyn_compactions", 1),
            (dyn_promotion, "dyn_promotions", 1),
            (|| leaf_points(5), "leaf_points_scanned", 5),
            (|| simd_batches_add(5), "simd_batches", 5),
        ];
        let names = CounterSet::default().named().map(|(name, _)| name);
        for name in names {
            assert!(
                hooks.iter().any(|&(_, field, _)| field == name),
                "no hook bumps {name}"
            );
        }
        for (hook, field, amount) in hooks {
            begin_query();
            hook();
            for (name, value) in take_counters().named() {
                let expected = if name == field && counters_enabled() {
                    amount
                } else {
                    0
                };
                assert_eq!(value, expected, "hook for {field} moved {name}");
            }
        }
    }

    #[test]
    fn error_labels_round_trip() {
        for (i, l) in ERROR_LABELS.iter().enumerate() {
            assert_eq!(error_label_index(l), Some(i));
        }
        assert_eq!(error_label_index("nope"), None);
    }
}
