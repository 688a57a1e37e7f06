//! Zero-cost-when-disabled instrumentation for the query pipeline.
//!
//! The crate has two halves with different compilation stories:
//!
//! * **Counter hooks** ([`kd_node_visited`], [`ball_point`],
//!   [`mc_checkpoint`], …) — free functions the hot paths in
//!   `unn-spatial`, `unn-quantify`, and `unn-nonzero` call unconditionally.
//!   Without the `enabled` feature every hook is an empty
//!   `#[inline(always)]` function, so the instrumented build is
//!   byte-identical to an uninstrumented one (CI asserts the marker symbol
//!   [`unn_observe_counters_enabled`] is absent from default-feature release
//!   binaries). With `enabled`, hooks bump plain thread-local [`Cell`]
//!   counters — no atomics, no locks, no allocation on the query path.
//! * **Aggregation types** ([`QueryStats`], [`PipelineMetrics`],
//!   [`Histogram`], [`MetricsSnapshot`]) — always compiled. They also carry
//!   the *result-derived* fields (rounds used, outcome, certified accuracy)
//!   that the `unn` observed entry points fill in from query return values,
//!   so batch metrics stay meaningful even when the deep counters are
//!   compiled out.
//!
//! # Determinism contract
//!
//! Every non-timing field of a [`MetricsSnapshot`] is an order-independent
//! sum (or fixed-bucket histogram) of per-query quantities that are
//! themselves pure functions of `(index, query)`. Batch runs therefore
//! produce bit-identical deterministic snapshots for every thread count and
//! query order ([`MetricsSnapshot::deterministic`] zeroes the timing
//! fields; `tests/batch_determinism.rs` in the workspace root asserts the
//! contract at 1/2/8 threads). Wall-clock enters only through a
//! caller-injected [`Clock`]; tests inject [`NullClock`] and get all-zero
//! timing.

#[cfg(feature = "enabled")]
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;

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
// Per-query counters (thread-local; zero-cost when disabled)
// ---------------------------------------------------------------------------

/// The raw per-query counters the structure-level hooks populate.
///
/// All zeros when the `enabled` feature is off.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CounterSet {
    /// Kd-tree nodes expanded (all [`KdTree`](../unn_spatial) traversals:
    /// nearest, range, `min_adjusted`, reporting).
    pub kd_nodes_visited: u64,
    /// Kd-tree subtrees cut by the branch-and-bound test.
    pub kd_nodes_pruned: u64,
    /// Points reported by `in_disk_capped` ball traversals (the
    /// Monte-Carlo global-ball fold).
    pub ball_points_visited: u64,
    /// Round-forest nodes expanded (per-round descents).
    pub forest_nodes_visited: u64,
    /// Round-forest subtrees cut.
    pub forest_nodes_pruned: u64,
    /// Monte-Carlo rounds answered by the single-traversal global-ball
    /// fold (Δ-pruned fast path).
    pub mc_ball_rounds: u64,
    /// Monte-Carlo rounds answered by a per-round seeded descent
    /// (fallback / capped path).
    pub mc_descent_rounds: u64,
    /// Adaptive-stopping checkpoints evaluated.
    pub mc_checkpoints: u64,
    /// Candidates examined by the Lemma 2.1 stage-2 reporting pass
    /// (`NN≠0` two-stage structures).
    pub nonzero_candidates: u64,
    /// Locations touched by the exact Eq. 2 sweep.
    pub exact_location_touches: u64,
    /// Blocks of a dynamic (Bentley–Saxe) index probed by this query.
    pub dyn_blocks_probed: u64,
    /// Tombstoned entries skipped while composing this query across a
    /// dynamic index's blocks.
    pub dyn_tombstones_filtered: u64,
    /// Logarithmic-method block merges triggered (update-side counter:
    /// bumped by `insert`, not by queries).
    pub dyn_merges: u64,
    /// Tombstone compactions triggered (update-side counter).
    pub dyn_compactions: u64,
    /// Hot-block promotions: read-heavy merge-to-one rebuilds triggered by
    /// the read/update ratio heuristic (update-side counter).
    pub dyn_promotions: u64,
    /// Leaf points fed through the SoA scan kernels by this query's
    /// tree/forest traversals.
    pub leaf_points_scanned: u64,
    /// Full-width lane batches executed by the SoA scan kernels
    /// (`leaf_points_scanned / LANES`, rounded down per leaf).
    pub simd_batches: u64,
    /// The Δ(q) seed radius of the last Monte-Carlo query (`NaN`-free: 0
    /// when no seed was computed).
    pub seed_radius: f64,
}

#[cfg(feature = "enabled")]
struct Tls {
    kd_nodes_visited: Cell<u64>,
    kd_nodes_pruned: Cell<u64>,
    ball_points_visited: Cell<u64>,
    forest_nodes_visited: Cell<u64>,
    forest_nodes_pruned: Cell<u64>,
    mc_ball_rounds: Cell<u64>,
    mc_descent_rounds: Cell<u64>,
    mc_checkpoints: Cell<u64>,
    nonzero_candidates: Cell<u64>,
    exact_location_touches: Cell<u64>,
    dyn_blocks_probed: Cell<u64>,
    dyn_tombstones_filtered: Cell<u64>,
    dyn_merges: Cell<u64>,
    dyn_compactions: Cell<u64>,
    dyn_promotions: Cell<u64>,
    leaf_points_scanned: Cell<u64>,
    simd_batches: Cell<u64>,
    seed_radius: Cell<f64>,
}

#[cfg(feature = "enabled")]
thread_local! {
    static TLS: Tls = const {
        Tls {
            kd_nodes_visited: Cell::new(0),
            kd_nodes_pruned: Cell::new(0),
            ball_points_visited: Cell::new(0),
            forest_nodes_visited: Cell::new(0),
            forest_nodes_pruned: Cell::new(0),
            mc_ball_rounds: Cell::new(0),
            mc_descent_rounds: Cell::new(0),
            mc_checkpoints: Cell::new(0),
            nonzero_candidates: Cell::new(0),
            exact_location_touches: Cell::new(0),
            dyn_blocks_probed: Cell::new(0),
            dyn_tombstones_filtered: Cell::new(0),
            dyn_merges: Cell::new(0),
            dyn_compactions: Cell::new(0),
            dyn_promotions: Cell::new(0),
            leaf_points_scanned: Cell::new(0),
            simd_batches: Cell::new(0),
            seed_radius: Cell::new(0.0),
        }
    };
}

macro_rules! hooks {
    ($($(#[$doc:meta])* $name:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[cfg(feature = "enabled")]
            #[inline(always)]
            pub fn $name() {
                TLS.with(|t| t.$field.set(t.$field.get() + 1));
            }

            $(#[$doc])*
            #[cfg(not(feature = "enabled"))]
            #[inline(always)]
            pub fn $name() {}
        )*
    };
}

macro_rules! add_hooks {
    ($($(#[$doc:meta])* $name:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[cfg(feature = "enabled")]
            #[inline(always)]
            pub fn $name(n: u64) {
                TLS.with(|t| t.$field.set(t.$field.get() + n));
            }

            $(#[$doc])*
            #[cfg(not(feature = "enabled"))]
            #[inline(always)]
            pub fn $name(_n: u64) {}
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
}

add_hooks! {
    /// `n` locations touched by the exact quantification sweep.
    exact_touches => exact_location_touches,
    /// `n` Monte-Carlo rounds answered by the global-ball fold at once.
    mc_ball_rounds_add => mc_ball_rounds,
    /// `n` leaf points fed through an SoA scan kernel.
    leaf_points => leaf_points_scanned,
    /// `n` full-width lane batches executed by an SoA scan kernel.
    simd_batches_add => simd_batches,
}

/// Records the Δ(q) seed radius of the current query.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn seed_radius(r: f64) {
    TLS.with(|t| t.seed_radius.set(r));
}

/// Records the Δ(q) seed radius of the current query.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn seed_radius(_r: f64) {}

/// Resets the thread-local counters; call at the start of an observed
/// query. No-op (and free) when the counters are compiled out.
#[cfg(feature = "enabled")]
#[inline]
pub fn begin_query() {
    TLS.with(|t| {
        t.kd_nodes_visited.set(0);
        t.kd_nodes_pruned.set(0);
        t.ball_points_visited.set(0);
        t.forest_nodes_visited.set(0);
        t.forest_nodes_pruned.set(0);
        t.mc_ball_rounds.set(0);
        t.mc_descent_rounds.set(0);
        t.mc_checkpoints.set(0);
        t.nonzero_candidates.set(0);
        t.exact_location_touches.set(0);
        t.dyn_blocks_probed.set(0);
        t.dyn_tombstones_filtered.set(0);
        t.dyn_merges.set(0);
        t.dyn_compactions.set(0);
        t.dyn_promotions.set(0);
        t.leaf_points_scanned.set(0);
        t.simd_batches.set(0);
        t.seed_radius.set(0.0);
    });
}

/// Resets the thread-local counters; call at the start of an observed
/// query. No-op (and free) when the counters are compiled out.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn begin_query() {}

/// Reads the thread-local counters accumulated since [`begin_query`].
/// All-zero when the counters are compiled out.
#[cfg(feature = "enabled")]
#[inline]
pub fn take_counters() -> CounterSet {
    TLS.with(|t| CounterSet {
        kd_nodes_visited: t.kd_nodes_visited.get(),
        kd_nodes_pruned: t.kd_nodes_pruned.get(),
        ball_points_visited: t.ball_points_visited.get(),
        forest_nodes_visited: t.forest_nodes_visited.get(),
        forest_nodes_pruned: t.forest_nodes_pruned.get(),
        mc_ball_rounds: t.mc_ball_rounds.get(),
        mc_descent_rounds: t.mc_descent_rounds.get(),
        mc_checkpoints: t.mc_checkpoints.get(),
        nonzero_candidates: t.nonzero_candidates.get(),
        exact_location_touches: t.exact_location_touches.get(),
        dyn_blocks_probed: t.dyn_blocks_probed.get(),
        dyn_tombstones_filtered: t.dyn_tombstones_filtered.get(),
        dyn_merges: t.dyn_merges.get(),
        dyn_compactions: t.dyn_compactions.get(),
        dyn_promotions: t.dyn_promotions.get(),
        leaf_points_scanned: t.leaf_points_scanned.get(),
        simd_batches: t.simd_batches.get(),
        seed_radius: t.seed_radius.get(),
    })
}

/// Reads the thread-local counters accumulated since [`begin_query`].
/// All-zero when the counters are compiled out.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn take_counters() -> CounterSet {
    CounterSet::default()
}

// ---------------------------------------------------------------------------
// Network transport counters (process-global; zero-cost when disabled)
// ---------------------------------------------------------------------------

/// Totals from the network-transport hooks (`unn-net`). Unlike the
/// per-query [`CounterSet`] these are process-global atomics: transport
/// I/O happens on connection threads, not inside an observed query, so
/// thread-local accumulation would lose the counts. All zeros when the
/// `enabled` feature is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Frames received (after length-prefix reassembly).
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Body bytes received (excluding length prefixes).
    pub bytes_in: u64,
    /// Body bytes sent (excluding length prefixes).
    pub bytes_out: u64,
    /// Frames that failed to decode (truncated / corrupt / unknown tag).
    pub decode_errors: u64,
    /// Handshakes rejected for a protocol-version mismatch.
    pub version_mismatches: u64,
    /// Client reconnects (a new connection replacing a broken one).
    pub reconnects: u64,
}

impl NetCounters {
    /// Merges another counter set in (field-wise sum).
    pub fn merge(&mut self, other: &NetCounters) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.decode_errors += other.decode_errors;
        self.version_mismatches += other.version_mismatches;
        self.reconnects += other.reconnects;
    }
}

#[cfg(feature = "enabled")]
mod net_atomics {
    use std::sync::atomic::AtomicU64;

    pub static FRAMES_IN: AtomicU64 = AtomicU64::new(0);
    pub static FRAMES_OUT: AtomicU64 = AtomicU64::new(0);
    pub static BYTES_IN: AtomicU64 = AtomicU64::new(0);
    pub static BYTES_OUT: AtomicU64 = AtomicU64::new(0);
    pub static DECODE_ERRORS: AtomicU64 = AtomicU64::new(0);
    pub static VERSION_MISMATCHES: AtomicU64 = AtomicU64::new(0);
    pub static RECONNECTS: AtomicU64 = AtomicU64::new(0);
}

/// One frame of `bytes` body bytes received.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn net_frame_in(bytes: u64) {
    net_atomics::FRAMES_IN.fetch_add(1, AtomicOrdering::Relaxed);
    net_atomics::BYTES_IN.fetch_add(bytes, AtomicOrdering::Relaxed);
}

/// One frame of `bytes` body bytes received.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_frame_in(_bytes: u64) {}

/// One frame of `bytes` body bytes sent.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn net_frame_out(bytes: u64) {
    net_atomics::FRAMES_OUT.fetch_add(1, AtomicOrdering::Relaxed);
    net_atomics::BYTES_OUT.fetch_add(bytes, AtomicOrdering::Relaxed);
}

/// One frame of `bytes` body bytes sent.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_frame_out(_bytes: u64) {}

/// One frame rejected by the decoder.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn net_decode_error() {
    net_atomics::DECODE_ERRORS.fetch_add(1, AtomicOrdering::Relaxed);
}

/// One frame rejected by the decoder.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_decode_error() {}

/// One handshake rejected for a version mismatch.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn net_version_mismatch() {
    net_atomics::VERSION_MISMATCHES.fetch_add(1, AtomicOrdering::Relaxed);
}

/// One handshake rejected for a version mismatch.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_version_mismatch() {}

/// One client reconnect.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn net_reconnect() {
    net_atomics::RECONNECTS.fetch_add(1, AtomicOrdering::Relaxed);
}

/// One client reconnect.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_reconnect() {}

/// Reads the process-global network counters. All-zero when the counters
/// are compiled out.
#[cfg(feature = "enabled")]
pub fn net_counters() -> NetCounters {
    let load = |a: &AtomicU64| a.load(AtomicOrdering::Relaxed);
    NetCounters {
        frames_in: load(&net_atomics::FRAMES_IN),
        frames_out: load(&net_atomics::FRAMES_OUT),
        bytes_in: load(&net_atomics::BYTES_IN),
        bytes_out: load(&net_atomics::BYTES_OUT),
        decode_errors: load(&net_atomics::DECODE_ERRORS),
        version_mismatches: load(&net_atomics::VERSION_MISMATCHES),
        reconnects: load(&net_atomics::RECONNECTS),
    }
}

/// Reads the process-global network counters. All-zero when the counters
/// are compiled out.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_counters() -> NetCounters {
    NetCounters::default()
}

/// Zeroes the process-global network counters (test isolation).
#[cfg(feature = "enabled")]
pub fn net_counters_reset() {
    let zero = |a: &AtomicU64| a.store(0, AtomicOrdering::Relaxed);
    zero(&net_atomics::FRAMES_IN);
    zero(&net_atomics::FRAMES_OUT);
    zero(&net_atomics::BYTES_IN);
    zero(&net_atomics::BYTES_OUT);
    zero(&net_atomics::DECODE_ERRORS);
    zero(&net_atomics::VERSION_MISMATCHES);
    zero(&net_atomics::RECONNECTS);
}

/// Zeroes the process-global network counters (test isolation).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn net_counters_reset() {}

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
/// keys of [`MetricsShard::error_counts`]. `unn-observe` cannot depend on
/// `unn`, so errors cross the boundary as `&'static str` labels.
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
/// snapshots bit-for-bit.
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
/// Bucket membership is a pure function of the sample, so histograms of
/// deterministic per-query quantities merge order-independently — the
/// property the batch determinism contract needs.
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

    /// Merges another histogram in (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
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

/// One worker's (or one aggregate's) metric totals. Every field except the
/// timing pair at the bottom is deterministic under the batch contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsShard {
    /// Queries recorded.
    pub queries: u64,
    /// Sum of [`CounterSet::kd_nodes_visited`] over recorded queries.
    pub kd_nodes_visited: u64,
    /// Sum of kd subtree prunes.
    pub kd_nodes_pruned: u64,
    /// Sum of ball-traversal point reports.
    pub ball_points_visited: u64,
    /// Sum of round-forest node expansions.
    pub forest_nodes_visited: u64,
    /// Sum of round-forest prunes.
    pub forest_nodes_pruned: u64,
    /// Rounds answered by the global-ball fold.
    pub mc_ball_rounds: u64,
    /// Rounds answered by per-round descents.
    pub mc_descent_rounds: u64,
    /// Adaptive checkpoints evaluated.
    pub mc_checkpoints: u64,
    /// Lemma 2.1 stage-2 candidates examined.
    pub nonzero_candidates: u64,
    /// Exact-sweep location touches.
    pub exact_location_touches: u64,
    /// Dynamic-index blocks probed by composed queries.
    pub dyn_blocks_probed: u64,
    /// Tombstones filtered out of composed queries.
    pub dyn_tombstones_filtered: u64,
    /// Dynamic-index block merges (update side).
    pub dyn_merges: u64,
    /// Dynamic-index tombstone compactions (update side).
    pub dyn_compactions: u64,
    /// Dynamic-index hot-block promotions (update side).
    pub dyn_promotions: u64,
    /// Leaf points fed through the SoA scan kernels.
    pub leaf_points_scanned: u64,
    /// Full-width lane batches executed by the SoA scan kernels.
    pub simd_batches: u64,
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
    /// Network-transport totals folded in via [`MetricsShard::absorb_net`]
    /// (all-zero for purely in-process runs).
    pub net: NetCounters,
    /// Histogram of per-query `rounds_used`.
    pub rounds_hist: Histogram,
    /// Histogram of per-query wall nanoseconds — **timing**, excluded from
    /// the deterministic snapshot.
    pub latency_hist: Histogram,
    /// Total wall nanoseconds — **timing**, excluded from the
    /// deterministic snapshot.
    pub wall_nanos: u128,
}

impl MetricsShard {
    /// Folds one query's stats in.
    pub fn record(&mut self, stats: &QueryStats) {
        self.queries += 1;
        let c = &stats.counters;
        self.kd_nodes_visited += c.kd_nodes_visited;
        self.kd_nodes_pruned += c.kd_nodes_pruned;
        self.ball_points_visited += c.ball_points_visited;
        self.forest_nodes_visited += c.forest_nodes_visited;
        self.forest_nodes_pruned += c.forest_nodes_pruned;
        self.mc_ball_rounds += c.mc_ball_rounds;
        self.mc_descent_rounds += c.mc_descent_rounds;
        self.mc_checkpoints += c.mc_checkpoints;
        self.nonzero_candidates += c.nonzero_candidates;
        self.exact_location_touches += c.exact_location_touches;
        self.dyn_blocks_probed += c.dyn_blocks_probed;
        self.dyn_tombstones_filtered += c.dyn_tombstones_filtered;
        self.dyn_merges += c.dyn_merges;
        self.dyn_compactions += c.dyn_compactions;
        self.dyn_promotions += c.dyn_promotions;
        self.leaf_points_scanned += c.leaf_points_scanned;
        self.simd_batches += c.simd_batches;
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
    /// reading taken when the snapshot is assembled).
    pub fn absorb_net(&mut self, net: &NetCounters) {
        self.net.merge(net);
    }

    /// Merges another shard in (field-wise sum).
    pub fn merge(&mut self, other: &MetricsShard) {
        self.queries += other.queries;
        self.kd_nodes_visited += other.kd_nodes_visited;
        self.kd_nodes_pruned += other.kd_nodes_pruned;
        self.ball_points_visited += other.ball_points_visited;
        self.forest_nodes_visited += other.forest_nodes_visited;
        self.forest_nodes_pruned += other.forest_nodes_pruned;
        self.mc_ball_rounds += other.mc_ball_rounds;
        self.mc_descent_rounds += other.mc_descent_rounds;
        self.mc_checkpoints += other.mc_checkpoints;
        self.nonzero_candidates += other.nonzero_candidates;
        self.exact_location_touches += other.exact_location_touches;
        self.dyn_blocks_probed += other.dyn_blocks_probed;
        self.dyn_tombstones_filtered += other.dyn_tombstones_filtered;
        self.dyn_merges += other.dyn_merges;
        self.dyn_compactions += other.dyn_compactions;
        self.dyn_promotions += other.dyn_promotions;
        self.leaf_points_scanned += other.leaf_points_scanned;
        self.simd_batches += other.simd_batches;
        self.rounds_used += other.rounds_used;
        self.rounds_total += other.rounds_total;
        self.exact_count += other.exact_count;
        self.degraded_count += other.degraded_count;
        for (a, b) in self.error_counts.iter_mut().zip(&other.error_counts) {
            *a += b;
        }
        self.net.merge(&other.net);
        self.rounds_hist.merge(&other.rounds_hist);
        self.latency_hist.merge(&other.latency_hist);
        self.wall_nanos += other.wall_nanos;
    }
}

/// Batch-run metrics aggregator: workers record into private
/// [`ShardHandle`]s (no contention on the query path) which merge into the
/// shared total once, when the worker's handle drops.
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    total: Mutex<MetricsShard>,
}

impl PipelineMetrics {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// A private per-worker shard; its totals join [`snapshot`] when the
    /// handle drops. Hand one to each worker (e.g. via rayon `map_init`).
    ///
    /// [`snapshot`]: PipelineMetrics::snapshot
    pub fn shard(&self) -> ShardHandle<'_> {
        ShardHandle {
            local: MetricsShard::default(),
            sink: self,
        }
    }

    /// Records one query directly into the shared total (takes the lock;
    /// fine for sequential use, use [`PipelineMetrics::shard`] in workers).
    pub fn record(&self, stats: &QueryStats) {
        self.lock().record(stats);
    }

    /// The current totals. Shards still held by live handles are not
    /// included — snapshot after the batch completes.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            shard: self.lock().clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsShard> {
        // A poisoned lock only means a worker panicked mid-merge; the
        // counters are still well-formed sums, so heal and continue.
        self.total.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn absorb(&self, shard: &MetricsShard) {
        self.lock().merge(shard);
    }
}

/// A worker-private recording surface for one [`PipelineMetrics`]; merges
/// into the shared total on drop.
#[derive(Debug)]
pub struct ShardHandle<'a> {
    local: MetricsShard,
    sink: &'a PipelineMetrics,
}

impl ShardHandle<'_> {
    /// Folds one query's stats into this worker's private shard.
    pub fn record(&mut self, stats: &QueryStats) {
        self.local.record(stats);
    }
}

impl Drop for ShardHandle<'_> {
    fn drop(&mut self) {
        self.sink.absorb(&self.local);
    }
}

/// A point-in-time copy of a [`PipelineMetrics`] total, with renderers.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// The aggregated totals.
    pub shard: MetricsShard,
}

impl MetricsSnapshot {
    /// The snapshot with its timing fields (latency histogram, wall-clock
    /// total) zeroed: equal across thread counts and query orders for
    /// deterministic workloads — the value the determinism tests compare.
    pub fn deterministic(&self) -> MetricsShard {
        let mut s = self.shard.clone();
        s.latency_hist = Histogram::default();
        s.wall_nanos = 0;
        s
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.shard;
        let mut out = String::new();
        let _ = writeln!(out, "pipeline metrics: {} queries", s.queries);
        let _ = writeln!(
            out,
            "  kd nodes     visited {:>12}  pruned {:>12}  ({:.1}% cut)",
            s.kd_nodes_visited,
            s.kd_nodes_pruned,
            pct(s.kd_nodes_pruned, s.kd_nodes_visited + s.kd_nodes_pruned),
        );
        let _ = writeln!(
            out,
            "  forest nodes visited {:>12}  pruned {:>12}  ({:.1}% cut)",
            s.forest_nodes_visited,
            s.forest_nodes_pruned,
            pct(
                s.forest_nodes_pruned,
                s.forest_nodes_visited + s.forest_nodes_pruned
            ),
        );
        let _ = writeln!(out, "  ball points visited  {:>12}", s.ball_points_visited);
        let _ = writeln!(
            out,
            "  mc rounds    ball {:>12}  descent {:>12}  checkpoints {}",
            s.mc_ball_rounds, s.mc_descent_rounds, s.mc_checkpoints
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
            s.nonzero_candidates, s.exact_location_touches
        );
        let _ = writeln!(
            out,
            "  dynamic: blocks probed {}, tombstones filtered {}, merges {}, compactions {}, promotions {}",
            s.dyn_blocks_probed,
            s.dyn_tombstones_filtered,
            s.dyn_merges,
            s.dyn_compactions,
            s.dyn_promotions
        );
        let _ = writeln!(
            out,
            "  kernels: leaf points scanned {}, simd batches {}",
            s.leaf_points_scanned, s.simd_batches
        );
        let _ = writeln!(
            out,
            "  net: frames {}/{} in/out, bytes {}/{} in/out, decode errors {}, version mismatches {}, reconnects {}",
            s.net.frames_in,
            s.net.frames_out,
            s.net.bytes_in,
            s.net.bytes_out,
            s.net.decode_errors,
            s.net.version_mismatches,
            s.net.reconnects
        );
        let _ = writeln!(
            out,
            "  outcomes: {} exact, {} degraded, {} errors",
            s.exact_count,
            s.degraded_count,
            s.error_counts.iter().sum::<u64>()
        );
        for (i, &c) in s.error_counts.iter().enumerate() {
            if c > 0 {
                let _ = writeln!(out, "    {}: {}", ERROR_LABELS[i], c);
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
        let s = &self.shard;
        let errors: Vec<String> = ERROR_LABELS
            .iter()
            .zip(&s.error_counts)
            .map(|(l, c)| format!("\"{l}\": {c}"))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"queries\": {},\n",
                "  \"kd_nodes_visited\": {},\n",
                "  \"kd_nodes_pruned\": {},\n",
                "  \"ball_points_visited\": {},\n",
                "  \"forest_nodes_visited\": {},\n",
                "  \"forest_nodes_pruned\": {},\n",
                "  \"mc_ball_rounds\": {},\n",
                "  \"mc_descent_rounds\": {},\n",
                "  \"mc_checkpoints\": {},\n",
                "  \"nonzero_candidates\": {},\n",
                "  \"exact_location_touches\": {},\n",
                "  \"dyn_blocks_probed\": {},\n",
                "  \"dyn_tombstones_filtered\": {},\n",
                "  \"dyn_merges\": {},\n",
                "  \"dyn_compactions\": {},\n",
                "  \"dyn_promotions\": {},\n",
                "  \"leaf_points_scanned\": {},\n",
                "  \"simd_batches\": {},\n",
                "  \"rounds_used\": {},\n",
                "  \"rounds_total\": {},\n",
                "  \"exact_count\": {},\n",
                "  \"degraded_count\": {},\n",
                "  \"net_frames_in\": {},\n",
                "  \"net_frames_out\": {},\n",
                "  \"net_bytes_in\": {},\n",
                "  \"net_bytes_out\": {},\n",
                "  \"net_decode_errors\": {},\n",
                "  \"net_version_mismatches\": {},\n",
                "  \"net_reconnects\": {},\n",
                "  \"error_counts\": {{ {} }},\n",
                "  \"rounds_hist\": {},\n",
                "  \"latency_hist\": {},\n",
                "  \"wall_nanos\": {}\n",
                "}}"
            ),
            s.queries,
            s.kd_nodes_visited,
            s.kd_nodes_pruned,
            s.ball_points_visited,
            s.forest_nodes_visited,
            s.forest_nodes_pruned,
            s.mc_ball_rounds,
            s.mc_descent_rounds,
            s.mc_checkpoints,
            s.nonzero_candidates,
            s.exact_location_touches,
            s.dyn_blocks_probed,
            s.dyn_tombstones_filtered,
            s.dyn_merges,
            s.dyn_compactions,
            s.dyn_promotions,
            s.leaf_points_scanned,
            s.simd_batches,
            s.rounds_used,
            s.rounds_total,
            s.exact_count,
            s.degraded_count,
            s.net.frames_in,
            s.net.frames_out,
            s.net.bytes_in,
            s.net.bytes_out,
            s.net.decode_errors,
            s.net.version_mismatches,
            s.net.reconnects,
            errors.join(", "),
            json_buckets(&s.rounds_hist),
            json_buckets(&s.latency_hist),
            s.wall_nanos,
        )
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
/// Like [`MetricsShard`], everything except the latency histograms is
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

    /// Merges another counter set in (field-wise sum; per-shard vectors are
    /// extended to the longer length).
    pub fn merge(&mut self, other: &ServeCounters) {
        self.queries += other.queries;
        self.answered_exact += other.answered_exact;
        self.answered_adaptive += other.answered_adaptive;
        self.answered_capped += other.answered_capped;
        self.answered_nonzero += other.answered_nonzero;
        self.shed += other.shed;
        self.shed_capacity += other.shed_capacity;
        self.shed_invalid += other.shed_invalid;
        self.shed_no_coverage += other.shed_no_coverage;
        self.shed_deadline += other.shed_deadline;
        self.degraded += other.degraded;
        self.partial += other.partial;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.shard_panics += other.shard_panics;
        self.poisoned_answers += other.poisoned_answers;
        self.exact_faults += other.exact_faults;
        self.breaker_trips += other.breaker_trips;
        self.breaker_recoveries += other.breaker_recoveries;
        if self.shard_latency.len() < other.shard_latency.len() {
            self.shard_latency
                .resize(other.shard_latency.len(), Histogram::default());
        }
        for (a, b) in self.shard_latency.iter_mut().zip(&other.shard_latency) {
            a.merge(b);
        }
        if self.shard_failures.len() < other.shard_failures.len() {
            self.shard_failures.resize(other.shard_failures.len(), 0);
        }
        for (a, b) in self.shard_failures.iter_mut().zip(&other.shard_failures) {
            *a += b;
        }
        self.query_latency.merge(&other.query_latency);
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

    /// JSON rendering (flat object; histograms as bucket arrays).
    pub fn render_json(&self) -> String {
        let shard_lat: Vec<String> = self.shard_latency.iter().map(json_buckets).collect();
        let shard_fail: Vec<String> = self.shard_failures.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\n",
                "  \"queries\": {},\n",
                "  \"answered_exact\": {},\n",
                "  \"answered_adaptive\": {},\n",
                "  \"answered_capped\": {},\n",
                "  \"answered_nonzero\": {},\n",
                "  \"shed\": {},\n",
                "  \"shed_capacity\": {},\n",
                "  \"shed_invalid\": {},\n",
                "  \"shed_no_coverage\": {},\n",
                "  \"shed_deadline\": {},\n",
                "  \"degraded\": {},\n",
                "  \"partial\": {},\n",
                "  \"retries\": {},\n",
                "  \"timeouts\": {},\n",
                "  \"shard_panics\": {},\n",
                "  \"poisoned_answers\": {},\n",
                "  \"exact_faults\": {},\n",
                "  \"breaker_trips\": {},\n",
                "  \"breaker_recoveries\": {},\n",
                "  \"query_latency\": {},\n",
                "  \"shard_latency\": [{}],\n",
                "  \"shard_failures\": [{}]\n",
                "}}"
            ),
            self.queries,
            self.answered_exact,
            self.answered_adaptive,
            self.answered_capped,
            self.answered_nonzero,
            self.shed,
            self.shed_capacity,
            self.shed_invalid,
            self.shed_no_coverage,
            self.shed_deadline,
            self.degraded,
            self.partial,
            self.retries,
            self.timeouts,
            self.shard_panics,
            self.poisoned_answers,
            self.exact_faults,
            self.breaker_trips,
            self.breaker_recoveries,
            json_buckets(&self.query_latency),
            shard_lat.join(", "),
            shard_fail.join(", "),
        )
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
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let samples = [0u64, 1, 5, 9, 100, 3, 77, 1024, 65535];
        let mut whole = Histogram::default();
        for &v in &samples {
            whole.record(v);
        }
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        b.merge(&a);
        assert_eq!(whole, b);
        assert_eq!(whole.count, samples.len() as u64);
        assert_eq!(whole.sum, samples.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn shard_record_then_merge_equals_direct() {
        let stats = |rounds: u64, outcome: QueryOutcome| QueryStats {
            rounds_used: rounds,
            rounds_total: 100,
            outcome,
            ..QueryStats::default()
        };
        let all = [
            stats(10, QueryOutcome::Exact),
            stats(20, QueryOutcome::Degraded),
            stats(30, QueryOutcome::Exact),
            QueryStats {
                outcome: QueryOutcome::Errored,
                error_label: Some("budget_exhausted"),
                ..QueryStats::default()
            },
        ];
        let mut direct = MetricsShard::default();
        for s in &all {
            direct.record(s);
        }
        let metrics = PipelineMetrics::new();
        {
            let mut h1 = metrics.shard();
            let mut h2 = metrics.shard();
            h1.record(&all[0]);
            h2.record(&all[1]);
            h1.record(&all[2]);
            h2.record(&all[3]);
        }
        assert_eq!(metrics.snapshot().shard, direct);
        assert_eq!(direct.exact_count, 2);
        assert_eq!(direct.degraded_count, 1);
        assert_eq!(direct.error_counts[3], 1);
        assert_eq!(direct.rounds_used, 60);
    }

    #[test]
    fn renders_do_not_panic_and_mention_totals() {
        let metrics = PipelineMetrics::new();
        metrics.record(&QueryStats {
            rounds_used: 12,
            rounds_total: 64,
            wall_nanos: 1500,
            ..QueryStats::default()
        });
        let snap = metrics.snapshot();
        let text = snap.render_text();
        assert!(text.contains("1 queries"));
        let json = snap.render_json();
        assert!(json.contains("\"rounds_used\": 12"));
        assert!(json.contains("\"query_panicked\": 0"));
        // The deterministic view zeroes only timing.
        let det = snap.deterministic();
        assert_eq!(det.wall_nanos, 0);
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
    fn error_labels_round_trip() {
        for (i, l) in ERROR_LABELS.iter().enumerate() {
            assert_eq!(error_label_index(l), Some(i));
        }
        assert_eq!(error_label_index("nope"), None);
    }
}
