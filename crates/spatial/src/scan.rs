//! Shared SoA leaf-scan kernel for [`KdTree`](crate::KdTree) and
//! [`KdForest`](crate::KdForest).
//!
//! Leaf points live in separate `x[]`/`y[]` arenas; this module turns a
//! leaf's slot range into a stream of `(slot, distance)` pairs. The `BATCH`
//! const parameter selects between the two-phase batched layout and the
//! plain scalar loop retained as the differential oracle.
//!
//! The batched path splits each leaf into [`SCAN_CHUNK`]-slot chunks and
//! processes every chunk in two phases: a pure distance fill into a stack
//! buffer — a straight-line loop with no calls or branches, which the
//! compiler turns into packed [`LANES`]-wide arithmetic — followed by a
//! serial visit pass over the buffer. Interleaving the consumer callback
//! with the distance math (the scalar layout) forces scalar square roots;
//! separating the phases is what lets the `sqrt`s run `LANES` at a time.
//!
//! Both paths perform the exact scalar operation sequence of `Point::dist`
//! per element and hand results to the consumer in ascending slot order, so
//! they are **bit-identical** by construction — `tests/kernel_equivalence.rs`
//! at the workspace root guards that equivalence against drift.

use unn_geom::kernels::LANES;
use unn_geom::Point;

/// Slots per two-phase chunk: bounds the stack distance buffer while
/// staying large enough that the vectorized fill amortizes the phase
/// switch for every leaf size [`crate::KdConfig`] allows.
pub(crate) const SCAN_CHUNK: usize = 256;

/// Fills `dbuf[k] = d(q, p_{start+k})` for `k < end - start` with the exact
/// `Point::dist` operation sequence per element. Pure straight-line loop —
/// this is the autovectorization surface.
#[inline]
fn fill_dists(xs: &[f64], ys: &[f64], start: usize, end: usize, q: Point, dbuf: &mut [f64]) {
    let len = end - start;
    let (xc, yc) = (&xs[start..end], &ys[start..end]);
    for ((dst, &x), &y) in dbuf[..len].iter_mut().zip(xc).zip(yc) {
        let dx = x - q.x;
        let dy = y - q.y;
        *dst = (dx * dx + dy * dy).sqrt();
    }
}

/// Feeds `f` with `(slot, d(q, p_slot))` for every slot in `start..end`,
/// in ascending slot order, where `p_slot = (xs[slot], ys[slot])`.
///
/// Observability: ticks `leaf_points_scanned` by the slot count and (when
/// `BATCH`) `simd_batches` by the number of full-width lane batches.
#[inline]
pub(crate) fn scan_dists<const BATCH: bool, F: FnMut(usize, f64)>(
    xs: &[f64],
    ys: &[f64],
    start: usize,
    end: usize,
    q: Point,
    f: &mut F,
) {
    unn_observe::leaf_points((end - start) as u64);
    if BATCH {
        unn_observe::simd_batches_add(((end - start) / LANES) as u64);
        let mut dbuf = [0.0f64; SCAN_CHUNK];
        let mut i = start;
        while i < end {
            let stop = (i + SCAN_CHUNK).min(end);
            fill_dists(xs, ys, i, stop, q, &mut dbuf);
            for (k, &d) in dbuf[..stop - i].iter().enumerate() {
                f(i + k, d);
            }
            i = stop;
        }
    } else {
        for i in start..end {
            let dx = xs[i] - q.x;
            let dy = ys[i] - q.y;
            f(i, (dx * dx + dy * dy).sqrt());
        }
    }
}

/// [`scan_dists`] with an admission threshold: `f` is only invoked for
/// slots whose distance satisfies `d <= thresh()` at the time the slot is
/// reached — the common reject case never enters the consumer.
///
/// `thresh()` is re-read per slot, so a consumer that tightens its bound
/// mid-leaf (nearest-neighbor incumbents) gates later slots against the
/// newer value. Since every consumer predicate implies `d <= thresh()`,
/// the gate never drops a slot the consumer would have accepted, and
/// consumer-visible behavior is bit-identical across both `BATCH` modes.
#[inline]
pub(crate) fn scan_dists_below<const BATCH: bool, T: FnMut() -> f64, F: FnMut(usize, f64)>(
    xs: &[f64],
    ys: &[f64],
    start: usize,
    end: usize,
    q: Point,
    thresh: &mut T,
    f: &mut F,
) {
    unn_observe::leaf_points((end - start) as u64);
    if BATCH {
        unn_observe::simd_batches_add(((end - start) / LANES) as u64);
        let mut dbuf = [0.0f64; SCAN_CHUNK];
        let mut i = start;
        while i < end {
            let stop = (i + SCAN_CHUNK).min(end);
            fill_dists(xs, ys, i, stop, q, &mut dbuf);
            for (k, &d) in dbuf[..stop - i].iter().enumerate() {
                if d <= thresh() {
                    f(i + k, d);
                }
            }
            i = stop;
        }
    } else {
        for i in start..end {
            let dx = xs[i] - q.x;
            let dy = ys[i] - q.y;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= thresh() {
                f(i, d);
            }
        }
    }
}
