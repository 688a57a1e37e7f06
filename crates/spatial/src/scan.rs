//! Shared SoA leaf-scan kernel for [`KdTree`](crate::KdTree) and
//! [`KdForest`](crate::KdForest).
//!
//! Leaf points live in separate `x[]`/`y[]` arenas; this module turns a
//! leaf's slot range into a stream of `(slot, distance)` pairs.
//!
//! Each leaf is split into [`SCAN_CHUNK`]-slot chunks and every chunk runs
//! in two phases: a pure distance fill into a stack buffer — a
//! straight-line loop with no calls or branches, which the compiler turns
//! into packed [`LANES`]-wide arithmetic — followed by a serial visit pass
//! over the buffer. Interleaving the consumer callback with the distance
//! math would force scalar square roots; separating the phases is what lets
//! the `sqrt`s run `LANES` at a time.
//!
//! Every element performs the exact scalar operation sequence of
//! `Point::dist`, and results reach the consumer in ascending slot order,
//! so a scan yields the same `(slot, distance bits)` stream as a per-slot
//! loop (the unit tests below pin this down at every chunk boundary).

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
/// Observability: ticks `leaf_points_scanned` by the slot count and
/// `simd_batches` by the number of full-width lane batches.
#[inline]
pub(crate) fn scan_dists<F: FnMut(usize, f64)>(
    xs: &[f64],
    ys: &[f64],
    start: usize,
    end: usize,
    q: Point,
    f: &mut F,
) {
    unn_observe::leaf_points((end - start) as u64);
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
}

/// [`scan_dists`] with an admission threshold: `f` is only invoked for
/// slots whose distance satisfies `d <= thresh()` at the time the slot is
/// reached — the common reject case never enters the consumer.
///
/// `thresh()` is re-read per slot, so a consumer that tightens its bound
/// mid-leaf (nearest-neighbor incumbents) gates later slots against the
/// newer value. Every consumer predicate implies `d <= thresh()`, so the
/// gate never drops a slot the consumer would have accepted.
#[inline]
pub(crate) fn scan_dists_below<T: FnMut() -> f64, F: FnMut(usize, f64)>(
    xs: &[f64],
    ys: &[f64],
    start: usize,
    end: usize,
    q: Point,
    thresh: &mut T,
    f: &mut F,
) {
    unn_observe::leaf_points((end - start) as u64);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leaf lengths around every lane and chunk boundary.
    const LENS: [usize; 8] = [
        0,
        1,
        LANES - 1,
        LANES,
        SCAN_CHUNK - 1,
        SCAN_CHUNK,
        SCAN_CHUNK + 1,
        2 * SCAN_CHUNK + 3,
    ];

    /// An arena long enough for every `start + len`, with coordinates that
    /// exercise rounding (irrational-ish offsets) and exact zero distances
    /// (a slot at the query point).
    fn arena(q: Point) -> (Vec<f64>, Vec<f64>) {
        let n = 5 + 2 * SCAN_CHUNK + 3;
        let mut xs: Vec<f64> = (0..n).map(|k| (k as f64 * 0.731).sin() * 37.5).collect();
        let mut ys: Vec<f64> = (0..n).map(|k| (k as f64 * 1.37).cos() * 12.25).collect();
        xs[n / 2] = q.x;
        ys[n / 2] = q.y;
        (xs, ys)
    }

    /// The per-slot loop the chunked kernel must reproduce.
    fn naive(xs: &[f64], ys: &[f64], start: usize, end: usize, q: Point) -> Vec<(usize, u64)> {
        (start..end)
            .map(|i| (i, Point::new(xs[i], ys[i]).dist(q).to_bits()))
            .collect()
    }

    #[test]
    fn scan_dists_matches_per_slot_loop() {
        let q = Point::new(0.25, -1.5);
        let (xs, ys) = arena(q);
        for start in [0usize, 5] {
            for len in LENS {
                let end = start + len;
                let mut got = Vec::new();
                scan_dists(&xs, &ys, start, end, q, &mut |slot, d| {
                    got.push((slot, d.to_bits()));
                });
                assert_eq!(
                    got,
                    naive(&xs, &ys, start, end, q),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn scan_dists_below_matches_per_slot_loop() {
        let q = Point::new(0.25, -1.5);
        let (xs, ys) = arena(q);
        for start in [0usize, 5] {
            for len in LENS {
                let end = start + len;
                let want = naive(&xs, &ys, start, end, q);
                // Fixed thresholds: nothing, a median cut, everything.
                let mut ds: Vec<f64> = want.iter().map(|&(_, b)| f64::from_bits(b)).collect();
                ds.sort_by(f64::total_cmp);
                let mid = ds.get(ds.len() / 2).copied().unwrap_or(0.0);
                for t in [-1.0, mid, f64::INFINITY] {
                    let mut got = Vec::new();
                    scan_dists_below(&xs, &ys, start, end, q, &mut || t, &mut |slot, d| {
                        got.push((slot, d.to_bits()));
                    });
                    let kept: Vec<(usize, u64)> = want
                        .iter()
                        .copied()
                        .filter(|&(_, b)| f64::from_bits(b) <= t)
                        .collect();
                    assert_eq!(got, kept, "start {start} len {len} t {t}");
                }
                // A threshold that tightens on every accepted slot, inside
                // one chunk: the gate must read the new value per slot.
                let bound = std::cell::Cell::new(f64::INFINITY);
                let mut got = Vec::new();
                scan_dists_below(
                    &xs,
                    &ys,
                    start,
                    end,
                    q,
                    &mut || bound.get(),
                    &mut |slot, d| {
                        got.push((slot, d.to_bits()));
                        bound.set(d);
                    },
                );
                let mut running = f64::INFINITY;
                let mut kept = Vec::new();
                for &(slot, b) in &want {
                    let d = f64::from_bits(b);
                    if d <= running {
                        kept.push((slot, b));
                        running = d;
                    }
                }
                assert_eq!(got, kept, "tightening: start {start} len {len}");
            }
        }
    }
}
