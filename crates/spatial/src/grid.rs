//! Uniform grid index over points.
//!
//! A third backend for neighborhood queries: constant-time bucketing beats
//! trees on uniformly distributed data but degrades under clustering.
//! Cells are square with a caller-chosen size.

use unn_geom::{Aabb, Point};

/// A uniform bucket grid over a static point set.
#[derive(Clone, Debug)]
pub struct UniformGrid {
    origin: Point,
    cell: f64,
    nx: i64,
    ny: i64,
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    pts: Vec<Point>,
}

impl UniformGrid {
    /// Builds a grid with the given cell size (must be positive).
    pub fn new(points: &[Point], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "bad cell size");
        let bb = if points.is_empty() {
            Aabb::new(Point::ORIGIN, Point::new(1.0, 1.0))
        } else {
            Aabb::of_points(points)
        };
        let nx = ((bb.width() / cell).floor() as i64 + 1).max(1);
        let ny = ((bb.height() / cell).floor() as i64 + 1).max(1);
        let ncells = (nx * ny) as usize;
        let origin = bb.min;
        let cell_of = |p: Point| -> usize {
            let cx = (((p.x - origin.x) / cell).floor() as i64).clamp(0, nx - 1);
            let cy = (((p.y - origin.y) / cell).floor() as i64).clamp(0, ny - 1);
            (cy * nx + cx) as usize
        };
        // Counting sort into CSR.
        let mut counts = vec![0u32; ncells + 1];
        for p in points {
            counts[cell_of(*p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut entries = vec![0u32; points.len()];
        let mut cursor = starts.clone();
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(*p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        UniformGrid {
            origin,
            cell,
            nx,
            ny,
            starts,
            entries,
            pts: points.to_vec(),
        }
    }

    /// A build heuristic: cell size targeting ~2 points per cell for `n`
    /// points spread over `bbox`.
    pub fn auto(points: &[Point]) -> Self {
        let bb = Aabb::of_points(points);
        let n = points.len().max(1);
        let area = (bb.width() * bb.height()).max(1e-12);
        let cell = (2.0 * area / n as f64).sqrt().max(1e-12);
        Self::new(points, cell)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` if there are no points.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Calls `visit(id, dist)` for every point within distance `r` of `q`.
    pub fn for_each_in_disk(&self, q: Point, r: f64, visit: &mut dyn FnMut(usize, f64)) {
        if self.is_empty() || r < 0.0 {
            return;
        }
        let cx0 = (((q.x - r - self.origin.x) / self.cell).floor() as i64).clamp(0, self.nx - 1);
        let cx1 = (((q.x + r - self.origin.x) / self.cell).floor() as i64).clamp(0, self.nx - 1);
        let cy0 = (((q.y - r - self.origin.y) / self.cell).floor() as i64).clamp(0, self.ny - 1);
        let cy1 = (((q.y + r - self.origin.y) / self.cell).floor() as i64).clamp(0, self.ny - 1);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let c = (cy * self.nx + cx) as usize;
                for &id in &self.entries[self.starts[c] as usize..self.starts[c + 1] as usize] {
                    let d = self.pts[id as usize].dist(q);
                    if d <= r {
                        visit(id as usize, d);
                    }
                }
            }
        }
    }

    /// Nearest neighbor by expanding ring search, or `None` when empty.
    pub fn nearest(&self, q: Point) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        // Expand the search radius in cell-size increments until a hit is
        // confirmed closer than the next ring could be.
        let mut r = self.cell;
        let diag = ((self.nx as f64 * self.cell).powi(2) + (self.ny as f64 * self.cell).powi(2))
            .sqrt()
            + self.origin.dist(q)
            + self.cell;
        loop {
            let mut best: Option<(usize, f64)> = None;
            self.for_each_in_disk(q, r, &mut |id, d| {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((id, d));
                }
            });
            if let Some((_, d)) = best {
                if d <= r {
                    return best;
                }
            }
            if r > diag {
                // Fall back to full scan (query far outside the grid).
                let mut best = (0usize, f64::INFINITY);
                for (i, p) in self.pts.iter().enumerate() {
                    let d = p.dist(q);
                    if d < best.1 {
                        best = (i, d);
                    }
                }
                return Some(best);
            }
            r *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)))
            .collect()
    }

    #[test]
    fn disk_report_matches_brute_force() {
        let pts = random_points(400, 20);
        let grid = UniformGrid::auto(&pts);
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..40 {
            let q = Point::new(rng.random_range(-70.0..70.0), rng.random_range(-70.0..70.0));
            let r = rng.random_range(0.0..40.0);
            let mut got: Vec<usize> = Vec::new();
            grid.for_each_in_disk(q, r, &mut |id, _| got.push(id));
            got.sort_unstable();
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(q) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(300, 22);
        let grid = UniformGrid::auto(&pts);
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..100 {
            let q = Point::new(
                rng.random_range(-200.0..200.0),
                rng.random_range(-200.0..200.0),
            );
            let (_, d) = grid.nearest(q).unwrap();
            let want = pts.iter().map(|p| p.dist(q)).fold(f64::INFINITY, f64::min);
            assert!((d - want).abs() < 1e-12, "q={q:?} got={d} want={want}");
        }
    }

    #[test]
    fn empty_grid() {
        let grid = UniformGrid::new(&[], 1.0);
        assert!(grid.nearest(Point::ORIGIN).is_none());
        let mut count = 0;
        grid.for_each_in_disk(Point::ORIGIN, 10.0, &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn single_cell_degenerate() {
        // All points coincide: grid has one occupied cell.
        let pts = vec![Point::new(3.0, 3.0); 10];
        let grid = UniformGrid::new(&pts, 0.5);
        let (id, d) = grid.nearest(Point::new(100.0, 100.0)).unwrap();
        assert!(id < 10);
        assert!((d - Point::new(3.0, 3.0).dist(Point::new(100.0, 100.0))).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_grid_nearest_agrees(
            pts in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..60),
            qx in -90.0f64..90.0, qy in -90.0f64..90.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let grid = UniformGrid::auto(&pts);
            let q = Point::new(qx, qy);
            let (_, d) = grid.nearest(q).unwrap();
            let want = pts.iter().map(|p| p.dist(q)).fold(f64::INFINITY, f64::min);
            prop_assert!((d - want).abs() < 1e-12);
        }
    }
}
