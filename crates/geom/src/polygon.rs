//! Convex polygons and half-plane intersection.
//!
//! The discrete-distribution nonzero Voronoi diagram (paper §2.2) needs the
//! *forbidden regions* `K_ij = { x : Φ_j(x) - φ_i(x) <= 0 }`, each the
//! intersection of `k²` half-planes (Lemma 2.13 shows the boundary has `O(k)`
//! vertices). [`ConvexPolygon::halfplane_intersection`] computes such regions
//! by successive clipping, which is `O(m·v)` for `m` half-planes and `v`
//! vertices — simple, robust, and fast for the small `k` in play.

use crate::bbox::Aabb;
use crate::point::Point;
use crate::predicates::orient2d;
use crate::segment::{Line, Segment};

/// A (possibly empty) convex polygon with counter-clockwise vertices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvexPolygon {
    verts: Vec<Point>,
}

impl ConvexPolygon {
    /// The empty polygon.
    #[inline]
    pub fn empty() -> Self {
        ConvexPolygon { verts: Vec::new() }
    }

    /// Builds from vertices assumed to be convex and counter-clockwise.
    #[inline]
    pub fn from_ccw_vertices(verts: Vec<Point>) -> Self {
        debug_assert!(
            verts.len() < 3 || Self::is_ccw_convex(&verts),
            "vertices not CCW convex"
        );
        ConvexPolygon { verts }
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn from_aabb(bb: &Aabb) -> Self {
        ConvexPolygon {
            verts: vec![
                bb.min,
                Point::new(bb.max.x, bb.min.y),
                bb.max,
                Point::new(bb.min.x, bb.max.y),
            ],
        }
    }

    fn is_ccw_convex(v: &[Point]) -> bool {
        let n = v.len();
        (0..n).all(|i| orient2d(v[i], v[(i + 1) % n], v[(i + 2) % n]) >= 0.0)
    }

    /// Vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.verts
    }

    /// `true` if the polygon has no interior (fewer than 3 vertices).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.verts.len() < 3
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// `true` if there are no vertices at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Signed area (non-negative for CCW polygons).
    pub fn area(&self) -> f64 {
        let v = &self.verts;
        let n = v.len();
        if n < 3 {
            return 0.0;
        }
        let mut s = 0.0;
        for i in 0..n {
            let a = v[i];
            let b = v[(i + 1) % n];
            s += a.x * b.y - b.x * a.y;
        }
        0.5 * s
    }

    /// `true` if `p` lies in the closed polygon.
    pub fn contains(&self, p: Point) -> bool {
        let v = &self.verts;
        let n = v.len();
        if n < 3 {
            return false;
        }
        (0..n).all(|i| orient2d(v[i], v[(i + 1) % n], p) >= 0.0)
    }

    /// Tight bounding box of the vertices.
    pub fn bbox(&self) -> Aabb {
        Aabb::of_points(&self.verts)
    }

    /// Clips the polygon to the half-plane `line.eval(p) <= 0` (the
    /// *non-positive* side), Sutherland–Hodgman style.
    pub fn clip_halfplane(&self, line: &Line) -> ConvexPolygon {
        let v = &self.verts;
        let n = v.len();
        if n == 0 {
            return ConvexPolygon::empty();
        }
        let mut out: Vec<Point> = Vec::with_capacity(n + 1);
        for i in 0..n {
            let cur = v[i];
            let nxt = v[(i + 1) % n];
            let dc = line.eval(cur);
            let dn = line.eval(nxt);
            if dc <= 0.0 {
                out.push(cur);
            }
            if (dc < 0.0 && dn > 0.0) || (dc > 0.0 && dn < 0.0) {
                let t = dc / (dc - dn);
                out.push(cur.lerp(nxt, t));
            }
        }
        // Remove consecutive (near-)duplicates produced by vertices exactly
        // on the clip line.
        out.dedup_by(|a, b| a.dist2(*b) == 0.0);
        if out.len() >= 2 && out[0].dist2(out[out.len() - 1]) == 0.0 {
            out.pop();
        }
        ConvexPolygon { verts: out }
    }

    /// Intersection of half-planes `{ p : l.eval(p) <= 0 }`, clipped to the
    /// bounding box `universe` (which stands in for the whole plane).
    pub fn halfplane_intersection(lines: &[Line], universe: &Aabb) -> ConvexPolygon {
        let mut poly = ConvexPolygon::from_aabb(universe);
        for l in lines {
            poly = poly.clip_halfplane(l);
            if poly.is_degenerate() {
                return ConvexPolygon::empty();
            }
        }
        poly
    }

    /// Boundary edges as segments.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.verts.len();
        (0..n).map(move |i| Segment::new(self.verts[i], self.verts[(i + 1) % n]))
    }

    /// An interior point (the vertex centroid), `None` when degenerate.
    pub fn interior_point(&self) -> Option<Point> {
        if self.is_degenerate() {
            return None;
        }
        let n = self.verts.len() as f64;
        let (sx, sy) = self
            .verts
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Some(Point::new(sx / n, sy / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Vector;
    use proptest::prelude::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_aabb(&Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)))
    }

    #[test]
    fn area_and_contains() {
        let sq = unit_square();
        assert_eq!(sq.area(), 1.0);
        assert!(sq.contains(Point::new(0.5, 0.5)));
        assert!(sq.contains(Point::new(0.0, 0.0))); // boundary
        assert!(!sq.contains(Point::new(1.5, 0.5)));
    }

    #[test]
    fn clip_keeps_nonpositive_side() {
        let sq = unit_square();
        // Half-plane x <= 0.5: line with eval = x - 0.5.
        let l = Line {
            n: Vector::new(1.0, 0.0),
            c: 0.5,
        };
        let clipped = sq.clip_halfplane(&l);
        assert!((clipped.area() - 0.5).abs() < 1e-12);
        assert!(clipped.contains(Point::new(0.25, 0.5)));
        assert!(!clipped.contains(Point::new(0.75, 0.5)));
    }

    #[test]
    fn clip_to_empty() {
        let sq = unit_square();
        let l = Line {
            n: Vector::new(-1.0, 0.0),
            c: -2.0, // eval = -x + 2 <= 0 means x >= 2
        };
        let clipped = sq.clip_halfplane(&l);
        assert!(clipped.is_degenerate());
    }

    #[test]
    fn halfplane_intersection_triangle() {
        // x >= 0, y >= 0, x + y <= 1.
        let lines = vec![
            Line {
                n: Vector::new(-1.0, 0.0),
                c: 0.0,
            },
            Line {
                n: Vector::new(0.0, -1.0),
                c: 0.0,
            },
            Line {
                n: Vector::new(1.0, 1.0),
                c: 1.0,
            },
        ];
        let uni = Aabb::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0));
        let tri = ConvexPolygon::halfplane_intersection(&lines, &uni);
        assert_eq!(tri.len(), 3);
        assert!((tri.area() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn halfplane_intersection_empty() {
        // x <= 0 and x >= 1 simultaneously.
        let lines = vec![
            Line {
                n: Vector::new(1.0, 0.0),
                c: 0.0,
            },
            Line {
                n: Vector::new(-1.0, 0.0),
                c: -1.0,
            },
        ];
        let uni = Aabb::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0));
        let p = ConvexPolygon::halfplane_intersection(&lines, &uni);
        assert!(p.is_empty() || p.is_degenerate());
    }

    #[test]
    fn interior_point_inside() {
        let sq = unit_square();
        let ip = sq.interior_point().unwrap();
        assert!(sq.contains(ip));
        assert!(ConvexPolygon::empty().interior_point().is_none());
    }

    proptest! {
        #[test]
        fn prop_clip_area_monotone(
            nx in -1.0f64..1.0, ny in -1.0f64..1.0, c in -2.0f64..2.0,
        ) {
            prop_assume!(nx.abs() + ny.abs() > 1e-6);
            let sq = unit_square();
            let l = Line { n: Vector::new(nx, ny), c };
            let clipped = sq.clip_halfplane(&l);
            prop_assert!(clipped.area() <= sq.area() + 1e-12);
            prop_assert!(clipped.area() >= -1e-12);
        }

        #[test]
        fn prop_clipped_vertices_satisfy_halfplane(
            nx in -1.0f64..1.0, ny in -1.0f64..1.0, c in -2.0f64..2.0,
        ) {
            prop_assume!(nx.abs() + ny.abs() > 1e-6);
            let sq = unit_square();
            let l = Line { n: Vector::new(nx, ny), c };
            let clipped = sq.clip_halfplane(&l);
            for &v in clipped.vertices() {
                prop_assert!(l.eval(v) <= 1e-9);
            }
        }

        #[test]
        fn prop_halfplane_intersection_contains_witness(
            seeds in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 3..12)
        ) {
            // Half-planes all containing the origin must intersect in a region
            // containing the origin.
            let lines: Vec<Line> = seeds.iter().map(|&(x, y)| {
                let n = Vector::new(x, y);
                // eval(origin) = -c <= 0 requires c >= 0.
                Line { n, c: 1.0 + x.abs() + y.abs() }
            }).collect();
            let uni = Aabb::new(Point::new(-100.0, -100.0), Point::new(100.0, 100.0));
            let p = ConvexPolygon::halfplane_intersection(&lines, &uni);
            prop_assert!(p.contains(Point::ORIGIN));
        }
    }
}
