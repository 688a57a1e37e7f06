//! Line segments and lines, with robust intersection tests.

use crate::bbox::Aabb;
use crate::point::{lex_cmp, Point, Vector};
use crate::predicates::{orient2d, orientation, Orientation};

/// A closed line segment between two endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

/// An infinite oriented line `{ p : n·p = c }` with unit-independent normal.
///
/// The positive side is `n·p > c`; [`Line::through`] orients so that the
/// positive side is to the left of the direction `b - a`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// Normal vector (not necessarily unit).
    pub n: Vector,
    /// Offset: the line is `n·p = c`.
    pub c: f64,
}

/// Result of intersecting two segments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegIntersection {
    /// Segments do not meet.
    None,
    /// Segments meet in a single point.
    Point(Point),
    /// Segments overlap along a collinear sub-segment.
    Overlap(Point, Point),
}

impl Segment {
    /// Creates a segment.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Direction vector `b - a` (not normalized).
    #[inline]
    pub fn dir(&self) -> Vector {
        self.b - self.a
    }

    /// Tight bounding box.
    #[inline]
    pub fn bbox(&self) -> Aabb {
        Aabb::of_points(&[self.a, self.b])
    }

    /// Point at parameter `t` (`a` at 0, `b` at 1).
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// `true` if `p` lies on the closed segment (exact collinearity +
    /// bounding-box check).
    pub fn contains_point(&self, p: Point) -> bool {
        if orientation(self.a, self.b, p) != Orientation::Collinear {
            return false;
        }
        self.bbox().contains(p)
    }

    /// Squared distance from `p` to the closed segment.
    pub fn dist2_to_point(&self, p: Point) -> f64 {
        let d = self.dir();
        let l2 = d.norm2();
        if l2 == 0.0 {
            return p.dist2(self.a);
        }
        let t = ((p - self.a).dot(d) / l2).clamp(0.0, 1.0);
        p.dist2(self.at(t))
    }

    /// Robust segment–segment intersection.
    ///
    /// Orientation signs come from the exact predicate, so the *classification*
    /// (none / point / overlap) is exact; the coordinates of a transversal
    /// intersection point are computed in floating point.
    pub fn intersect(&self, other: &Segment) -> SegIntersection {
        let (p1, p2) = (self.a, self.b);
        let (p3, p4) = (other.a, other.b);

        let d1 = orient2d(p3, p4, p1);
        let d2 = orient2d(p3, p4, p2);
        let d3 = orient2d(p1, p2, p3);
        let d4 = orient2d(p1, p2, p4);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            // Proper crossing: parametric solve.
            let t = d1 / (d1 - d2);
            return SegIntersection::Point(p1.lerp(p2, t));
        }

        // Collinear / endpoint-touching cases.
        if d1 == 0.0 && d2 == 0.0 && d3 == 0.0 && d4 == 0.0 {
            // All collinear: overlap of 1D intervals in lexicographic order.
            let (mut s1, mut e1) = (p1, p2);
            if lex_cmp(s1, e1).is_gt() {
                core::mem::swap(&mut s1, &mut e1);
            }
            let (mut s2, mut e2) = (p3, p4);
            if lex_cmp(s2, e2).is_gt() {
                core::mem::swap(&mut s2, &mut e2);
            }
            let lo = if lex_cmp(s1, s2).is_lt() { s2 } else { s1 };
            let hi = if lex_cmp(e1, e2).is_lt() { e1 } else { e2 };
            return match lex_cmp(lo, hi) {
                core::cmp::Ordering::Less => SegIntersection::Overlap(lo, hi),
                core::cmp::Ordering::Equal => SegIntersection::Point(lo),
                core::cmp::Ordering::Greater => SegIntersection::None,
            };
        }

        // Endpoint touching: one orientation is zero and the endpoint lies on
        // the other segment.
        if d1 == 0.0 && other.bbox().contains(p1) {
            return SegIntersection::Point(p1);
        }
        if d2 == 0.0 && other.bbox().contains(p2) {
            return SegIntersection::Point(p2);
        }
        if d3 == 0.0 && self.bbox().contains(p3) {
            return SegIntersection::Point(p3);
        }
        if d4 == 0.0 && self.bbox().contains(p4) {
            return SegIntersection::Point(p4);
        }
        SegIntersection::None
    }
}

impl Line {
    /// Line through `a` and `b`, positive side to the left of `b - a`.
    #[inline]
    pub fn through(a: Point, b: Point) -> Self {
        let d = b - a;
        let n = d.perp();
        Line {
            n,
            c: n.dot(a.to_vector()),
        }
    }

    /// Perpendicular bisector of `p` and `q`, positive side containing `q`.
    ///
    /// The locus `{ x : d(x,p) = d(x,q) }`; points with `eval > 0` are
    /// strictly closer to `q`.
    #[inline]
    pub fn bisector(p: Point, q: Point) -> Self {
        // |x-p|^2 = |x-q|^2  <=>  2 (q - p)·x = |q|^2 - |p|^2.
        let n = 2.0 * (q - p);
        Line {
            n,
            c: q.to_vector().norm2() - p.to_vector().norm2(),
        }
    }

    /// Signed evaluation `n·p - c` (positive on the positive side).
    #[inline]
    pub fn eval(&self, p: Point) -> f64 {
        self.n.dot(p.to_vector()) - self.c
    }

    /// Intersection point of two lines, `None` if parallel.
    pub fn intersect(&self, other: &Line) -> Option<Point> {
        let det = self.n.cross(other.n);
        if det == 0.0 {
            return None;
        }
        // Solve [n1; n2] x = [c1; c2] by Cramer's rule. The cross product
        // n1 × n2 = n1.x n2.y - n1.y n2.x is the determinant.
        let x = (self.c * other.n.y - other.c * self.n.y) / det;
        let y = (self.n.x * other.c - other.n.x * self.c) / det;
        Some(Point::new(x, y))
    }

    /// Clips the line to a bounding box, returning the chord (or `None` if
    /// the line misses the box).
    pub fn clip_to_box(&self, bb: &Aabb) -> Option<Segment> {
        // Parametrize as p0 + t d, with d along the line.
        let d = Vector::new(self.n.y, -self.n.x);
        let n2 = self.n.norm2();
        if n2 == 0.0 {
            return None;
        }
        let p0 = Point::ORIGIN + self.n * (self.c / n2);
        // Liang–Barsky style clipping. Each clip parameter remembers the wall
        // (axis + coordinate) that bound it: `p0 + t d` rounds, and downstream
        // arrangement code relies on clipped endpoints lying *exactly* on the
        // box boundary so box edges get split where chords terminate.
        let (mut t0, mut t1) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut w0: Option<(u8, f64)> = None;
        let mut w1: Option<(u8, f64)> = None;
        let checks = [
            (
                0u8,
                d.x,
                bb.min.x - p0.x,
                bb.max.x - p0.x,
                bb.min.x,
                bb.max.x,
            ),
            (
                1u8,
                d.y,
                bb.min.y - p0.y,
                bb.max.y - p0.y,
                bb.min.y,
                bb.max.y,
            ),
        ];
        for (axis, dv, lo, hi, wlo, whi) in checks {
            if dv == 0.0 {
                if lo > 0.0 || hi < 0.0 {
                    return None;
                }
            } else {
                let (ta, wa, tb, wb) = if dv > 0.0 {
                    (lo / dv, wlo, hi / dv, whi)
                } else {
                    (hi / dv, whi, lo / dv, wlo)
                };
                if ta > t0 {
                    t0 = ta;
                    w0 = Some((axis, wa));
                }
                if tb < t1 {
                    t1 = tb;
                    w1 = Some((axis, wb));
                }
            }
        }
        if t0 > t1 {
            return None;
        }
        let pin = |mut p: Point, wall: Option<(u8, f64)>| -> Point {
            match wall {
                Some((0, w)) => p.x = w,
                Some((_, w)) => p.y = w,
                None => {}
            }
            p.x = p.x.clamp(bb.min.x, bb.max.x);
            p.y = p.y.clamp(bb.min.y, bb.max.y);
            p
        };
        Some(Segment::new(pin(p0 + d * t0, w0), pin(p0 + d * t1, w1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proper_crossing() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        match s1.intersect(&s2) {
            SegIntersection::Point(p) => assert!(p.dist(Point::new(1.0, 1.0)) < 1e-12),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_segments() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(s1.intersect(&s2), SegIntersection::None);
    }

    #[test]
    fn endpoint_touch() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(2.0, 5.0));
        assert_eq!(
            s1.intersect(&s2),
            SegIntersection::Point(Point::new(1.0, 0.0))
        );
        // T-junction.
        let s3 = Segment::new(Point::new(0.5, 0.0), Point::new(0.5, 3.0));
        assert_eq!(
            s1.intersect(&s3),
            SegIntersection::Point(Point::new(0.5, 0.0))
        );
    }

    #[test]
    fn collinear_overlap() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(3.0, 0.0));
        assert_eq!(
            s1.intersect(&s2),
            SegIntersection::Overlap(Point::new(1.0, 0.0), Point::new(2.0, 0.0))
        );
        // Collinear but disjoint.
        let s3 = Segment::new(Point::new(5.0, 0.0), Point::new(6.0, 0.0));
        assert_eq!(s1.intersect(&s3), SegIntersection::None);
        // Collinear touching in one point.
        let s4 = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert_eq!(
            s1.intersect(&s4),
            SegIntersection::Point(Point::new(2.0, 0.0))
        );
    }

    #[test]
    fn bisector_line_properties() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(4.0, 0.0);
        let b = Line::bisector(p, q);
        assert!(b.eval(Point::new(2.0, 7.0)).abs() < 1e-12);
        assert!(b.eval(q) > 0.0); // positive side contains q
        assert!(b.eval(p) < 0.0);
    }

    #[test]
    fn line_intersection() {
        let l1 = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let l2 = Line::through(Point::new(2.0, 0.0), Point::new(2.0, 5.0));
        let p = l1.intersect(&l2).unwrap();
        assert!(p.dist(Point::new(2.0, 2.0)) < 1e-12);
        // Parallel lines.
        let l3 = Line::through(Point::new(0.0, 1.0), Point::new(1.0, 2.0));
        assert!(l1.intersect(&l3).is_none());
    }

    #[test]
    fn clip_line_to_box() {
        let bb = Aabb::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
        let l = Line::bisector(Point::new(-1.0, 0.0), Point::new(1.0, 0.0)); // x = 0
        let s = l.clip_to_box(&bb).unwrap();
        assert!(s.a.x.abs() < 1e-12 && s.b.x.abs() < 1e-12);
        assert!((s.length() - 2.0).abs() < 1e-12);
        // A line missing the box.
        let l2 = Line::bisector(Point::new(0.0, 0.0), Point::new(10.0, 0.0)); // x = 5
        assert!(l2.clip_to_box(&bb).is_none());
    }

    #[test]
    fn dist_to_segment() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.dist2_to_point(Point::new(5.0, 3.0)), 9.0);
        assert_eq!(s.dist2_to_point(Point::new(-3.0, 4.0)), 25.0);
        assert_eq!(s.dist2_to_point(Point::new(13.0, 4.0)), 25.0);
    }

    proptest! {
        #[test]
        fn prop_intersection_point_lies_on_both(
            ax in -10.0f64..10.0, ay in -10.0f64..10.0,
            bx in -10.0f64..10.0, by in -10.0f64..10.0,
            cx in -10.0f64..10.0, cy in -10.0f64..10.0,
            dx in -10.0f64..10.0, dy in -10.0f64..10.0,
        ) {
            let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
            if let SegIntersection::Point(p) = s1.intersect(&s2) {
                prop_assert!(s1.dist2_to_point(p) < 1e-12);
                prop_assert!(s2.dist2_to_point(p) < 1e-12);
            }
        }

        #[test]
        fn prop_intersect_symmetric(
            ax in -10.0f64..10.0, ay in -10.0f64..10.0,
            bx in -10.0f64..10.0, by in -10.0f64..10.0,
            cx in -10.0f64..10.0, cy in -10.0f64..10.0,
            dx in -10.0f64..10.0, dy in -10.0f64..10.0,
        ) {
            let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
            let r12 = s1.intersect(&s2);
            let r21 = s2.intersect(&s1);
            prop_assert_eq!(
                matches!(r12, SegIntersection::None),
                matches!(r21, SegIntersection::None)
            );
        }

        #[test]
        fn prop_bisector_equidistant(
            px in -10.0f64..10.0, py in -10.0f64..10.0,
            qx in -10.0f64..10.0, qy in -10.0f64..10.0,
            t in -5.0f64..5.0,
        ) {
            let p = Point::new(px, py);
            let q = Point::new(qx, qy);
            prop_assume!(p.dist(q) > 1e-6);
            let b = Line::bisector(p, q);
            // Walk along the bisector from the midpoint.
            let m = p.midpoint(q);
            let d = Vector::new(b.n.y, -b.n.x).normalized().unwrap();
            let x = m + d * t;
            prop_assert!((x.dist(p) - x.dist(q)).abs() < 1e-9 * (1.0 + x.dist(p)));
        }
    }
}
