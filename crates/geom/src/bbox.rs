//! Axis-aligned bounding boxes.

use crate::point::Point;

/// A closed axis-aligned rectangle `[min.x, max.x] x [min.y, max.y]`.
///
/// An *empty* box has `min > max` componentwise; [`Aabb::EMPTY`] is the
/// identity for [`Aabb::union`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Aabb {
    /// The empty box (identity for union).
    pub const EMPTY: Aabb = Aabb {
        min: Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    /// Box from explicit corners; `min` must be componentwise `<= max` for a
    /// non-empty box.
    #[inline]
    pub const fn new(min: Point, max: Point) -> Self {
        Aabb { min, max }
    }

    /// The tight box around a point set; [`Aabb::EMPTY`] for an empty slice.
    pub fn of_points(pts: &[Point]) -> Self {
        let mut b = Aabb::EMPTY;
        for &p in pts {
            b.insert(p);
        }
        b
    }

    /// `true` if this box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Expands the box to contain `p`.
    #[inline]
    pub fn insert(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// `true` if `p` lies in the closed box.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` if the closed boxes intersect.
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Width (x-extent); negative for empty boxes.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y-extent); negative for empty boxes.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point (meaningless for empty boxes).
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Box grown by `margin` on every side.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Aabb {
        Aabb {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Minimum distance from `q` to any point of the box (0 inside).
    #[inline]
    pub fn min_dist(&self, q: Point) -> f64 {
        let dx = (self.min.x - q.x).max(0.0).max(q.x - self.max.x);
        let dy = (self.min.y - q.y).max(0.0).max(q.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance from `q` to any point of the box.
    #[inline]
    pub fn max_dist(&self, q: Point) -> f64 {
        let dx = (q.x - self.min.x).abs().max((q.x - self.max.x).abs());
        let dy = (q.y - self.min.y).abs().max((q.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared minimum distance (avoids a square root in pruning loops).
    #[inline]
    pub fn min_dist2(&self, q: Point) -> f64 {
        let dx = (self.min.x - q.x).max(0.0).max(q.x - self.max.x);
        let dy = (self.min.y - q.y).max(0.0).max(q.y - self.max.y);
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_union_identity() {
        let b = Aabb::of_points(&[Point::new(1.0, 2.0), Point::new(-1.0, 5.0)]);
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert!(Aabb::EMPTY.is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn contains_and_intersects() {
        let b = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(b.contains(Point::new(1.0, 1.0)));
        assert!(b.contains(Point::new(0.0, 2.0))); // boundary
        assert!(!b.contains(Point::new(2.1, 1.0)));
        let c = Aabb::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert!(b.intersects(&c)); // corner touch counts
        let d = Aabb::new(Point::new(2.5, 2.5), Point::new(3.0, 3.0));
        assert!(!b.intersects(&d));
    }

    #[test]
    fn distances() {
        let b = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert_eq!(b.min_dist(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.min_dist(Point::new(5.0, 1.0)), 3.0);
        assert_eq!(b.min_dist(Point::new(5.0, 6.0)), 5.0);
        assert_eq!(b.max_dist(Point::new(0.0, 0.0)), (8.0f64).sqrt());
        assert_eq!(b.min_dist2(Point::new(5.0, 6.0)), 25.0);
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let b = Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).inflate(0.5);
        assert_eq!(b.min, Point::new(-0.5, -0.5));
        assert_eq!(b.max, Point::new(1.5, 1.5));
        assert_eq!(b.center(), Point::new(0.5, 0.5));
        assert_eq!(b.width(), 2.0);
    }
}
