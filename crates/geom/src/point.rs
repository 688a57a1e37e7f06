//! Points and vectors in the plane.
//!
//! The whole workspace works in `f64` Cartesian coordinates. [`Point`] is a
//! location, [`Vector`] a displacement; the distinction keeps formulas
//! readable (e.g. `q - c` is a `Vector`, `c + v` is a `Point`).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the Euclidean plane.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
}

/// A displacement vector in the plane.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// x-component.
    pub x: f64,
    /// y-component.
    pub y: f64,
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other` (avoids the square root).
    #[inline]
    pub fn dist2(self, other: Point) -> f64 {
        (self - other).norm2()
    }

    /// Midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Interprets the point as a vector from the origin.
    #[inline]
    pub fn to_vector(self) -> Vector {
        Vector::new(self.x, self.y)
    }

    /// `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vector {
    /// The zero vector.
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// The unit vector in direction `theta` (radians, measured from +x axis).
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vector::new(theta.cos(), theta.sin())
    }

    /// Euclidean norm.
    ///
    /// Computed as `sqrt(norm2())` (not `hypot`) so that distances compare
    /// consistently with squared distances everywhere in the workspace.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (`z`-component of the 3D cross product).
    #[inline]
    pub fn cross(self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Counter-clockwise perpendicular vector.
    #[inline]
    pub fn perp(self) -> Vector {
        Vector::new(-self.y, self.x)
    }

    /// Angle from the +x axis, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Normalized copy, or `None` if the norm is zero or not finite.
    #[inline]
    pub fn normalized(self) -> Option<Vector> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector> for f64 {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: Vector) -> Vector {
        rhs * self
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

/// Total order on points by `(x, y)`; used by sweeps and canonicalization.
///
/// NaN coordinates are not meaningful inputs anywhere in this workspace; this
/// comparison treats them as equal to themselves via `total_cmp`.
#[inline]
pub fn lex_cmp(a: Point, b: Point) -> core::cmp::Ordering {
    a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic_round_trips() {
        let p = Point::new(1.0, 2.0);
        let q = Point::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vector::new(3.0, 4.0));
        assert_eq!(p + v, q);
        assert_eq!(q - v, p);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm2(), 25.0);
    }

    #[test]
    fn dist_and_midpoint() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(6.0, 8.0);
        assert_eq!(p.dist(q), 10.0);
        assert_eq!(p.dist2(q), 100.0);
        assert_eq!(p.midpoint(q), Point::new(3.0, 4.0));
        assert_eq!(p.lerp(q, 0.25), Point::new(1.5, 2.0));
    }

    #[test]
    fn dot_cross_perp() {
        let a = Vector::new(1.0, 0.0);
        let b = Vector::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.perp(), b);
    }

    #[test]
    fn from_angle_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * core::f64::consts::TAU / 16.0;
            let u = Vector::from_angle(theta);
            assert!((u.norm() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vector::ZERO.normalized().is_none());
        let v = Vector::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn lex_cmp_orders_by_x_then_y() {
        use core::cmp::Ordering;
        let a = Point::new(0.0, 5.0);
        let b = Point::new(1.0, -5.0);
        let c = Point::new(0.0, 6.0);
        assert_eq!(lex_cmp(a, b), Ordering::Less);
        assert_eq!(lex_cmp(a, c), Ordering::Less);
        assert_eq!(lex_cmp(a, a), Ordering::Equal);
    }
}
