//! Planar positions in metres on a local tangent plane.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A position (or displacement) on the local tangent plane, in metres.
///
/// The `x` axis points east and the `y` axis points north, matching the
/// convention used by the road model (`x` is the longitudinal coordinate of
/// the paper's 4 km road segment).
///
/// `Position` doubles as a 2-D vector: subtraction of two positions yields a
/// displacement, and displacements can be added back to positions.
///
/// # Example
///
/// ```
/// use geonet_geo::Position;
///
/// let a = Position::new(3.0, 0.0);
/// let b = Position::new(0.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// assert_eq!((a + b).x, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Eastward coordinate in metres.
    pub x: f64,
    /// Northward coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin of the local tangent plane.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position from eastward (`x`) and northward (`y`) metres.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    #[must_use]
    pub fn distance(self, other: Position) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in square metres.
    ///
    /// Cheaper than [`Position::distance`]; prefer it for comparisons.
    #[must_use]
    pub fn distance_squared(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Length of this position interpreted as a vector from the origin.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.distance(Position::ORIGIN)
    }

    /// Dot product with `other` (both interpreted as vectors).
    #[must_use]
    pub fn dot(self, other: Position) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Returns the unit vector pointing from `self` towards `target`, or
    /// `None` if the two positions coincide.
    #[must_use]
    pub fn direction_to(self, target: Position) -> Option<Position> {
        let d = target - self;
        let n = d.norm();
        if n == 0.0 {
            None
        } else {
            Some(Position::new(d.x / n, d.y / n))
        }
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other`
    /// (at `t = 1`). `t` outside `[0, 1]` extrapolates.
    #[must_use]
    pub fn lerp(self, other: Position, t: f64) -> Position {
        Position::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Rotates this vector by `radians` counter-clockwise about the origin.
    #[must_use]
    pub fn rotated(self, radians: f64) -> Position {
        let (s, c) = radians.sin_cos();
        Position::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Returns `true` if both coordinates are finite (not NaN or infinite).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Returns `true` if `self` lies within `range` metres of `other`.
    ///
    /// This is the reachability predicate used by the unit-disk radio
    /// medium: nodes hear each other iff the sender's communication range
    /// covers the receiver.
    #[must_use]
    pub fn within_range(self, other: Position, range: f64) -> bool {
        self.distance_squared(other) <= range * range
    }
}

impl Add for Position {
    type Output = Position;
    fn add(self, rhs: Position) -> Position {
        Position::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Position {
    fn add_assign(&mut self, rhs: Position) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Position {
    type Output = Position;
    fn sub(self, rhs: Position) -> Position {
        Position::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Position {
    fn sub_assign(&mut self, rhs: Position) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Position {
    type Output = Position;
    fn mul(self, rhs: f64) -> Position {
        Position::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Position {
    type Output = Position;
    fn neg(self) -> Position {
        Position::new(-self.x, -self.y)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2} m, {:.2} m)", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Position::new(-2.0, 7.5);
        let b = Position::new(10.0, -1.25);
        assert!((a.distance_squared(b) - a.distance(b).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(3.0, -1.0);
        assert_eq!(a + b, Position::new(4.0, 1.0));
        assert_eq!(a - b, Position::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Position::new(2.0, 4.0));
        assert_eq!(-a, Position::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn direction_to_is_unit_length() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, 10.0);
        let d = a.direction_to(b).unwrap();
        assert!((d.norm() - 1.0).abs() < 1e-12);
        assert!(a.direction_to(a).is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(100.0, -50.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Position::new(50.0, -25.0));
    }

    #[test]
    fn rotation_quarter_turn() {
        let east = Position::new(1.0, 0.0);
        let north = east.rotated(std::f64::consts::FRAC_PI_2);
        assert!((north.x).abs() < 1e-12);
        assert!((north.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn within_range_boundary_inclusive() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(486.0, 0.0);
        assert!(a.within_range(b, 486.0));
        assert!(!a.within_range(b, 485.999));
    }

    #[test]
    fn display_formats_metres() {
        let p = Position::new(1.2345, -6.0);
        assert_eq!(p.to_string(), "(1.23 m, -6.00 m)");
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(ax in -1e6f64..1e6, ay in -1e6f64..1e6,
                                   bx in -1e6f64..1e6, by in -1e6f64..1e6) {
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(ax in -1e5f64..1e5, ay in -1e5f64..1e5,
                                    bx in -1e5f64..1e5, by in -1e5f64..1e5,
                                    cx in -1e5f64..1e5, cy in -1e5f64..1e5) {
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            let c = Position::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
        }

        #[test]
        fn prop_rotation_preserves_norm(x in -1e4f64..1e4, y in -1e4f64..1e4,
                                        theta in -10.0f64..10.0) {
            let p = Position::new(x, y);
            prop_assert!((p.rotated(theta).norm() - p.norm()).abs() < 1e-6);
        }

        #[test]
        fn prop_within_range_consistent_with_distance(
            ax in -1e5f64..1e5, ay in -1e5f64..1e5,
            bx in -1e5f64..1e5, by in -1e5f64..1e5,
            r in 0.0f64..5e4)
        {
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            // Allow a tolerance band around the boundary for float error.
            let d = a.distance(b);
            if d < r - 1e-6 {
                prop_assert!(a.within_range(b, r));
            } else if d > r + 1e-6 {
                prop_assert!(!a.within_range(b, r));
            }
        }
    }
}
