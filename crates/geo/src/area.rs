//! GeoBroadcast destination areas per ETSI EN 302 931.
//!
//! A GeoNetworking destination area is a circle, rectangle or ellipse
//! described by a centre position, half-axes `a`/`b` and an azimuth angle.
//! EN 302 931 defines a *geometric function* `F(x, y)` that is positive
//! inside the area, zero on its border and negative outside; packet handling
//! (whether a node floods with CBF or forwards with GF) is decided by the
//! sign of `F` at the node's own position.

use crate::{Heading, Position};
use std::fmt;

/// The shape of a destination area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AreaShape {
    /// Circular area; only the `a` half-axis (the radius) is meaningful.
    Circle,
    /// Axis-aligned-then-rotated rectangle with half-width `a` (along the
    /// azimuth direction) and half-height `b`.
    Rectangle,
    /// Ellipse with semi-major axis `a` (along the azimuth direction) and
    /// semi-minor axis `b`.
    Ellipse,
}

impl fmt::Display for AreaShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AreaShape::Circle => "circle",
            AreaShape::Rectangle => "rectangle",
            AreaShape::Ellipse => "ellipse",
        };
        f.write_str(s)
    }
}

/// A GeoBroadcast destination area (EN 302 931).
///
/// # Example
///
/// ```
/// use geonet_geo::{Area, Position};
///
/// // The paper's intra-area experiments use a rectangle covering the whole
/// // 4 km road segment.
/// let road = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
/// assert!(road.contains(Position::new(10.0, 2.5)));
/// assert!(!road.contains(Position::new(4_500.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    shape: AreaShape,
    center: Position,
    /// Half-axis along the azimuth direction, metres. For circles this is
    /// the radius.
    a: f64,
    /// Half-axis perpendicular to the azimuth direction, metres. Unused for
    /// circles.
    b: f64,
    /// Azimuth of the `a` axis in degrees clockwise from north.
    azimuth_deg: f64,
}

impl Area {
    /// Creates a circular area of radius `radius` metres centred at
    /// `center`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    #[must_use]
    pub fn circle(center: Position, radius: f64) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "radius must be positive, got {radius}");
        Area { shape: AreaShape::Circle, center, a: radius, b: radius, azimuth_deg: 0.0 }
    }

    /// Creates a rectangular area with half-length `a` along the azimuth
    /// direction and half-width `b` across it.
    ///
    /// `azimuth_deg` is measured clockwise from north; `90.0` therefore
    /// orients the `a` axis east-west, the layout of the paper's road.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not finite and positive.
    #[must_use]
    pub fn rectangle(center: Position, a: f64, b: f64, azimuth_deg: f64) -> Self {
        assert!(a.is_finite() && a > 0.0, "half-axis a must be positive, got {a}");
        assert!(b.is_finite() && b > 0.0, "half-axis b must be positive, got {b}");
        Area { shape: AreaShape::Rectangle, center, a, b, azimuth_deg }
    }

    /// Creates an elliptical area with semi-major axis `a` along the
    /// azimuth direction and semi-minor axis `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not finite and positive.
    #[must_use]
    pub fn ellipse(center: Position, a: f64, b: f64, azimuth_deg: f64) -> Self {
        assert!(a.is_finite() && a > 0.0, "half-axis a must be positive, got {a}");
        assert!(b.is_finite() && b > 0.0, "half-axis b must be positive, got {b}");
        Area { shape: AreaShape::Ellipse, center, a, b, azimuth_deg }
    }

    /// The shape of this area.
    #[must_use]
    pub fn shape(&self) -> AreaShape {
        self.shape
    }

    /// The centre of the area.
    #[must_use]
    pub fn center(&self) -> Position {
        self.center
    }

    /// Half-axis `a` (radius for circles), metres.
    #[must_use]
    pub fn half_axis_a(&self) -> f64 {
        self.a
    }

    /// Half-axis `b`, metres.
    #[must_use]
    pub fn half_axis_b(&self) -> f64 {
        self.b
    }

    /// Azimuth of the `a` axis, degrees clockwise from north.
    #[must_use]
    pub fn azimuth_deg(&self) -> f64 {
        self.azimuth_deg
    }

    /// The EN 302 931 geometric function: positive inside the area, zero on
    /// the border, negative outside.
    ///
    /// The standard defines, for a point at local canonical coordinates
    /// `(x, y)` (centre at origin, `x` along the `a` axis):
    ///
    /// * circle:    `F = 1 − (x/r)² − (y/r)²`
    /// * rectangle: `F = min(1 − (x/a)², 1 − (y/b)²)`
    /// * ellipse:   `F = 1 − (x/a)² − (y/b)²`
    #[must_use]
    pub fn geometric_function(&self, p: Position) -> f64 {
        // Transform `p` into the canonical frame: translate to centre, then
        // rotate so the azimuth direction becomes the +x axis. The azimuth
        // is clockwise from north, i.e. the axis direction vector is
        // (sin az, cos az); rotating by −(90° − az) ... simpler: project
        // onto the axis and its normal.
        let axis = Heading::from_degrees(self.azimuth_deg).unit_vector();
        let normal = Position::new(-axis.y, axis.x);
        let d = p - self.center;
        let x = d.dot(axis);
        let y = d.dot(normal);
        match self.shape {
            AreaShape::Circle => {
                let r = self.a;
                1.0 - (x / r).powi(2) - (y / r).powi(2)
            }
            AreaShape::Rectangle => {
                let fx = 1.0 - (x / self.a).powi(2);
                let fy = 1.0 - (y / self.b).powi(2);
                fx.min(fy)
            }
            AreaShape::Ellipse => 1.0 - (x / self.a).powi(2) - (y / self.b).powi(2),
        }
    }

    /// Returns `true` if `p` lies inside or on the border of the area
    /// (`F(p) ≥ 0`).
    #[must_use]
    pub fn contains(&self, p: Position) -> bool {
        self.geometric_function(p) >= 0.0
    }

    /// Distance from `p` to the area centre, metres.
    ///
    /// GeoNetworking's greedy forwarding measures *progress* as distance to
    /// the destination area's centre; this helper names that operation.
    #[must_use]
    pub fn distance_to_center(&self, p: Position) -> f64 {
        self.center.distance(p)
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} (a = {:.1} m, b = {:.1} m, az = {:.1}°)",
            self.shape, self.center, self.a, self.b, self.azimuth_deg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn circle_contains_center_and_border() {
        let c = Area::circle(Position::new(100.0, 50.0), 10.0);
        assert!(c.contains(Position::new(100.0, 50.0)));
        assert!(c.contains(Position::new(110.0, 50.0))); // border: F = 0
        assert!(!c.contains(Position::new(110.1, 50.0)));
    }

    #[test]
    fn rectangle_axis_aligned_east_west() {
        // a axis along east (azimuth 90°): spans x ∈ [−2000, 2000] around
        // the centre, y ∈ [−20, 20].
        let r = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        assert!(r.contains(Position::new(0.0, 0.0)));
        assert!(r.contains(Position::new(4_000.0, 19.9)));
        assert!(!r.contains(Position::new(4_000.1, 0.0)));
        assert!(!r.contains(Position::new(2_000.0, 20.5)));
    }

    #[test]
    fn rectangle_rotation_45_degrees() {
        let r = Area::rectangle(Position::ORIGIN, 10.0, 1.0, 45.0);
        // Along azimuth 45° (north-east diagonal).
        let diag = Heading::from_degrees(45.0).unit_vector() * 9.9;
        assert!(r.contains(diag));
        // Perpendicular to it, 2 m away: outside (half-width 1 m).
        let perp = Heading::from_degrees(135.0).unit_vector() * 2.0;
        assert!(!r.contains(perp));
    }

    #[test]
    fn ellipse_axes() {
        let e = Area::ellipse(Position::ORIGIN, 10.0, 5.0, 90.0);
        // a axis points east.
        assert!(e.contains(Position::new(9.9, 0.0)));
        assert!(!e.contains(Position::new(10.1, 0.0)));
        assert!(e.contains(Position::new(0.0, 4.9)));
        assert!(!e.contains(Position::new(0.0, 5.1)));
    }

    #[test]
    fn geometric_function_sign_convention() {
        let c = Area::circle(Position::ORIGIN, 100.0);
        assert!(c.geometric_function(Position::ORIGIN) > 0.0);
        assert!(c.geometric_function(Position::new(100.0, 0.0)).abs() < 1e-12);
        assert!(c.geometric_function(Position::new(200.0, 0.0)) < 0.0);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn circle_rejects_zero_radius() {
        let _ = Area::circle(Position::ORIGIN, 0.0);
    }

    #[test]
    #[should_panic(expected = "half-axis a must be positive")]
    fn rectangle_rejects_nan() {
        let _ = Area::rectangle(Position::ORIGIN, f64::NAN, 1.0, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let c = Area::circle(Position::ORIGIN, 500.0);
        let s = c.to_string();
        assert!(s.contains("circle") && s.contains("500.0 m"), "{s}");
    }

    proptest! {
        #[test]
        fn prop_center_always_inside(cx in -1e4f64..1e4, cy in -1e4f64..1e4,
                                     a in 1.0f64..1e4, b in 1.0f64..1e4,
                                     az in 0.0f64..360.0, shape in 0usize..3) {
            let center = Position::new(cx, cy);
            let area = match shape {
                0 => Area::circle(center, a),
                1 => Area::rectangle(center, a, b, az),
                _ => Area::ellipse(center, a, b, az),
            };
            prop_assert!(area.contains(center));
        }

        #[test]
        fn prop_far_point_outside(a in 1.0f64..1e3, b in 1.0f64..1e3,
                                  az in 0.0f64..360.0, shape in 0usize..3) {
            let center = Position::ORIGIN;
            let area = match shape {
                0 => Area::circle(center, a),
                1 => Area::rectangle(center, a, b, az),
                _ => Area::ellipse(center, a, b, az),
            };
            // Any point farther than the largest half-axis is outside.
            let far = Position::new(0.0, a.max(b) * 3.0 + 10.0);
            prop_assert!(!area.contains(far));
        }

        #[test]
        fn prop_containment_monotone_along_ray(a in 1.0f64..1e3, b in 1.0f64..1e3,
                                               az in 0.0f64..360.0,
                                               dir in 0.0f64..360.0,
                                               shape in 0usize..3) {
            // Walking outward from the centre along any fixed ray, once you
            // leave a convex area you never re-enter it.
            let center = Position::ORIGIN;
            let area = match shape {
                0 => Area::circle(center, a),
                1 => Area::rectangle(center, a, b, az),
                _ => Area::ellipse(center, a, b, az),
            };
            let u = Heading::from_degrees(dir).unit_vector();
            let mut exited = false;
            for i in 0..100 {
                let p = u * (i as f64 * (a.max(b) * 3.0 / 100.0));
                let inside = area.contains(p);
                if exited {
                    prop_assert!(!inside);
                }
                if !inside {
                    exited = true;
                }
            }
        }

        #[test]
        fn prop_circle_matches_distance(r in 1.0f64..1e4,
                                        px in -2e4f64..2e4, py in -2e4f64..2e4) {
            let c = Area::circle(Position::ORIGIN, r);
            let p = Position::new(px, py);
            let d = p.norm();
            if (d - r).abs() > 1e-6 {
                prop_assert_eq!(c.contains(p), d < r);
            }
        }
    }
}
