//! Headings (direction of travel) in the GeoNetworking convention.

use crate::Position;
use std::fmt;

/// A direction of travel in degrees **clockwise from true north**, in
/// `[0, 360)`.
///
/// This matches the encoding used by the GeoNetworking long position vector
/// (heading in units of 0.1° clockwise from north). East is 90°, south 180°,
/// west 270°.
///
/// # Example
///
/// ```
/// use geonet_geo::{Heading, Position};
///
/// let east = Heading::EAST;
/// assert_eq!(east.degrees(), 90.0);
/// // A vehicle heading east moves along +x.
/// let v = east.unit_vector();
/// assert!((v.x - 1.0).abs() < 1e-12 && v.y.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heading(f64);

impl Heading {
    /// Due north (0°), the +y direction.
    pub const NORTH: Heading = Heading(0.0);
    /// Due east (90°), the +x direction — the paper's eastbound traffic.
    pub const EAST: Heading = Heading(90.0);
    /// Due south (180°), the −y direction.
    pub const SOUTH: Heading = Heading(180.0);
    /// Due west (270°), the −x direction — the paper's westbound traffic.
    pub const WEST: Heading = Heading(270.0);

    /// Creates a heading from degrees clockwise from north, normalising
    /// into `[0, 360)`.
    #[must_use]
    pub fn from_degrees(deg: f64) -> Self {
        Heading(deg.rem_euclid(360.0))
    }

    /// Creates the heading of motion along the displacement `v`, or `None`
    /// for a zero displacement.
    #[must_use]
    pub fn from_vector(v: Position) -> Option<Self> {
        if v.x == 0.0 && v.y == 0.0 {
            return None;
        }
        // atan2 measured from +x counter-clockwise; convert to clockwise
        // from north (+y).
        let ccw_from_east = v.y.atan2(v.x).to_degrees();
        Some(Heading::from_degrees(90.0 - ccw_from_east))
    }

    /// The heading in degrees clockwise from north, in `[0, 360)`.
    #[must_use]
    pub fn degrees(self) -> f64 {
        self.0
    }

    /// The unit displacement vector of a node travelling with this heading.
    #[must_use]
    pub fn unit_vector(self) -> Position {
        let rad = self.0.to_radians();
        // Clockwise from north: x = sin, y = cos.
        Position::new(rad.sin(), rad.cos())
    }

    /// The smallest absolute angular difference to `other`, in `[0, 180]`
    /// degrees. Used to decide whether two vehicles head in roughly the
    /// same or opposite directions.
    #[must_use]
    pub fn angle_to(self, other: Heading) -> f64 {
        let diff = (self.0 - other.0).rem_euclid(360.0);
        diff.min(360.0 - diff)
    }

    /// Returns `true` if the two headings differ by more than 90°, i.e. the
    /// vehicles travel in opposing directions (e.g. the two directions of a
    /// two-way road).
    #[must_use]
    pub fn is_opposing(self, other: Heading) -> bool {
        self.angle_to(other) > 90.0
    }

    /// The opposite heading (rotated by 180°).
    #[must_use]
    pub fn reversed(self) -> Heading {
        Heading::from_degrees(self.0 + 180.0)
    }
}

impl Default for Heading {
    fn default() -> Self {
        Heading::NORTH
    }
}

impl fmt::Display for Heading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cardinal_unit_vectors() {
        let cases = [
            (Heading::NORTH, Position::new(0.0, 1.0)),
            (Heading::EAST, Position::new(1.0, 0.0)),
            (Heading::SOUTH, Position::new(0.0, -1.0)),
            (Heading::WEST, Position::new(-1.0, 0.0)),
        ];
        for (h, v) in cases {
            let u = h.unit_vector();
            assert!((u.x - v.x).abs() < 1e-12 && (u.y - v.y).abs() < 1e-12, "{h}");
        }
    }

    #[test]
    fn from_vector_round_trips_cardinals() {
        assert_eq!(Heading::from_vector(Position::new(1.0, 0.0)).unwrap(), Heading::EAST);
        assert_eq!(Heading::from_vector(Position::new(-5.0, 0.0)).unwrap(), Heading::WEST);
        assert_eq!(Heading::from_vector(Position::new(0.0, 3.0)).unwrap(), Heading::NORTH);
        assert!(Heading::from_vector(Position::ORIGIN).is_none());
    }

    #[test]
    fn normalisation_wraps() {
        assert_eq!(Heading::from_degrees(-90.0).degrees(), 270.0);
        assert_eq!(Heading::from_degrees(720.0).degrees(), 0.0);
        assert_eq!(Heading::from_degrees(450.0).degrees(), 90.0);
    }

    #[test]
    fn opposing_detection() {
        assert!(Heading::EAST.is_opposing(Heading::WEST));
        assert!(!Heading::EAST.is_opposing(Heading::EAST));
        assert!(!Heading::EAST.is_opposing(Heading::from_degrees(120.0)));
        assert!(Heading::EAST.is_opposing(Heading::from_degrees(200.0)));
    }

    #[test]
    fn reversed_is_involution() {
        let h = Heading::from_degrees(37.5);
        assert_eq!(h.reversed().reversed(), h);
        assert_eq!(Heading::EAST.reversed(), Heading::WEST);
    }

    proptest! {
        #[test]
        fn prop_degrees_in_range(d in -1e4f64..1e4) {
            let h = Heading::from_degrees(d);
            prop_assert!((0.0..360.0).contains(&h.degrees()));
        }

        #[test]
        fn prop_unit_vector_round_trip(d in 0.0f64..360.0) {
            let h = Heading::from_degrees(d);
            let back = Heading::from_vector(h.unit_vector()).unwrap();
            prop_assert!(h.angle_to(back) < 1e-6);
        }

        #[test]
        fn prop_angle_to_symmetric(a in 0.0f64..360.0, b in 0.0f64..360.0) {
            let ha = Heading::from_degrees(a);
            let hb = Heading::from_degrees(b);
            prop_assert!((ha.angle_to(hb) - hb.angle_to(ha)).abs() < 1e-9);
            prop_assert!(ha.angle_to(hb) <= 180.0 + 1e-9);
        }
    }
}
