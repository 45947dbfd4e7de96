//! Local tangent-plane projection between planar metres and WGS-84.
//!
//! GeoNetworking wire formats carry latitude/longitude as signed 32-bit
//! integers in units of 1/10 micro-degree (EN 302 636-4-1 §8.5). The
//! simulation works in planar metres, so a [`GeoReference`] anchors the
//! plane at a reference WGS-84 coordinate and converts both ways with an
//! equirectangular approximation — exact enough over the paper's 4 km road
//! segment (sub-centimetre error).

use crate::Position;
use std::fmt;

/// Mean Earth radius in metres (IUGG).
const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Units of the wire format: 1/10 micro-degree per unit.
const TENTH_MICRODEG_PER_DEG: f64 = 1e7;

/// A WGS-84 coordinate in wire-format units (1/10 micro-degree integers).
///
/// This is the exact representation carried inside GeoNetworking position
/// vectors, so converting through `GeoCoord` quantises positions the same
/// way real packets do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeoCoord {
    /// Latitude in 1/10 micro-degrees, positive north.
    pub lat: i32,
    /// Longitude in 1/10 micro-degrees, positive east.
    pub lon: i32,
}

impl GeoCoord {
    /// Creates a coordinate from latitude/longitude in degrees.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is outside ±90° or the longitude outside
    /// ±180°.
    #[must_use]
    pub fn from_degrees(lat_deg: f64, lon_deg: f64) -> Self {
        assert!((-90.0..=90.0).contains(&lat_deg), "latitude out of range: {lat_deg}");
        assert!((-180.0..=180.0).contains(&lon_deg), "longitude out of range: {lon_deg}");
        GeoCoord {
            lat: (lat_deg * TENTH_MICRODEG_PER_DEG).round() as i32,
            lon: (lon_deg * TENTH_MICRODEG_PER_DEG).round() as i32,
        }
    }

    /// Latitude in degrees.
    #[must_use]
    pub fn lat_degrees(self) -> f64 {
        f64::from(self.lat) / TENTH_MICRODEG_PER_DEG
    }

    /// Longitude in degrees.
    #[must_use]
    pub fn lon_degrees(self) -> f64 {
        f64::from(self.lon) / TENTH_MICRODEG_PER_DEG
    }
}

impl fmt::Display for GeoCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.7}°, {:.7}°)", self.lat_degrees(), self.lon_degrees())
    }
}

/// A local tangent plane anchored at a reference WGS-84 coordinate.
///
/// Planar `(x, y)` metres map to (east, north) displacements from the
/// anchor using an equirectangular projection.
///
/// # Example
///
/// ```
/// use geonet_geo::{GeoReference, Position};
///
/// // Anchor near the Baltimore-Washington Parkway (the paper's road data).
/// let r = GeoReference::new(39.1, -76.8);
/// let p = Position::new(1_000.0, 250.0);
/// let coord = r.to_geo(p);
/// let back = r.to_plane(coord);
/// assert!(p.distance(back) < 0.02); // quantisation only
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoReference {
    anchor_lat_deg: f64,
    anchor_lon_deg: f64,
    /// `cos(anchor latitude)`, the east-west scale, computed once in
    /// [`GeoReference::new`].
    cos_lat: f64,
}

impl GeoReference {
    /// Creates a reference frame anchored at the given WGS-84 degrees.
    ///
    /// # Panics
    ///
    /// Panics if the anchor latitude is within 0.1° of a pole (the
    /// equirectangular east-west scale degenerates there) or out of range.
    #[must_use]
    pub fn new(anchor_lat_deg: f64, anchor_lon_deg: f64) -> Self {
        assert!(
            (-89.9..=89.9).contains(&anchor_lat_deg),
            "anchor latitude too close to a pole: {anchor_lat_deg}"
        );
        assert!(
            (-180.0..=180.0).contains(&anchor_lon_deg),
            "anchor longitude out of range: {anchor_lon_deg}"
        );
        GeoReference { anchor_lat_deg, anchor_lon_deg, cos_lat: anchor_lat_deg.to_radians().cos() }
    }

    /// A reference anchored near the Baltimore-Washington Parkway, the road
    /// whose traffic volumes calibrate the paper's simulation.
    #[must_use]
    pub fn baltimore_washington_parkway() -> Self {
        GeoReference::new(39.1, -76.8)
    }

    /// Converts a planar position to a wire-format WGS-84 coordinate.
    #[must_use]
    pub fn to_geo(&self, p: Position) -> GeoCoord {
        let lat_deg = self.anchor_lat_deg + (p.y / EARTH_RADIUS_M).to_degrees();
        let lon_deg = self.anchor_lon_deg + (p.x / (EARTH_RADIUS_M * self.cos_lat)).to_degrees();
        GeoCoord::from_degrees(lat_deg, lon_deg)
    }

    /// Converts a wire-format WGS-84 coordinate back to a planar position.
    #[must_use]
    pub fn to_plane(&self, c: GeoCoord) -> Position {
        let dlat = (c.lat_degrees() - self.anchor_lat_deg).to_radians();
        let dlon = (c.lon_degrees() - self.anchor_lon_deg).to_radians();
        Position::new(dlon * EARTH_RADIUS_M * self.cos_lat, dlat * EARTH_RADIUS_M)
    }
}

impl Default for GeoReference {
    fn default() -> Self {
        GeoReference::baltimore_washington_parkway()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn anchor_maps_to_origin() {
        let r = GeoReference::new(39.1, -76.8);
        let c = r.to_geo(Position::ORIGIN);
        assert!((c.lat_degrees() - 39.1).abs() < 1e-7);
        assert!((c.lon_degrees() + 76.8).abs() < 1e-7);
        assert!(r.to_plane(c).norm() < 0.02);
    }

    #[test]
    fn one_degree_of_latitude_is_about_111_km() {
        let r = GeoReference::new(0.0, 0.0);
        let c = GeoCoord::from_degrees(1.0, 0.0);
        let p = r.to_plane(c);
        assert!((p.y - 111_195.0).abs() < 100.0, "got {}", p.y);
        assert!(p.x.abs() < 1e-6);
    }

    #[test]
    fn quantisation_is_sub_two_centimetres() {
        // 1/10 µ° of latitude ≈ 1.1 cm.
        let r = GeoReference::default();
        let p = Position::new(1_234.567_8, 987.654_3);
        let back = r.to_plane(r.to_geo(p));
        assert!(p.distance(back) < 0.02, "error {}", p.distance(back));
    }

    #[test]
    fn geocoord_degree_round_trip() {
        let c = GeoCoord::from_degrees(39.123_456_7, -76.765_432_1);
        assert!((c.lat_degrees() - 39.123_456_7).abs() < 1e-7);
        assert!((c.lon_degrees() + 76.765_432_1).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn from_degrees_rejects_bad_latitude() {
        let _ = GeoCoord::from_degrees(91.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "too close to a pole")]
    fn reference_rejects_pole() {
        let _ = GeoReference::new(90.0, 0.0);
    }

    proptest! {
        #[test]
        fn prop_round_trip_error_bounded(x in -10_000.0f64..10_000.0,
                                         y in -10_000.0f64..10_000.0) {
            let r = GeoReference::default();
            let p = Position::new(x, y);
            let back = r.to_plane(r.to_geo(p));
            // Dominated by 1/10 µ° quantisation (~1 cm).
            prop_assert!(p.distance(back) < 0.05);
        }

        #[test]
        fn prop_cached_cosine_is_bit_identical(lat in -80.0f64..80.0, lon in -170.0f64..170.0,
                                               x in -20_000.0f64..20_000.0,
                                               y in -20_000.0f64..20_000.0,
                                               dlat in -5_000_000i32..5_000_000,
                                               dlon in -5_000_000i32..5_000_000) {
            // Both directions must equal the formula that recomputes the
            // cosine per call, bit for bit.
            let r = GeoReference::new(lat, lon);
            let cos = lat.to_radians().cos();
            let p = Position::new(x, y);
            let want = GeoCoord::from_degrees(
                lat + (y / EARTH_RADIUS_M).to_degrees(),
                lon + (x / (EARTH_RADIUS_M * cos)).to_degrees(),
            );
            prop_assert_eq!(r.to_geo(p), want);
            let c = GeoCoord {
                lat: (lat * TENTH_MICRODEG_PER_DEG).round() as i32 + dlat,
                lon: (lon * TENTH_MICRODEG_PER_DEG).round() as i32 + dlon,
            };
            let back = r.to_plane(c);
            let want_x = (c.lon_degrees() - lon).to_radians() * EARTH_RADIUS_M * cos;
            let want_y = (c.lat_degrees() - lat).to_radians() * EARTH_RADIUS_M;
            prop_assert_eq!(back.x.to_bits(), want_x.to_bits());
            prop_assert_eq!(back.y.to_bits(), want_y.to_bits());
        }

        #[test]
        fn prop_distances_preserved(ax in 0.0f64..4_000.0, ay in -20.0f64..20.0,
                                    bx in 0.0f64..4_000.0, by in -20.0f64..20.0) {
            // Over the paper's road-segment scale the projection must
            // preserve distances to better than 10 cm.
            let r = GeoReference::default();
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            let a2 = r.to_plane(r.to_geo(a));
            let b2 = r.to_plane(r.to_geo(b));
            prop_assert!((a.distance(b) - a2.distance(b2)).abs() < 0.1);
        }
    }
}
