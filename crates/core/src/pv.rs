//! Position vectors (EN 302 636-4-1 §8.5).
//!
//! Every beacon and every GeoNetworking packet carries the *long position
//! vector* (LPV) of its source: address, timestamp, WGS-84 position,
//! position-accuracy indicator, speed and heading. The location table
//! stores the LPVs learned from neighbours, and greedy forwarding ranks
//! neighbours by the positions they advertised — which is exactly what the
//! paper's inter-area interception attack poisons by replaying stale-but-
//! authentic beacons out of their radio context.

use crate::types::{GnAddress, Timestamp};
use geonet_geo::{GeoCoord, GeoReference, Heading, Position};
use std::fmt;

/// The long position vector: the source's identity and kinematic state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongPositionVector {
    /// GeoNetworking address of the advertising node.
    pub addr: GnAddress,
    /// Time the position was acquired (ms mod 2³²).
    pub timestamp: Timestamp,
    /// WGS-84 position in wire units (1/10 micro-degree).
    pub coord: GeoCoord,
    /// Position accuracy indicator: `true` if the position is accurate.
    pub pai: bool,
    /// Speed in units of 0.01 m/s (signed; negative means reversing).
    pub speed_cm_s: i16,
    /// Heading in units of 0.1° clockwise from north.
    pub heading_decideg: u16,
}

impl LongPositionVector {
    /// Builds an LPV from simulation state.
    ///
    /// `position` is projected into WGS-84 wire units with `reference`;
    /// speed is clamped into the encodable ±327.67 m/s.
    #[must_use]
    pub fn from_sim(
        addr: GnAddress,
        now: geonet_sim::SimTime,
        position: Position,
        speed_m_s: f64,
        heading: Heading,
        reference: &GeoReference,
    ) -> Self {
        let speed_cm = (speed_m_s * 100.0).round().clamp(-32_768.0, 32_767.0) as i16;
        let heading_decideg = (heading.degrees() * 10.0).round().rem_euclid(3_600.0) as u16;
        LongPositionVector {
            addr,
            timestamp: Timestamp::from_sim(now),
            coord: reference.to_geo(position),
            pai: true,
            speed_cm_s: speed_cm,
            heading_decideg,
        }
    }

    /// The advertised position projected back onto the simulation plane.
    #[must_use]
    pub fn position(&self, reference: &GeoReference) -> Position {
        reference.to_plane(self.coord)
    }

    /// Speed in m/s.
    #[must_use]
    pub fn speed_m_s(&self) -> f64 {
        f64::from(self.speed_cm_s) / 100.0
    }

    /// Heading of travel.
    #[must_use]
    pub fn heading(&self) -> Heading {
        Heading::from_degrees(f64::from(self.heading_decideg) / 10.0)
    }
}

impl fmt::Display for LongPositionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PV[{} @ {} {} {:.1} m/s {}]",
            self.addr,
            self.coord,
            self.timestamp,
            self.speed_m_s(),
            self.heading()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::SimTime;
    use proptest::prelude::*;

    fn reference() -> GeoReference {
        GeoReference::default()
    }

    #[test]
    fn from_sim_round_trips_position() {
        let r = reference();
        let p = Position::new(1_500.0, 7.5);
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(1),
            SimTime::from_secs(10),
            p,
            30.0,
            Heading::EAST,
            &r,
        );
        assert!(pv.position(&r).distance(p) < 0.02);
        assert_eq!(pv.speed_m_s(), 30.0);
        assert_eq!(pv.heading(), Heading::EAST);
        assert_eq!(pv.timestamp.millis(), 10_000);
        assert!(pv.pai);
    }

    #[test]
    fn speed_clamps_at_encoding_limits() {
        let r = reference();
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(1),
            SimTime::ZERO,
            Position::ORIGIN,
            1_000.0,
            Heading::NORTH,
            &r,
        );
        assert_eq!(pv.speed_cm_s, 32_767);
    }

    #[test]
    fn heading_wraps_at_360() {
        let r = reference();
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(1),
            SimTime::ZERO,
            Position::ORIGIN,
            0.0,
            Heading::from_degrees(359.99),
            &r,
        );
        assert!(pv.heading_decideg < 3_600);
    }

    #[test]
    fn display_mentions_address() {
        let r = reference();
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(0xAB),
            SimTime::ZERO,
            Position::ORIGIN,
            0.0,
            Heading::NORTH,
            &r,
        );
        assert!(pv.to_string().contains("vehicle"), "{pv}");
    }

    proptest! {
        #[test]
        fn prop_kinematics_round_trip(x in 0.0f64..4_000.0, y in -20.0f64..20.0,
                                      speed in 0.0f64..100.0, hdg in 0.0f64..360.0) {
            let r = reference();
            let pv = LongPositionVector::from_sim(
                GnAddress::vehicle(1),
                SimTime::from_secs(1),
                Position::new(x, y),
                speed,
                Heading::from_degrees(hdg),
                &r,
            );
            prop_assert!(pv.position(&r).distance(Position::new(x, y)) < 0.05);
            prop_assert!((pv.speed_m_s() - speed).abs() < 0.006);
            prop_assert!(pv.heading().angle_to(Heading::from_degrees(hdg)) < 0.06);
        }
    }
}
