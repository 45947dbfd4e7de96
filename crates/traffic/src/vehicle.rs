//! Vehicle identity and state.

use crate::road::Direction;
use geonet_geo::{Heading, Position};
use std::fmt;

/// Identifies a vehicle for the lifetime of a simulation run.
///
/// Ids are dense indices assigned in spawn order and never reused, so they
/// double as stable indices into per-vehicle side tables (the scenario
/// layer maps them 1:1 onto radio node ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);

impl VehicleId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The dynamic state of one vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vehicle {
    /// Stable identity.
    pub id: VehicleId,
    /// Direction of travel.
    pub direction: Direction,
    /// Lane index within the direction (0 = innermost).
    pub lane: u8,
    /// Longitudinal position: distance of the front bumper from the
    /// direction's entrance, metres.
    pub s: f64,
    /// Speed, m/s (never negative).
    pub v: f64,
    /// Whether the vehicle has left the simulation entirely (driven past
    /// the off-road margin).
    pub exited: bool,
}

impl Vehicle {
    /// Whether the vehicle is on the instrumented road segment proper
    /// (`0 ≤ s ≤ length`). Vehicles past the end are still simulated (and
    /// still relay packets) until they pass the off-road margin, but do
    /// not count as "on the road".
    #[must_use]
    pub fn on_segment(&self, road: &crate::RoadConfig) -> bool {
        !self.exited && self.s <= road.length
    }
}

impl Vehicle {
    /// Planar position of the vehicle's front bumper given the road
    /// configuration.
    #[must_use]
    pub fn position(&self, road: &crate::RoadConfig) -> Position {
        road.to_position(self.direction, self.lane, self.s)
    }

    /// The vehicle's heading.
    #[must_use]
    pub fn heading(&self) -> Heading {
        self.direction.heading()
    }
}

impl fmt::Display for Vehicle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} lane {} s={:.1} m v={:.1} m/s{}",
            self.id,
            self.direction,
            self.lane,
            self.s,
            self.v,
            if self.exited { " (exited)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoadConfig;

    #[test]
    fn position_uses_road_geometry() {
        let road = RoadConfig::paper_default();
        let v = Vehicle {
            id: VehicleId(3),
            direction: Direction::East,
            lane: 1,
            s: 120.0,
            v: 30.0,
            exited: false,
        };
        let p = v.position(&road);
        assert_eq!(p, Position::new(120.0, 7.5));
        assert_eq!(v.heading(), Heading::EAST);
    }

    #[test]
    fn id_ordering_and_display() {
        assert!(VehicleId(1) < VehicleId(2));
        assert_eq!(VehicleId(9).to_string(), "v9");
        assert_eq!(VehicleId(9).index(), 9);
    }

    #[test]
    fn display_mentions_exit() {
        let road = RoadConfig::paper_default();
        let mut v = Vehicle {
            id: VehicleId(0),
            direction: Direction::West,
            lane: 0,
            s: 0.0,
            v: 0.0,
            exited: false,
        };
        assert!(!v.to_string().contains("exited"));
        v.exited = true;
        assert!(v.to_string().contains("exited"));
        let _ = v.position(&road);
    }
}
