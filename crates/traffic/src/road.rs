//! Road geometry: the paper's 4 km segment.

use geonet_geo::{Heading, Position};
use std::fmt;

use crate::IdmParams;

/// Direction of travel on the road.
///
/// The road runs east-west: eastbound vehicles enter at `x = 0` and exit at
/// `x = length`; westbound vehicles do the opposite. One-way roads carry
/// only eastbound traffic, matching the paper's default single-direction
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Travelling towards increasing `x` (the paper's default direction).
    East,
    /// Travelling towards decreasing `x` (present on two-way roads only).
    West,
}

impl Direction {
    /// The heading of vehicles travelling in this direction.
    #[must_use]
    pub fn heading(self) -> Heading {
        match self {
            Direction::East => Heading::EAST,
            Direction::West => Heading::WEST,
        }
    }

    /// The opposite direction.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::East => f.write_str("eastbound"),
            Direction::West => f.write_str("westbound"),
        }
    }
}

/// Configuration of the simulated road segment and its traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadConfig {
    /// Segment length, metres (paper: 4 000 m).
    pub length: f64,
    /// Lanes per direction (paper: 2).
    pub lanes_per_direction: u8,
    /// Lane width, metres (paper: 5 m).
    pub lane_width: f64,
    /// Whether westbound lanes exist (paper's "two directions" setting).
    pub two_way: bool,
    /// Target inter-vehicle spacing, metres: initial placement gap and the
    /// entry rule's headway (paper default: 30 m; swept to 100 m / 300 m).
    pub spacing: f64,
    /// Vehicle length, metres (paper: 4.5 m).
    pub vehicle_length: f64,
    /// Entry speed, m/s (paper: 30 m/s).
    pub entry_speed: f64,
    /// How far past the end of the segment a vehicle keeps driving (and
    /// communicating) before it is dropped from the simulation, metres.
    ///
    /// Physically, a car does not vanish at the segment boundary: it
    /// drives on, still able to relay packets to the destination nodes
    /// placed 20 m beyond the ends. The margin is sized so that a
    /// vehicle's location-table ghost (TTL 20 s ≈ 600 m at 30 m/s) never
    /// outlives the real, still-reachable vehicle.
    pub offroad_margin: f64,
    /// Car-following parameters (paper Table I).
    pub idm: IdmParams,
}

impl RoadConfig {
    /// The paper's default simulation settings: single-direction two-lane
    /// 4 000 m road, 30 m inter-vehicle space, 30 m/s entry speed, 4.5 m
    /// vehicles, Table I IDM parameters.
    #[must_use]
    pub fn paper_default() -> Self {
        RoadConfig {
            length: 4_000.0,
            lanes_per_direction: 2,
            lane_width: 5.0,
            two_way: false,
            spacing: 30.0,
            vehicle_length: 4.5,
            entry_speed: 30.0,
            offroad_margin: 600.0,
            idm: IdmParams::paper_default(),
        }
    }

    /// The paper's two-direction variant.
    #[must_use]
    pub fn paper_two_way() -> Self {
        RoadConfig { two_way: true, ..RoadConfig::paper_default() }
    }

    /// Returns this configuration with a different inter-vehicle spacing.
    #[must_use]
    pub fn with_spacing(self, spacing: f64) -> Self {
        RoadConfig { spacing, ..self }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("length", self.length),
            ("lane_width", self.lane_width),
            ("spacing", self.spacing),
            ("vehicle_length", self.vehicle_length),
            ("entry_speed", self.entry_speed),
            ("offroad_margin", self.offroad_margin),
        ];
        for (name, v) in checks {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("road config {name} must be finite and positive, got {v}"));
            }
        }
        if self.lanes_per_direction == 0 {
            return Err("road needs at least one lane per direction".into());
        }
        if self.spacing <= self.vehicle_length {
            return Err(format!(
                "spacing {} must exceed vehicle length {}",
                self.spacing, self.vehicle_length
            ));
        }
        self.idm.validate()
    }

    /// The directions present on this road.
    #[must_use]
    pub fn directions(&self) -> &'static [Direction] {
        if self.two_way {
            &[Direction::East, Direction::West]
        } else {
            &[Direction::East]
        }
    }

    /// The lateral (`y`) centre-line coordinate of a lane.
    ///
    /// Eastbound lanes sit at positive `y` (lane 0 innermost), westbound at
    /// negative `y`, mirroring a real divided road.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for the configuration.
    #[must_use]
    pub fn lane_y(&self, direction: Direction, lane: u8) -> f64 {
        assert!(lane < self.lanes_per_direction, "lane {lane} out of range");
        let offset = (f64::from(lane) + 0.5) * self.lane_width;
        match direction {
            Direction::East => offset,
            Direction::West => -offset,
        }
    }

    /// Converts a longitudinal coordinate (distance travelled from the
    /// direction's entrance) to a planar position in the given lane.
    #[must_use]
    pub fn to_position(&self, direction: Direction, lane: u8, s: f64) -> Position {
        let x = match direction {
            Direction::East => s,
            Direction::West => self.length - s,
        };
        Position::new(x, self.lane_y(direction, lane))
    }

    /// Converts a planar `x` coordinate to the longitudinal coordinate of
    /// the given direction.
    #[must_use]
    pub fn to_longitudinal(&self, direction: Direction, x: f64) -> f64 {
        match direction {
            Direction::East => x,
            Direction::West => self.length - x,
        }
    }
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let r = RoadConfig::paper_default();
        assert_eq!(r.length, 4_000.0);
        assert_eq!(r.lanes_per_direction, 2);
        assert_eq!(r.lane_width, 5.0);
        assert!(!r.two_way);
        assert_eq!(r.spacing, 30.0);
        assert_eq!(r.vehicle_length, 4.5);
        assert_eq!(r.entry_speed, 30.0);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn two_way_has_both_directions() {
        assert_eq!(RoadConfig::paper_default().directions(), &[Direction::East]);
        assert_eq!(RoadConfig::paper_two_way().directions(), &[Direction::East, Direction::West]);
    }

    #[test]
    fn lane_y_mirrors_directions() {
        let r = RoadConfig::paper_default();
        assert_eq!(r.lane_y(Direction::East, 0), 2.5);
        assert_eq!(r.lane_y(Direction::East, 1), 7.5);
        assert_eq!(r.lane_y(Direction::West, 0), -2.5);
        assert_eq!(r.lane_y(Direction::West, 1), -7.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_y_rejects_bad_lane() {
        let _ = RoadConfig::paper_default().lane_y(Direction::East, 2);
    }

    #[test]
    fn longitudinal_round_trip() {
        let r = RoadConfig::paper_default();
        let p = r.to_position(Direction::West, 1, 1_000.0);
        assert_eq!(p.x, 3_000.0);
        assert_eq!(p.y, -7.5);
        assert_eq!(r.to_longitudinal(Direction::West, p.x), 1_000.0);
        let p = r.to_position(Direction::East, 0, 250.0);
        assert_eq!(p.x, 250.0);
        assert_eq!(r.to_longitudinal(Direction::East, p.x), 250.0);
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::West.opposite(), Direction::East);
        assert_eq!(Direction::East.heading(), geonet_geo::Heading::EAST);
        assert_eq!(Direction::East.to_string(), "eastbound");
    }

    #[test]
    fn validate_catches_errors() {
        let mut r = RoadConfig::paper_default();
        r.spacing = 4.0; // below vehicle length
        assert!(r.validate().unwrap_err().contains("spacing"));
        let mut r = RoadConfig::paper_default();
        r.lanes_per_direction = 0;
        assert!(r.validate().is_err());
        let mut r = RoadConfig::paper_default();
        r.length = f64::NAN;
        assert!(r.validate().is_err());
    }

    #[test]
    fn with_spacing_builder() {
        let r = RoadConfig::paper_default().with_spacing(100.0);
        assert_eq!(r.spacing, 100.0);
        assert_eq!(r.length, 4_000.0);
    }
}
