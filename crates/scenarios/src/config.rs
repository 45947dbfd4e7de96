//! Scenario configuration shared by all experiments.

use geonet::{GnConfig, MitigationConfig};
use geonet_attack::BlockageMode;
use geonet_geo::Position;
use geonet_radio::{AccessTechnology, RangeProfile};
use geonet_sim::SimDuration;
use geonet_traffic::RoadConfig;

/// Which attack (if any) the attacker mounts when enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackerSetup {
    /// Inter-area interception: replay all sniffed beacons.
    InterArea,
    /// Intra-area blockage with the given transmit mode.
    IntraArea(BlockageMode),
}

/// Configuration of one simulated scenario.
///
/// The default values mirror the paper's §IV-A "default simulation
/// settings": a single-direction two-lane 4 000 m road, 30 m inter-vehicle
/// space, DSRC with the median NLoS vehicle range, a 20 s LocT TTL, 200 s
/// runs, and the attacker at the centre of the road.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Road and traffic model.
    pub road: RoadConfig,
    /// Access technology (sets the vehicle range and `DIST_MAX`).
    pub tech: AccessTechnology,
    /// Vehicle-to-vehicle communication range, metres (paper: the
    /// technology's median NLoS range).
    pub v2v_range: f64,
    /// GeoNetworking protocol parameters.
    pub gn: GnConfig,
    /// Attacker position (paper: centre of the road, on the roadside).
    pub attacker_position: Position,
    /// Attacker communication (attack) range, metres.
    pub attack_range: f64,
    /// Run length (paper: 200 s).
    pub duration: SimDuration,
    /// Traffic integration step, seconds (paper-scale: 0.1 s).
    pub traffic_dt: f64,
    /// Probability that any individual frame delivery is lost (extension;
    /// the paper's unit-disk channel is lossless, i.e. 0.0).
    pub frame_loss_rate: f64,
    /// Attacker velocity along +x, m/s (extension; the paper's attacker
    /// is stationary, i.e. 0.0).
    pub attacker_velocity: f64,
}

impl ScenarioConfig {
    /// The paper's default DSRC scenario.
    #[must_use]
    pub fn paper_dsrc_default() -> Self {
        ScenarioConfig::paper_default(AccessTechnology::Dsrc)
    }

    /// The paper's default scenario for either technology: vehicles use
    /// the median NLoS range; the attacker sits at the road centre with
    /// the worst NLoS range (the paper's conservative default after
    /// Figure 7a/7b).
    #[must_use]
    pub fn paper_default(tech: AccessTechnology) -> Self {
        let profile = RangeProfile::for_technology(tech);
        ScenarioConfig {
            road: RoadConfig::paper_default(),
            tech,
            v2v_range: profile.nlos_median(),
            gn: GnConfig::paper_default(profile.dist_max()),
            attacker_position: Position::new(2_000.0, -12.0),
            attack_range: profile.nlos_worst(),
            duration: SimDuration::from_secs(200),
            traffic_dt: 0.1,
            frame_loss_rate: 0.0,
            attacker_velocity: 0.0,
        }
    }

    /// The technology's range profile.
    #[must_use]
    pub fn profile(&self) -> RangeProfile {
        RangeProfile::for_technology(self.tech)
    }

    /// Returns this configuration with a different attack range.
    #[must_use]
    pub fn with_attack_range(self, range: f64) -> Self {
        ScenarioConfig { attack_range: range, ..self }
    }

    /// Returns this configuration with a different LocT TTL.
    #[must_use]
    pub fn with_loct_ttl(self, ttl: SimDuration) -> Self {
        ScenarioConfig { gn: self.gn.with_loct_ttl(ttl), ..self }
    }

    /// Returns this configuration with a different inter-vehicle spacing.
    #[must_use]
    pub fn with_spacing(self, spacing: f64) -> Self {
        ScenarioConfig { road: self.road.with_spacing(spacing), ..self }
    }

    /// Returns this configuration with two-way traffic.
    #[must_use]
    pub fn with_two_way(self, two_way: bool) -> Self {
        ScenarioConfig { road: RoadConfig { two_way, ..self.road }, ..self }
    }

    /// Returns this configuration with the given mitigations enabled.
    #[must_use]
    pub fn with_mitigations(self, mitigations: MitigationConfig) -> Self {
        ScenarioConfig { gn: self.gn.with_mitigations(mitigations), ..self }
    }

    /// Returns this configuration with a shorter run (used by tests and
    /// benches; the paper's full scale is 200 s × 100 runs).
    #[must_use]
    pub fn with_duration(self, duration: SimDuration) -> Self {
        ScenarioConfig { duration, ..self }
    }

    /// Returns this configuration with per-frame loss (extension).
    #[must_use]
    pub fn with_frame_loss(self, rate: f64) -> Self {
        ScenarioConfig { frame_loss_rate: rate, ..self }
    }

    /// Returns this configuration with a mobile attacker (extension).
    #[must_use]
    pub fn with_attacker_velocity(self, v: f64) -> Self {
        ScenarioConfig { attacker_velocity: v, ..self }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.road.validate()?;
        for (name, v) in [("v2v_range", self.v2v_range), ("attack_range", self.attack_range)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        if !self.attacker_position.is_finite() {
            return Err("attacker position must be finite".into());
        }
        if !(self.traffic_dt.is_finite() && self.traffic_dt > 0.0) {
            return Err(format!("traffic_dt must be positive, got {}", self.traffic_dt));
        }
        if self.duration == SimDuration::ZERO {
            return Err("duration must be positive".into());
        }
        if !(0.0..1.0).contains(&self.frame_loss_rate) {
            return Err(format!("frame_loss_rate must be in [0, 1), got {}", self.frame_loss_rate));
        }
        if !self.attacker_velocity.is_finite() {
            return Err("attacker velocity must be finite".into());
        }
        Ok(())
    }
}

/// Experiment scale: how many A/B run pairs and how long each run is.
///
/// The paper uses 100 runs × 200 s per setting. That is available via
/// [`Scale::paper`], but tests and Criterion benches use reduced scales —
/// the statistics converge with the same shape, just wider error bars
/// (documented in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of seeded A/B run pairs per setting.
    pub runs: u32,
    /// Length of each run, seconds.
    pub duration_s: u64,
}

impl Scale {
    /// The paper's full scale: 100 runs × 200 s.
    #[must_use]
    pub fn paper() -> Self {
        Scale { runs: 100, duration_s: 200 }
    }

    /// A quick scale for smoke tests and benches: 2 runs × 60 s.
    #[must_use]
    pub fn quick() -> Self {
        Scale { runs: 2, duration_s: 60 }
    }

    /// A medium scale: 10 runs × 200 s.
    #[must_use]
    pub fn medium() -> Self {
        Scale { runs: 10, duration_s: 200 }
    }

    /// The run duration as a [`SimDuration`].
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_s)
    }
}

/// A flat, primitive-typed summary of a configuration, for experiment
/// reports.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    /// Technology name.
    pub tech: String,
    /// Vehicle range, metres.
    pub v2v_range: f64,
    /// Attack range, metres.
    pub attack_range: f64,
    /// LocT TTL, seconds.
    pub ttl_s: u64,
    /// Inter-vehicle spacing, metres.
    pub spacing: f64,
    /// Two-way road?
    pub two_way: bool,
    /// Run length, seconds.
    pub duration_s: u64,
}

impl From<&ScenarioConfig> for ConfigSummary {
    fn from(c: &ScenarioConfig) -> Self {
        ConfigSummary {
            tech: c.tech.to_string(),
            v2v_range: c.v2v_range,
            attack_range: c.attack_range,
            ttl_s: c.gn.loct_ttl.as_secs(),
            spacing: c.road.spacing,
            two_way: c.road.two_way,
            duration_s: c.duration.as_secs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let c = ScenarioConfig::paper_dsrc_default();
        assert_eq!(c.v2v_range, 486.0);
        assert_eq!(c.attack_range, 327.0);
        assert_eq!(c.gn.dist_max, 1_283.0);
        assert_eq!(c.duration, SimDuration::from_secs(200));
        assert_eq!(c.attacker_position.x, 2_000.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cv2x_default_values() {
        let c = ScenarioConfig::paper_default(AccessTechnology::CV2x);
        assert_eq!(c.v2v_range, 593.0);
        assert_eq!(c.attack_range, 359.0);
        assert_eq!(c.gn.dist_max, 1_703.0);
    }

    #[test]
    fn builders_compose() {
        let c = ScenarioConfig::paper_dsrc_default()
            .with_attack_range(486.0)
            .with_loct_ttl(SimDuration::from_secs(5))
            .with_spacing(100.0)
            .with_two_way(true)
            .with_duration(SimDuration::from_secs(50));
        assert_eq!(c.attack_range, 486.0);
        assert_eq!(c.gn.loct_ttl, SimDuration::from_secs(5));
        assert_eq!(c.road.spacing, 100.0);
        assert!(c.road.two_way);
        assert_eq!(c.duration, SimDuration::from_secs(50));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn extension_knobs_default_off() {
        let c = ScenarioConfig::paper_dsrc_default();
        assert_eq!(c.frame_loss_rate, 0.0);
        assert_eq!(c.attacker_velocity, 0.0);
        let c = c.with_frame_loss(0.1).with_attacker_velocity(30.0);
        assert_eq!(c.frame_loss_rate, 0.1);
        assert_eq!(c.attacker_velocity, 30.0);
        assert!(c.validate().is_ok());
        let bad = c.with_frame_loss(1.5);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_values() {
        let mut c = ScenarioConfig::paper_dsrc_default();
        c.attack_range = -1.0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper_dsrc_default();
        c.traffic_dt = 0.0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper_dsrc_default();
        c.duration = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn summary_reflects_config() {
        let c = ScenarioConfig::paper_dsrc_default();
        let s = ConfigSummary::from(&c);
        assert_eq!(s.tech, "DSRC");
        assert_eq!(s.ttl_s, 20);
        assert_eq!(s.duration_s, 200);
        assert!(!s.two_way);
    }
}
