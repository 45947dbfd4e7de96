//! DSRC and C-V2X communication-range profiles (paper Table II).
//!
//! The ranges come from the Utah Department of Transportation field test
//! cited by the paper ("Field Tests On DSRC And C-V2X Range Of Reception",
//! 2021). The paper's evaluation uses the NLoS median range for
//! vehicle-to-vehicle links (trucks block line of sight between sedans) and
//! lets the attacker raise its transmission power up to the LoS median.

use std::fmt;

/// The vehicular access-layer technology in use.
///
/// Each simulation run uses a single technology for all nodes (vehicles,
/// roadside units and the attacker), as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessTechnology {
    /// IEEE 802.11p Dedicated Short Range Communications (ASTM E2213-03).
    Dsrc,
    /// LTE Cellular-V2X sidelink (ETSI EN 303 613).
    CV2x,
}

impl fmt::Display for AccessTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessTechnology::Dsrc => f.write_str("DSRC"),
            AccessTechnology::CV2x => f.write_str("C-V2X"),
        }
    }
}

/// Which measured range from the field test to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeCondition {
    /// Median line-of-sight range ("mL" in the paper's figures).
    LosMedian,
    /// Median non-line-of-sight range ("mN").
    NlosMedian,
    /// Worst-case non-line-of-sight range ("wN").
    NlosWorst,
}

impl fmt::Display for RangeCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeCondition::LosMedian => f.write_str("mL"),
            RangeCondition::NlosMedian => f.write_str("mN"),
            RangeCondition::NlosWorst => f.write_str("wN"),
        }
    }
}

/// The communication ranges of one access technology (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeProfile {
    tech: AccessTechnology,
    los_median_m: f64,
    nlos_median_m: f64,
    nlos_worst_m: f64,
}

impl RangeProfile {
    /// DSRC ranges: LoS median 1 283 m, NLoS median 486 m, NLoS worst
    /// 327 m.
    pub const DSRC: RangeProfile = RangeProfile {
        tech: AccessTechnology::Dsrc,
        los_median_m: 1_283.0,
        nlos_median_m: 486.0,
        nlos_worst_m: 327.0,
    };

    /// C-V2X ranges: LoS median 1 703 m, NLoS median 593 m, NLoS worst
    /// 359 m.
    pub const CV2X: RangeProfile = RangeProfile {
        tech: AccessTechnology::CV2x,
        los_median_m: 1_703.0,
        nlos_median_m: 593.0,
        nlos_worst_m: 359.0,
    };

    /// The profile for a given technology.
    #[must_use]
    pub const fn for_technology(tech: AccessTechnology) -> RangeProfile {
        match tech {
            AccessTechnology::Dsrc => RangeProfile::DSRC,
            AccessTechnology::CV2x => RangeProfile::CV2X,
        }
    }

    /// The technology this profile describes.
    #[must_use]
    pub const fn technology(&self) -> AccessTechnology {
        self.tech
    }

    /// Median line-of-sight range, metres.
    #[must_use]
    pub const fn los_median(&self) -> f64 {
        self.los_median_m
    }

    /// Median non-line-of-sight range, metres — the paper's default
    /// vehicle-to-vehicle range.
    #[must_use]
    pub const fn nlos_median(&self) -> f64 {
        self.nlos_median_m
    }

    /// Worst-case non-line-of-sight range, metres.
    #[must_use]
    pub const fn nlos_worst(&self) -> f64 {
        self.nlos_worst_m
    }

    /// Range for a named condition.
    #[must_use]
    pub const fn range(&self, condition: RangeCondition) -> f64 {
        match condition {
            RangeCondition::LosMedian => self.los_median_m,
            RangeCondition::NlosMedian => self.nlos_median_m,
            RangeCondition::NlosWorst => self.nlos_worst_m,
        }
    }

    /// The theoretical maximum communication range used as `DIST_MAX` in
    /// the CBF timeout formula (EN 302 636-4-1 annex). We use the LoS
    /// median, the largest range the field test observed for the
    /// technology.
    #[must_use]
    pub const fn dist_max(&self) -> f64 {
        self.los_median_m
    }
}

impl fmt::Display for RangeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: LoS(median) {:.0} m, NLoS(median) {:.0} m, NLoS(worst) {:.0} m",
            self.tech, self.los_median_m, self.nlos_median_m, self.nlos_worst_m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_dsrc_values() {
        let p = RangeProfile::DSRC;
        assert_eq!(p.los_median(), 1_283.0);
        assert_eq!(p.nlos_median(), 486.0);
        assert_eq!(p.nlos_worst(), 327.0);
        assert_eq!(p.technology(), AccessTechnology::Dsrc);
    }

    #[test]
    fn table2_cv2x_values() {
        let p = RangeProfile::CV2X;
        assert_eq!(p.los_median(), 1_703.0);
        assert_eq!(p.nlos_median(), 593.0);
        assert_eq!(p.nlos_worst(), 359.0);
        assert_eq!(p.technology(), AccessTechnology::CV2x);
    }

    #[test]
    fn for_technology_round_trip() {
        for tech in [AccessTechnology::Dsrc, AccessTechnology::CV2x] {
            assert_eq!(RangeProfile::for_technology(tech).technology(), tech);
        }
    }

    #[test]
    fn range_by_condition_matches_accessors() {
        let p = RangeProfile::DSRC;
        assert_eq!(p.range(RangeCondition::LosMedian), p.los_median());
        assert_eq!(p.range(RangeCondition::NlosMedian), p.nlos_median());
        assert_eq!(p.range(RangeCondition::NlosWorst), p.nlos_worst());
    }

    #[test]
    fn ranges_are_ordered() {
        for p in [RangeProfile::DSRC, RangeProfile::CV2X] {
            assert!(p.nlos_worst() < p.nlos_median());
            assert!(p.nlos_median() < p.los_median());
            assert_eq!(p.dist_max(), p.los_median());
        }
    }

    #[test]
    fn cv2x_outranges_dsrc_everywhere() {
        // Table II: C-V2X has longer range in every condition, which is why
        // the paper finds DSRC *more* vulnerable to the wN-range attacker.
        for c in [RangeCondition::LosMedian, RangeCondition::NlosMedian, RangeCondition::NlosWorst]
        {
            assert!(RangeProfile::CV2X.range(c) > RangeProfile::DSRC.range(c));
        }
    }

    #[test]
    fn display_mentions_all_ranges() {
        let s = RangeProfile::DSRC.to_string();
        assert!(s.contains("1283") && s.contains("486") && s.contains("327"), "{s}");
        assert_eq!(AccessTechnology::Dsrc.to_string(), "DSRC");
        assert_eq!(RangeCondition::NlosWorst.to_string(), "wN");
    }
}
