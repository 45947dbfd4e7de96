//! Mitigation evaluation (paper Figure 14).
//!
//! * **Figure 14a** — the GF plausibility check (threshold = 486 m, the
//!   median DSRC NLoS range): inter-area reception with and without the
//!   check, against attackers with the wN / mN / mL ranges, plus the
//!   attacker-free baseline with and without the check (the paper finds
//!   the check helps even without an attacker, because of the naturally
//!   stale location tables).
//! * **Figure 14b** — the CBF RHL-drop check (threshold = 3): intra-area
//!   reception with and without the check against wN and mN attackers.

use crate::campaign::Family;
use crate::config::{Scale, ScenarioConfig};
use geonet::MitigationConfig;
use geonet_sim::TimeBins;

/// One Figure 14 comparison: the same setting with the mitigation off and
/// on (both columns are *attacked* runs unless the label says `af`).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationResult {
    /// Setting label (e.g. `"wN"`, `"af"`).
    pub label: String,
    /// Reception bins without the mitigation.
    pub unmitigated: TimeBins,
    /// Reception bins with the mitigation.
    pub mitigated: TimeBins,
}

impl MitigationResult {
    /// Runs one comparison: `family`'s merged seeded runs of `without`
    /// and of `with` (the same setting with the mitigation switched on),
    /// each announced to the progress reporter as its own setting.
    #[must_use]
    pub(crate) fn measure(
        family: Family,
        label: &str,
        without: &ScenarioConfig,
        with: &ScenarioConfig,
        attacked: bool,
        scale: Scale,
        seed: u64,
    ) -> Self {
        let side = |cfg, side: &str| {
            family.merged_runs(cfg, &format!("{label} {side}"), attacked, scale, seed)
        };
        MitigationResult {
            label: label.to_string(),
            unmitigated: side(without, "without"),
            mitigated: side(with, "with"),
        }
    }

    /// Reception rate without the mitigation.
    #[must_use]
    pub fn unmitigated_rate(&self) -> Option<f64> {
        self.unmitigated.overall_rate()
    }

    /// Reception rate with the mitigation.
    #[must_use]
    pub fn mitigated_rate(&self) -> Option<f64> {
        self.mitigated.overall_rate()
    }

    /// Absolute improvement (percentage points / 100).
    #[must_use]
    pub fn improvement(&self) -> Option<f64> {
        Some(self.mitigated_rate()? - self.unmitigated_rate()?)
    }
}

impl std::fmt::Display for MitigationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} without={:5.1}% with={:5.1}% (Δ {:+5.1} pts)",
            self.label,
            self.unmitigated_rate().unwrap_or(f64::NAN) * 100.0,
            self.mitigated_rate().unwrap_or(f64::NAN) * 100.0,
            self.improvement().unwrap_or(f64::NAN) * 100.0,
        )
    }
}

/// Figure 14a: the plausibility check under wN / mN / mL attackers and
/// attacker-free, DSRC. The threshold is the vehicles' own range.
#[must_use]
pub fn fig14a(scale: Scale, seed: u64) -> Vec<MitigationResult> {
    let base = ScenarioConfig::paper_dsrc_default();
    let profile = base.profile();
    let checked = base.with_mitigations(MitigationConfig::plausibility(base.v2v_range));
    let ranges =
        [("wN", profile.nlos_worst()), ("mN", profile.nlos_median()), ("mL", profile.los_median())];
    compare(Family::Interception, &base, &checked, &ranges, scale, seed)
}

/// Figure 14b: the RHL-drop check (threshold 3) under wN and mN
/// intra-area attackers, DSRC.
#[must_use]
pub fn fig14b(scale: Scale, seed: u64) -> Vec<MitigationResult> {
    let base = ScenarioConfig::paper_dsrc_default();
    let profile = base.profile();
    let checked = base.with_mitigations(MitigationConfig::rhl_check(3));
    let ranges = [("wN", profile.nlos_worst()), ("mN", profile.nlos_median())];
    compare(Family::Blockage, &base, &checked, &ranges, scale, seed)
}

/// One attacked comparison per labelled attack range, then the
/// attacker-free pair `af`: the check also cleans up natural staleness
/// losses, and mitigated attacked rates should align with it.
fn compare(
    family: Family,
    base: &ScenarioConfig,
    checked: &ScenarioConfig,
    ranges: &[(&str, f64)],
    scale: Scale,
    seed: u64,
) -> Vec<MitigationResult> {
    let mut out: Vec<MitigationResult> = ranges
        .iter()
        .map(|&(label, range)| {
            let (without, with) = (base.with_attack_range(range), checked.with_attack_range(range));
            MitigationResult::measure(family, label, &without, &with, true, scale, seed)
        })
        .collect();
    out.push(MitigationResult::measure(family, "af", base, checked, false, scale, seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::{SimDuration, SimTime};

    #[test]
    fn plausibility_check_recovers_reception() {
        // One tiny A/B at the mN attack range: mitigation must raise the
        // attacked reception substantially.
        let scale = Scale { runs: 1, duration_s: 40 };
        let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
        let checked = base.with_mitigations(MitigationConfig::plausibility(base.v2v_range));
        let r =
            MitigationResult::measure(Family::Interception, "mN", &base, &checked, true, scale, 31);
        let delta = r.improvement().expect("rates available");
        assert!(delta > 0.2, "plausibility check ineffective: {r}");
    }

    #[test]
    fn rhl_check_restores_cbf_flood() {
        let scale = Scale { runs: 1, duration_s: 30 };
        let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
        let checked = base.with_mitigations(MitigationConfig::rhl_check(3));
        let r = MitigationResult::measure(Family::Blockage, "mN", &base, &checked, true, scale, 77);
        assert!(r.mitigated_rate().unwrap() > 0.9, "RHL check did not restore the flood: {r}");
        assert!(r.improvement().unwrap() > 0.1, "{r}");
    }

    #[test]
    fn result_accessors_and_display() {
        let mut a = TimeBins::new(SimDuration::from_secs(5), 2);
        a.record_weighted(SimTime::from_secs(1), 5, 10);
        let mut b = TimeBins::new(SimDuration::from_secs(5), 2);
        b.record_weighted(SimTime::from_secs(1), 9, 10);
        let r = MitigationResult { label: "x".into(), unmitigated: a, mitigated: b };
        assert!((r.improvement().unwrap() - 0.4).abs() < 1e-9);
        assert!(r.to_string().contains("+40.0 pts"), "{r}");
    }
}
