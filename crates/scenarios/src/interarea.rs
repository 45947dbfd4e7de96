//! Inter-area interception experiments (paper Figures 7 and 8).
//!
//! On-road vehicles send *vulnerable packets* towards static destinations
//! 20 m beyond each end of the road: one packet per second from a random
//! vehicle, in the direction whose greedy-forwarding path crosses the
//! attacker's coverage (both directions qualify for sources inside the
//! fully covered area; a coin picks one). Reception is measured at the
//! destination nodes per 5 s time bin; the interception rate γ is the
//! average per-bin drop from the attacker-free to the attacked runs.

use crate::campaign::{outcomes_to_bins, Family, Sender, Sent};
use crate::config::{Scale, ScenarioConfig};
use crate::report::AbResult;
use crate::world::World;
use geonet_geo::{Area, Position};
use geonet_radio::{AccessTechnology, RangeProfile};
use geonet_sim::{SharedAuditor, SimDuration, TimeBins};

/// The family every figure of this module runs.
const FAMILY: Family = Family::Interception;

/// The interception workload's packet source for [`Family::drive`]:
/// adds the static destinations to `w`, then each second sends one
/// vulnerable packet from a random vehicle towards one of them.
pub(crate) fn sender<'a>(cfg: &'a ScenarioConfig, w: &mut World) -> Sender<'a> {
    let length = cfg.road.length;
    // Static destinations 20 m beyond each end (paper §IV-A), with small
    // circular destination areas around them.
    let east_node = w.add_static_node(Position::new(length + 20.0, 2.5), cfg.v2v_range);
    let west_node = w.add_static_node(Position::new(-20.0, 2.5), cfg.v2v_range);
    let east_area = Area::circle(Position::new(length + 20.0, 0.0), 40.0);
    let west_area = Area::circle(Position::new(-20.0, 0.0), 40.0);
    Box::new(move |w| {
        // Sample vehicles until one can emit a *vulnerable* packet (the
        // paper generates one vulnerable packet per second); in rare
        // configurations a sampled vehicle sits where neither direction
        // qualifies, so resample a few times.
        let mut chosen = None;
        for _ in 0..16 {
            let Some(vid) = w.random_on_road_vehicle() else { break };
            let node = w.vehicle_node(vid);
            let x = w.node_position(node).x;
            let (east_ok, west_ok) = vulnerable_directions(cfg, x);
            let eastbound = match (east_ok, west_ok) {
                (true, true) => w.workload_coin(),
                (true, false) => true,
                (false, true) => false,
                (false, false) => continue,
            };
            chosen = Some((node, eastbound));
            break;
        }
        let (node, eastbound) = chosen?;
        let (area, dest) =
            if eastbound { (&east_area, east_node) } else { (&west_area, west_node) };
        let origin = w.node_position(node);
        let key = w.originate_from(node, area, vec![0x5A]);
        Some(Sent { key, at: w.now(), origin, audience: vec![dest] })
    })
}

/// Runs one seeded simulation and returns the per-bin reception counts of
/// vulnerable packets at the destinations: [`Family::run_one`] folded by
/// [`outcomes_to_bins`].
#[must_use]
pub fn run_one(cfg: &ScenarioConfig, attacked: bool, seed: u64) -> TimeBins {
    outcomes_to_bins(&FAMILY.run_one(cfg, attacked, seed), cfg.duration)
}

/// The run metadata an audit timeline of this workload is stamped with,
/// so a serialized artifact is self-describing.
pub fn stamp_audit_meta(auditor: &SharedAuditor, cfg: &ScenarioConfig, attacked: bool, seed: u64) {
    let mut rec = auditor.borrow_mut();
    rec.set_meta("scenario", "interarea");
    rec.set_meta("seed", seed.to_string());
    rec.set_meta("attacked", attacked.to_string());
    rec.set_meta("duration_s", cfg.duration.as_secs().to_string());
    rec.set_meta("attack_range_m", format!("{:.1}", cfg.attack_range));
}

/// Runs the A/B pair for one setting at the given scale:
/// [`Family::run_ab`] of [`Family::Interception`].
#[must_use]
pub fn run_ab(cfg: &ScenarioConfig, label: &str, scale: Scale, base_seed: u64) -> AbResult {
    FAMILY.run_ab(cfg, label, scale, base_seed)
}

/// The attack-range labels used throughout the paper's figures.
fn range_settings(profile: RangeProfile) -> [(&'static str, f64); 3] {
    [("mL", profile.los_median()), ("mN", profile.nlos_median()), ("wN", profile.nlos_worst())]
}

/// Figure 7a: interception vs attack range, DSRC.
#[must_use]
pub fn fig7a(scale: Scale, seed: u64) -> Vec<AbResult> {
    fig7_ranges(AccessTechnology::Dsrc, scale, seed)
}

/// Figure 7b: interception vs attack range, C-V2X.
#[must_use]
pub fn fig7b(scale: Scale, seed: u64) -> Vec<AbResult> {
    fig7_ranges(AccessTechnology::CV2x, scale, seed)
}

fn fig7_ranges(tech: AccessTechnology, scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_default(tech);
    range_settings(base.profile())
        .into_iter()
        .map(|(label, range)| FAMILY.run_ab(&base.with_attack_range(range), label, scale, seed))
        .collect()
}

/// Figure 7c: interception vs LocT TTL (20/10/5 s) with the wN attacker,
/// plus the mN attacker at TTL 5 s, DSRC.
#[must_use]
pub fn fig7c(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default();
    let mut out: Vec<AbResult> = [20u64, 10, 5]
        .into_iter()
        .map(|ttl| {
            FAMILY.run_ab(
                &base.with_loct_ttl(SimDuration::from_secs(ttl)),
                &format!("wN ttl={ttl}s"),
                scale,
                seed,
            )
        })
        .collect();
    let mn = base
        .with_attack_range(base.profile().nlos_median())
        .with_loct_ttl(SimDuration::from_secs(5));
    out.push(FAMILY.run_ab(&mn, "mN ttl=5s", scale, seed));
    out
}

/// Figure 7d: interception vs inter-vehicle space (30/100/300 m) with the
/// wN attacker, DSRC.
#[must_use]
pub fn fig7d(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default();
    [30.0, 100.0, 300.0]
        .into_iter()
        .map(|s| FAMILY.run_ab(&base.with_spacing(s), &format!("i={s:.0}m"), scale, seed))
        .collect()
}

/// Figure 7e: interception on one- vs two-direction roads with the wN
/// attacker, DSRC.
#[must_use]
pub fn fig7e(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default();
    vec![
        FAMILY.run_ab(&base, "1 direction", scale, seed),
        FAMILY.run_ab(&base.with_two_way(true), "2 directions", scale, seed),
    ]
}

/// Figure 8: the accumulated interception-rate series over time for the
/// paper's DSRC scenarios (named `attackrange_changedparameter`).
#[must_use]
pub fn fig8(scale: Scale, seed: u64) -> Vec<(String, Vec<Option<f64>>)> {
    let base = ScenarioConfig::paper_dsrc_default();
    let profile = base.profile();
    let settings: Vec<(String, ScenarioConfig)> = vec![
        ("mL_dflt".into(), base.with_attack_range(profile.los_median())),
        ("mN_dflt".into(), base.with_attack_range(profile.nlos_median())),
        ("wN_dflt".into(), base),
        ("wN_ttl5".into(), base.with_loct_ttl(SimDuration::from_secs(5))),
        ("wN_i100".into(), base.with_spacing(100.0)),
        ("wN_2dir".into(), base.with_two_way(true)),
    ];
    settings
        .into_iter()
        .map(|(label, cfg)| {
            let r = FAMILY.run_ab(&cfg, &label, scale, seed);
            (label, r.accumulated_drop_series())
        })
        .collect()
}

/// Which directions make a packet from `source_x` *vulnerable* (paper
/// Figure 6): the attack applies in a direction iff the attacker's
/// coverage surpasses the coverage of at least one forwarder on the path
/// towards that destination. A forwarder at `x` is surpassed eastward when
/// `attacker_x + attack_range > x + v2v_range`, and every eastbound path
/// from `source_x` contains forwarders arbitrarily close to `source_x`,
/// so the source's own position decides.
///
/// Returns `(eastbound_vulnerable, westbound_vulnerable)`.
#[must_use]
pub fn vulnerable_directions(cfg: &ScenarioConfig, source_x: f64) -> (bool, bool) {
    let ax = cfg.attacker_position.x;
    let east_ok = source_x < ax + cfg.attack_range - cfg.v2v_range;
    let west_ok = source_x > ax - cfg.attack_range + cfg.v2v_range;
    (east_ok, west_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { runs: 1, duration_s: 40 }
    }

    #[test]
    fn vulnerable_direction_rule() {
        // wN attacker at 2000 m with 327 m range, 486 m vehicles:
        // eastbound vulnerable below 2000+327−486 = 1841 m, westbound
        // vulnerable above 2000−327+486 = 2159 m, neither in between.
        let cfg = ScenarioConfig::paper_dsrc_default();
        assert_eq!(vulnerable_directions(&cfg, 100.0), (true, false));
        assert_eq!(vulnerable_directions(&cfg, 3_900.0), (false, true));
        assert_eq!(vulnerable_directions(&cfg, 2_000.0), (false, false));
        // mL attacker (1283 m): a wide middle region is vulnerable both
        // ways.
        let ml = cfg.with_attack_range(1_283.0);
        assert_eq!(vulnerable_directions(&ml, 2_000.0), (true, true));
        assert_eq!(vulnerable_directions(&ml, 1_000.0), (true, false));
        assert_eq!(vulnerable_directions(&ml, 3_000.0), (false, true));
    }

    #[test]
    fn baseline_delivers_some_packets() {
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(40));
        let bins = run_one(&cfg, false, 11);
        let rate = bins.overall_rate().expect("packets were generated");
        assert!(rate > 0.3, "attacker-free reception too low: {rate:.2}");
    }

    #[test]
    fn attack_reduces_reception() {
        // Use the median-NLoS attacker (486 m > no gaps) for a strong,
        // fast signal even at tiny scale.
        let cfg = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
        let r = FAMILY.run_ab(&cfg, "mN", tiny(), 21);
        let gamma = r.gamma().expect("bins populated");
        assert!(
            gamma > 0.2,
            "interception ineffective: γ={gamma:.2} af={:?} atk={:?}",
            r.baseline_rate(),
            r.attacked_rate()
        );
    }

    #[test]
    fn fig7a_produces_three_settings() {
        let out = fig7a(Scale { runs: 1, duration_s: 20 }, 5);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].label, "mL");
        assert_eq!(out[2].label, "wN");
    }
}
