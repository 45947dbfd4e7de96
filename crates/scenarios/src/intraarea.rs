//! Intra-area blockage experiments (paper Figures 9 and 10).
//!
//! The destination area is the whole 4 km road segment: every second a
//! random on-road vehicle GeoBroadcasts a packet that should reach every
//! vehicle on the road via CBF. The reception rate of a packet is the
//! fraction of the vehicles that were on the road at generation time which
//! eventually deliver it; the blockage rate λ is the average per-bin drop
//! from attacker-free to attacked runs.

use crate::campaign::{Family, Sender, Sent};
use crate::config::{Scale, ScenarioConfig};
use crate::report::AbResult;
use crate::world::World;
use geonet_geo::{Area, Position};
use geonet_radio::{AccessTechnology, RangeProfile};
use geonet_sim::SimDuration;

pub use crate::campaign::{outcomes_to_bins, PacketOutcome};

/// The family every figure of this module runs.
const FAMILY: Family = Family::Blockage;

/// The GeoBroadcast destination area covering the whole road segment
/// (both directions' lanes).
#[must_use]
pub fn road_area(cfg: &ScenarioConfig) -> Area {
    Area::rectangle(
        Position::new(cfg.road.length / 2.0, 0.0),
        cfg.road.length / 2.0 + 50.0,
        25.0,
        90.0,
    )
}

/// The blockage workload's packet source for [`Family::drive`]: each
/// second a random on-road vehicle GeoBroadcasts to the whole road, and
/// the vehicles on the road at that moment are the flood's audience.
pub(crate) fn sender(cfg: &ScenarioConfig) -> Sender<'static> {
    let area = road_area(cfg);
    Box::new(move |w: &mut World| {
        let vid = w.random_on_road_vehicle()?;
        let node = w.vehicle_node(vid);
        let audience = w.on_road_nodes();
        let origin = w.node_position(node);
        let key = w.originate_from(node, &area, vec![0xCB]);
        Some(Sent { key, at: w.now(), origin, audience })
    })
}

/// Runs one seeded simulation, returning the outcome of every generated
/// packet: [`Family::run_one`] of [`Family::Blockage`].
#[must_use]
pub fn run_one(cfg: &ScenarioConfig, attacked: bool, seed: u64) -> Vec<PacketOutcome> {
    FAMILY.run_one(cfg, attacked, seed)
}

/// Runs the A/B pair for one setting at the given scale:
/// [`Family::run_ab`] of [`Family::Blockage`].
#[must_use]
pub fn run_ab(cfg: &ScenarioConfig, label: &str, scale: Scale, base_seed: u64) -> AbResult {
    FAMILY.run_ab(cfg, label, scale, base_seed)
}

/// Figure 9a: blockage vs attack range, DSRC (wN, mN, mL and the tuned
/// 500 m attacker).
#[must_use]
pub fn fig9a(scale: Scale, seed: u64) -> Vec<AbResult> {
    fig9_ranges(AccessTechnology::Dsrc, scale, seed)
}

/// Figure 9b: blockage vs attack range, C-V2X.
#[must_use]
pub fn fig9b(scale: Scale, seed: u64) -> Vec<AbResult> {
    fig9_ranges(AccessTechnology::CV2x, scale, seed)
}

fn fig9_ranges(tech: AccessTechnology, scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_default(tech);
    let profile = RangeProfile::for_technology(tech);
    let mut settings = vec![
        ("wN".to_string(), profile.nlos_worst()),
        ("mN".to_string(), profile.nlos_median()),
        ("mL".to_string(), profile.los_median()),
        // The paper's tuned most-effective range.
        ("500m".to_string(), 500.0),
    ];
    settings
        .drain(..)
        .map(|(label, range)| FAMILY.run_ab(&base.with_attack_range(range), &label, scale, seed))
        .collect()
}

/// Figure 9c: blockage vs LocT TTL (20/10/5 s), mN attacker, DSRC — the
/// paper's point is that CBF does not depend on the TTL at all.
#[must_use]
pub fn fig9c(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
    [20u64, 10, 5]
        .into_iter()
        .map(|ttl| {
            FAMILY.run_ab(
                &base.with_loct_ttl(SimDuration::from_secs(ttl)),
                &format!("ttl={ttl}s"),
                scale,
                seed,
            )
        })
        .collect()
}

/// Figure 9d: blockage vs inter-vehicle space (30/100/300 m), mN
/// attacker, DSRC.
#[must_use]
pub fn fig9d(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
    [30.0, 100.0, 300.0]
        .into_iter()
        .map(|s| FAMILY.run_ab(&base.with_spacing(s), &format!("i={s:.0}m"), scale, seed))
        .collect()
}

/// Figure 9e: blockage on one- vs two-direction roads, mN attacker, DSRC.
#[must_use]
pub fn fig9e(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
    vec![
        FAMILY.run_ab(&base, "1 direction", scale, seed),
        FAMILY.run_ab(&base.with_two_way(true), "2 directions", scale, seed),
    ]
}

/// The §IV-A source-location analysis: blockage rate for packets
/// generated inside the *fully covered area* (where the 500 m attacker
/// out-ranges the 486 m vehicles around the source) vs all other packets.
///
/// Returns `(inside, outside)` A/B results.
#[must_use]
pub fn fig9_source_split(scale: Scale, seed: u64) -> (AbResult, AbResult) {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(500.0)
        .with_duration(scale.duration());
    let half = cfg.attack_range - cfg.v2v_range; // 14 m ⇒ 28 m zone
    let lo = cfg.attacker_position.x - half;
    let hi = cfg.attacker_position.x + half;
    let (baseline, attacked) = FAMILY.ab_outcomes(&cfg, "source split", scale, seed);
    let split = |label: &str, inside: bool| {
        let fold = |outcomes: &[PacketOutcome]| {
            let kept: Vec<PacketOutcome> = outcomes
                .iter()
                .copied()
                .filter(|o| ((lo..=hi).contains(&o.source_x)) == inside)
                .collect();
            outcomes_to_bins(&kept, cfg.duration)
        };
        AbResult { label: label.into(), baseline: fold(&baseline), attacked: fold(&attacked) }
    };
    (split("fully covered", true), split("elsewhere", false))
}

/// Figure 10: accumulated blockage-rate series for the DSRC scenarios.
#[must_use]
pub fn fig10(scale: Scale, seed: u64) -> Vec<(String, Vec<Option<f64>>)> {
    let base = ScenarioConfig::paper_dsrc_default();
    let profile = base.profile();
    let settings: Vec<(String, ScenarioConfig)> = vec![
        ("wN_dflt".into(), base.with_attack_range(profile.nlos_worst())),
        ("mN_dflt".into(), base.with_attack_range(profile.nlos_median())),
        ("mL_dflt".into(), base.with_attack_range(profile.los_median())),
        ("500m_dflt".into(), base.with_attack_range(500.0)),
        ("mN_ttl5".into(), base.with_attack_range(486.0).with_loct_ttl(SimDuration::from_secs(5))),
        ("mN_i100".into(), base.with_attack_range(486.0).with_spacing(100.0)),
        ("mN_2dir".into(), base.with_attack_range(486.0).with_two_way(true)),
    ];
    settings
        .into_iter()
        .map(|(label, cfg)| {
            let r = FAMILY.run_ab(&cfg, &label, scale, seed);
            (label, r.accumulated_drop_series())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cbf_reaches_almost_everyone() {
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(30));
        let outcomes = run_one(&cfg, false, 3);
        assert!(!outcomes.is_empty());
        let bins = outcomes_to_bins(&outcomes, cfg.duration);
        let rate = bins.overall_rate().unwrap();
        assert!(rate > 0.95, "attacker-free CBF reception {rate:.2}");
    }

    #[test]
    fn attacked_cbf_blocks_a_chunk_of_the_road() {
        let cfg = ScenarioConfig::paper_dsrc_default()
            .with_attack_range(500.0)
            .with_duration(SimDuration::from_secs(30));
        let r = FAMILY.run_ab(&cfg, "500m", Scale { runs: 1, duration_s: 30 }, 17);
        let lambda = r.gamma().unwrap();
        assert!(
            (0.1..0.8).contains(&lambda),
            "λ={lambda:.2} af={:?} atk={:?}",
            r.baseline_rate(),
            r.attacked_rate()
        );
    }

    #[test]
    fn road_area_covers_all_lanes() {
        let cfg = ScenarioConfig::paper_dsrc_default();
        let area = road_area(&cfg);
        assert!(area.contains(Position::new(0.0, 7.5)));
        assert!(area.contains(Position::new(4_000.0, -7.5)));
        assert!(!area.contains(Position::new(4_200.0, 0.0)));
    }
}
