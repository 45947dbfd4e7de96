//! Intra-area blockage experiments (paper Figures 9 and 10).
//!
//! The destination area is the whole 4 km road segment: every second a
//! random on-road vehicle GeoBroadcasts a packet that should reach every
//! vehicle on the road via CBF. The reception rate of a packet is the
//! fraction of the vehicles that were on the road at generation time which
//! eventually deliver it; the blockage rate λ is the average per-bin drop
//! from attacker-free to attacked runs.

use crate::config::{AttackerSetup, Scale, ScenarioConfig};
use crate::parallel;
use crate::progress;
use crate::report::{paper_bins, AbResult};
use crate::world::World;
use geonet::PacketKey;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::{AccessTechnology, NodeId, RangeProfile};
use geonet_sim::{SimDuration, SimTime, TimeBins};

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

/// Per-packet record from one run: when it was generated, where its
/// source sat, and how it fared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketOutcome {
    /// Generation time.
    pub generated_at: SimTime,
    /// Longitudinal position of the source at generation time.
    pub source_x: f64,
    /// Vehicles on the road at generation time.
    pub candidates: u64,
    /// Of those, how many delivered the packet by the end of the run.
    pub received: u64,
}

impl PacketOutcome {
    /// The packet's reception rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.received as f64 / self.candidates as f64
        }
    }
}

/// One whole-road flood the workload generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Sent {
    /// The packet.
    pub key: PacketKey,
    /// Generation time.
    pub at: SimTime,
    /// The source's position at generation time.
    pub origin: Position,
    /// The vehicles on the road at generation time — the flood's
    /// intended audience.
    pub audience: Vec<NodeId>,
}

impl Sent {
    /// How the flood fared in the driven world `w`.
    #[must_use]
    pub fn outcome(&self, w: &World) -> PacketOutcome {
        let received = self.audience.iter().filter(|n| w.was_received(self.key, **n)).count();
        PacketOutcome {
            generated_at: self.at,
            source_x: self.origin.x,
            candidates: self.audience.len() as u64,
            received: received as u64,
        }
    }
}

/// Builds the world for one run: the RHL-clamping blockage attacker
/// mounted when `attacked`, absent otherwise.
#[must_use]
pub fn world(cfg: &ScenarioConfig, attacked: bool, seed: u64) -> World {
    let setup = AttackerSetup::IntraArea(BlockageMode::ClampRhl);
    World::new(*cfg, attacked.then_some(setup), seed)
}

/// Drives the workload on `w`, with whatever instruments the caller
/// attached: once per simulated second calls `each_second` with the
/// floods sent so far and has a random on-road vehicle GeoBroadcast to
/// the whole road, then runs to the horizon. Returns every flood sent,
/// in generation order.
pub fn drive(
    cfg: &ScenarioConfig,
    w: &mut World,
    mut each_second: impl FnMut(&World, &[Sent]),
) -> Vec<Sent> {
    let started = progress::run_started();
    let area = road_area(cfg);
    let mut sent = Vec::new();
    for t in 1..cfg.duration.as_secs() {
        w.run_until(SimTime::from_secs(t));
        each_second(w, &sent);
        let Some(vid) = w.random_on_road_vehicle() else { continue };
        let node = w.vehicle_node(vid);
        let audience = w.on_road_nodes();
        let origin = w.node_position(node);
        let key = w.originate_from(node, &area, vec![0xCB]);
        sent.push(Sent { key, at: w.now(), origin, audience });
    }
    w.run_to_end();
    progress::run_completed(started, w.events_processed(), cfg.duration);
    sent
}

/// Runs one seeded simulation, returning the outcome of every generated
/// packet.
#[must_use]
pub fn run_one(cfg: &ScenarioConfig, attacked: bool, seed: u64) -> Vec<PacketOutcome> {
    let mut w = world(cfg, attacked, seed);
    let sent = drive(cfg, &mut w, |_, _| {});
    sent.iter().map(|s| s.outcome(&w)).collect()
}

/// Folds packet outcomes into 5 s time bins (weighted by the number of
/// candidate receivers, as the paper's reception rate is per-vehicle).
#[must_use]
pub fn outcomes_to_bins(outcomes: &[PacketOutcome], duration: SimDuration) -> TimeBins {
    let mut bins = paper_bins(duration);
    for o in outcomes {
        bins.record_weighted(o.generated_at, o.received, o.candidates);
    }
    bins
}

/// Runs the A/B pair for one setting at the given scale.
#[must_use]
pub fn run_ab(cfg: &ScenarioConfig, label: &str, scale: Scale, base_seed: u64) -> AbResult {
    let cfg = cfg.with_duration(scale.duration());
    let mut baseline = paper_bins(cfg.duration);
    let mut attacked = paper_bins(cfg.duration);
    progress::begin_setting(label, scale.runs * 2);
    // Runs are independent per seed; bins are folded inside each job and
    // merged back in seed-index order — byte-identical to the sequential
    // loop.
    let pairs = parallel::run_indexed(scale.runs, |i| {
        let seed = base_seed.wrapping_add(u64::from(i) * 0x517C);
        (
            outcomes_to_bins(&run_one(&cfg, false, seed), cfg.duration),
            outcomes_to_bins(&run_one(&cfg, true, seed), cfg.duration),
        )
    });
    for (a, b) in &pairs {
        baseline.merge(a);
        attacked.merge(b);
    }
    AbResult { label: label.to_string(), baseline, attacked }
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
        .map(|(label, range)| run_ab(&base.with_attack_range(range), &label, scale, seed))
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
            run_ab(
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
        .map(|s| run_ab(&base.with_spacing(s), &format!("i={s:.0}m"), scale, seed))
        .collect()
}

/// Figure 9e: blockage on one- vs two-direction roads, mN attacker, DSRC.
#[must_use]
pub fn fig9e(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
    vec![
        run_ab(&base, "1 direction", scale, seed),
        run_ab(&base.with_two_way(true), "2 directions", scale, seed),
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
    // `run_one` is pure, so each seeded A/B pair is simulated once (the
    // old loop re-ran it per `inside` value) and filtered twice below.
    let runs = parallel::run_indexed(scale.runs, |i| {
        let run_seed = seed.wrapping_add(u64::from(i) * 0x517C);
        (run_one(&cfg, false, run_seed), run_one(&cfg, true, run_seed))
    });
    let mut result = Vec::new();
    for inside in [true, false] {
        let mut baseline = paper_bins(cfg.duration);
        let mut attacked = paper_bins(cfg.duration);
        for (base_outcomes, atk_outcomes) in &runs {
            for (outcomes, bins) in [(base_outcomes, &mut baseline), (atk_outcomes, &mut attacked)]
            {
                let filtered: Vec<PacketOutcome> = outcomes
                    .iter()
                    .copied()
                    .filter(|o| ((lo..=hi).contains(&o.source_x)) == inside)
                    .collect();
                bins.merge(&outcomes_to_bins(&filtered, cfg.duration));
            }
        }
        result.push(AbResult {
            label: if inside { "fully covered".into() } else { "elsewhere".into() },
            baseline,
            attacked,
        });
    }
    let outside = result.pop().expect("two results");
    let inside = result.pop().expect("two results");
    (inside, outside)
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
            let r = run_ab(&cfg, &label, scale, seed);
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
        let r = run_ab(&cfg, "500m", Scale { runs: 1, duration_s: 30 }, 17);
        let lambda = r.gamma().unwrap();
        assert!(
            (0.1..0.8).contains(&lambda),
            "λ={lambda:.2} af={:?} atk={:?}",
            r.baseline_rate(),
            r.attacked_rate()
        );
    }

    #[test]
    fn packet_outcome_rate() {
        let o = PacketOutcome {
            generated_at: SimTime::from_secs(1),
            source_x: 100.0,
            candidates: 100,
            received: 65,
        };
        assert!((o.rate() - 0.65).abs() < 1e-12);
        let z = PacketOutcome { candidates: 0, received: 0, ..o };
        assert_eq!(z.rate(), 0.0);
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
