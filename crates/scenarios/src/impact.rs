//! Traffic-efficiency impact of the attacks (paper Figure 12).
//!
//! A hazard blocks both eastbound lanes 3 600 m into the 4 km segment at
//! t = 5 s. The vehicle at the head of the queue repeatedly (1 Hz)
//! originates a hazard notification towards the road entrance; once the
//! entrance controller receives it, newly arriving traffic diverts (the
//! entry gate closes). The metric is the number of vehicles on the road
//! over time:
//!
//! * **Case 1** (Figure 12a): the notification travels by *greedy
//!   forwarding* to a destination just beyond the entrance, on a two-way
//!   road; the attacker mounts the inter-area interception attack with the
//!   median NLoS range.
//! * **Case 2** (Figure 12b): the notification is *GeoBroadcast over the
//!   whole segment* (CBF); the attacker mounts the intra-area blockage
//!   attack with a 500 m range.
//!
//! Attacker-free, the on-road count plateaus once the entrance is
//! informed; attacked, the notification never arrives and the queue keeps
//! growing — the paper's traffic jam.

use crate::config::{AttackerSetup, ScenarioConfig};
use crate::intraarea::road_area;
use crate::world::World;
use geonet::PacketKey;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::NodeId;
use geonet_sim::SimTime;
use geonet_traffic::Direction;

/// Which Figure 12 case to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpactCase {
    /// Case 1: GF notification to the entrance, inter-area attacker.
    GfNotification,
    /// Case 2: CBF notification over the road, intra-area attacker.
    CbfNotification,
}

/// The sampled on-road vehicle count of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactSeries {
    /// Setting label (`"af"` or `"atk"`).
    pub label: String,
    /// `(second, vehicles on road)` samples, 1 Hz.
    pub samples: Vec<(u64, usize)>,
    /// When the entrance controller was informed, if ever.
    pub informed_at_s: Option<u64>,
}

impl ImpactSeries {
    /// The final on-road count.
    #[must_use]
    pub fn final_count(&self) -> usize {
        self.samples.last().map_or(0, |&(_, n)| n)
    }

    /// The largest on-road count observed.
    #[must_use]
    pub fn peak_count(&self) -> usize {
        self.samples.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }
}

/// Seconds into the run at which the hazard appears (paper: 5 s).
pub const HAZARD_TIME_S: u64 = 5;
/// Longitudinal hazard position (paper: 3 600 m).
pub const HAZARD_X: f64 = 3_600.0;

/// Runs one Figure 12 case.
#[must_use]
pub fn run_case(case: ImpactCase, attacked: bool, duration_s: u64, seed: u64) -> ImpactSeries {
    let (mut w, controller, dest_area) = world(case, attacked, duration_s, seed);
    drive(&mut w, controller, &dest_area)
}

/// Builds the world of one Figure 12 case: the road, the attacker when
/// `attacked`, and the entrance controller, returned with the area the
/// hazard notification is addressed to.
pub(crate) fn world(
    case: ImpactCase,
    attacked: bool,
    duration_s: u64,
    seed: u64,
) -> (World, NodeId, Area) {
    let (cfg, setup): (ScenarioConfig, AttackerSetup) = match case {
        ImpactCase::GfNotification => (
            // mN inter-area attacker. The paper runs this case on a
            // two-way road; in our simulator the stream of westbound
            // vehicles receding from the stopped queue head poisons its
            // location table so thoroughly that even the attacker-free
            // notification never gets out (a stronger form of the GF
            // inefficiency the paper describes). The one-way road
            // reproduces the paper's observable instead: the notification
            // reaches the entrance after tens of seconds attacker-free —
            // delayed by the queue head's stale entries — and never
            // arrives under the interception attack. See EXPERIMENTS.md.
            ScenarioConfig::paper_dsrc_default().with_attack_range(486.0),
            AttackerSetup::InterArea,
        ),
        ImpactCase::CbfNotification => (
            ScenarioConfig::paper_dsrc_default().with_attack_range(500.0),
            AttackerSetup::IntraArea(BlockageMode::ClampRhl),
        ),
    };
    let mut cfg = cfg.with_duration(geonet_sim::SimDuration::from_secs(duration_s));
    // A hazard notification aimed 3.6 km up the road needs more than the
    // GeoNetworking default of 10 hops once congestion and two-way
    // staleness shrink per-hop progress; the originating application sets
    // the packet's maximum hop limit accordingly (the standard leaves MHL
    // to the source; the paper only requires it to be "large").
    cfg.gn.default_hop_limit = 15;
    let mut w = World::new(cfg, attacked.then_some(setup), seed);

    // The entrance controller: a static node that closes the gate when it
    // learns of the hazard. For GF it sits just beyond the entrance (the
    // paper's "vehicles that have not entered the road yet"); for CBF it
    // sits at the entrance inside the broadcast area.
    let (controller, dest_area) = match case {
        ImpactCase::GfNotification => (
            w.add_static_node(Position::new(-20.0, 2.5), cfg.v2v_range),
            Area::circle(Position::new(-20.0, 0.0), 40.0),
        ),
        ImpactCase::CbfNotification => {
            (w.add_static_node(Position::new(2.0, 12.0), cfg.v2v_range), road_area(&cfg))
        }
    };
    (w, controller, dest_area)
}

/// Drives a world from [`world`] to its horizon, one second at a time:
/// the hazard at [`HAZARD_TIME_S`], a notification each second until the
/// controller has one, then the entry gate closed.
pub(crate) fn drive(w: &mut World, controller: NodeId, dest_area: &Area) -> ImpactSeries {
    let duration_s = w.config().duration.as_secs();
    let mut samples = Vec::with_capacity(duration_s as usize);
    let mut informed_at_s = None;
    let mut keys: Vec<PacketKey> = Vec::new();
    for t in 1..=duration_s {
        w.run_until(SimTime::from_secs(t));
        if t == HAZARD_TIME_S {
            w.add_hazard(Direction::East, HAZARD_X);
        }
        if t >= HAZARD_TIME_S && informed_at_s.is_none() {
            // Has any earlier notification reached the controller?
            if keys.iter().any(|&k| w.was_received(k, controller)) {
                informed_at_s = Some(t);
                w.set_entry_open(Direction::East, false);
            } else if let Some(head) = queue_head(w) {
                // Retransmit from the vehicle facing the hazard.
                let node = w.vehicle_node(head);
                keys.push(w.originate_from(node, dest_area, vec![0x4A]));
            }
        }
        samples.push((t, w.traffic().count_on_road()));
    }
    ImpactSeries {
        label: if w.attacker().is_some() { "atk".into() } else { "af".into() },
        samples,
        informed_at_s,
    }
}

/// The eastbound vehicle closest to (but short of) the hazard.
fn queue_head(w: &World) -> Option<geonet_traffic::VehicleId> {
    w.traffic()
        .active_vehicles()
        .filter(|v| v.direction == Direction::East && v.s < HAZARD_X)
        .max_by(|a, b| a.s.partial_cmp(&b.s).expect("positions are finite"))
        .map(|v| v.id)
}

/// Figure 12a: `(attacker-free, attacked)` series for case 1.
#[must_use]
pub fn fig12a(duration_s: u64, seed: u64) -> (ImpactSeries, ImpactSeries) {
    (
        run_case(ImpactCase::GfNotification, false, duration_s, seed),
        run_case(ImpactCase::GfNotification, true, duration_s, seed),
    )
}

/// Figure 12b: `(attacker-free, attacked)` series for case 2.
#[must_use]
pub fn fig12b(duration_s: u64, seed: u64) -> (ImpactSeries, ImpactSeries) {
    (
        run_case(ImpactCase::CbfNotification, false, duration_s, seed),
        run_case(ImpactCase::CbfNotification, true, duration_s, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case2_attack_free_informs_entrance_quickly() {
        let s = run_case(ImpactCase::CbfNotification, false, 30, 5);
        let informed = s.informed_at_s.expect("CBF notification must arrive");
        assert!(informed <= HAZARD_TIME_S + 3, "informed only at {informed}s");
        // Once informed, the gate is closed: count must not keep growing.
        let at_informed = s.samples.iter().find(|&&(t, _)| t == informed).map(|&(_, n)| n).unwrap();
        assert!(s.final_count() <= at_informed + 3, "count kept growing: {s:?}");
    }

    #[test]
    fn case2_attacked_jams_the_road() {
        let af = run_case(ImpactCase::CbfNotification, false, 40, 6);
        let atk = run_case(ImpactCase::CbfNotification, true, 40, 6);
        assert!(atk.informed_at_s.is_none(), "blockage failed: {:?}", atk.informed_at_s);
        assert!(
            atk.final_count() > af.final_count() + 10,
            "no jam: af {} atk {}",
            af.final_count(),
            atk.final_count()
        );
    }

    #[test]
    fn series_helpers() {
        let s = ImpactSeries {
            label: "af".into(),
            samples: vec![(1, 100), (2, 140), (3, 120)],
            informed_at_s: Some(2),
        };
        assert_eq!(s.final_count(), 120);
        assert_eq!(s.peak_count(), 140);
    }
}
