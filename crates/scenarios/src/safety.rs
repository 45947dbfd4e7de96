//! Road-safety impact: the blind-curve collision case study (paper
//! Figure 13 / Figure 11b).
//!
//! Two vehicles approach a curve from opposite sides. Terrain blocks the
//! direct radio path, so a roadside unit (R1) at the curve's outer edge
//! relays between them. V1 spots a hazard on its lane, swerves into the
//! oncoming lane and GeoBroadcasts a lane-change warning; attacker-free,
//! R1's CBF re-broadcast reaches V2, which slows early and the vehicles
//! never meet in the same lane. Under the Spot-2 intra-area blockage
//! variant, the attacker (sitting beside R1) replays the warning at
//! minimal transmission power so that *only R1* hears it: R1 discards its
//! buffered copy as a duplicate, V2 is never warned, and the late
//! emergency braking cannot prevent the head-on collision.
//!
//! The scenario is a driver on [`World`], like Figure 12's: an empty
//! road, V1, V2 and R1 as static nodes, and the world's blockage
//! attacker. Each 0.1 s step runs the world up to the step, then applies
//! scripted kinematics matching the paper's speed profiles (V1 at 27 m/s
//! and V2 at 14 m/s, comfort-braking at 2 m/s², warned 4 m/s², emergency
//! 6 m/s² once the drivers see each other) and moves V1 and V2.

use crate::config::{AttackerSetup, ScenarioConfig};
use crate::world::World;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::NodeId;
use geonet_sim::SimTime;
use geonet_traffic::Direction;

/// Scenario geometry and kinematics (all tunable for ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyConfig {
    /// V1 initial longitudinal position, metres (moving towards +x).
    pub v1_start_x: f64,
    /// V1 initial speed, m/s (paper: 27).
    pub v1_speed: f64,
    /// V2 initial position, metres (moving towards −x).
    pub v2_start_x: f64,
    /// V2 initial speed, m/s (paper: 14).
    pub v2_speed: f64,
    /// Comfort deceleration while approaching the curve (paper: 2 m/s²).
    pub comfort_decel: f64,
    /// Deceleration after receiving the warning (paper: 4 m/s²).
    pub warned_decel: f64,
    /// Emergency deceleration once the drivers see each other (6 m/s²).
    pub emergency_decel: f64,
    /// Sight distance across the obstructed curve, metres.
    pub sight_distance: f64,
    /// Radio range of the vehicles and R1 (short: the curve is NLoS).
    pub radio_range: f64,
    /// Time at which V1 detects the hazard, swerves and warns, seconds.
    ///
    /// It is compared with the driver's step time, a sum of 0.1 s steps.
    /// Ten of them add up to 0.9999999999999999, so at the default 1.0 V1
    /// swerves and warns at the 1.1 s step, one step late: the Figure 13
    /// CSV row `1.0` still shows V1 comfort-braking at 2 m/s². Mending it
    /// changes the Figure 13 report.
    pub warn_time: f64,
    /// V1 occupies the oncoming lane while its position is below this
    /// (end of the blocked stretch).
    pub lane_return_x: f64,
    /// Speed V1 holds while passing the hazard.
    pub v1_pass_speed: f64,
    /// Floor speed V2 settles at after its (comfort or warned) braking.
    pub v2_floor_speed: f64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            v1_start_x: -200.0,
            v1_speed: 27.0,
            v2_start_x: 200.0,
            v2_speed: 14.0,
            comfort_decel: 2.0,
            warned_decel: 4.0,
            emergency_decel: 6.0,
            sight_distance: 10.0,
            radio_range: 250.0,
            warn_time: 1.0,
            lane_return_x: 100.0,
            v1_pass_speed: 12.0,
            v2_floor_speed: 2.0,
        }
    }
}

/// The outcome of one run of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyOutcome {
    /// Whether the attacker was present.
    pub attacked: bool,
    /// Did V2 ever receive the lane-change warning?
    pub v2_warned: bool,
    /// Did the vehicles collide?
    pub collision: bool,
    /// Time of the collision, seconds, if any.
    pub collision_time: Option<f64>,
    /// `(t, speed)` samples of V1 at 10 Hz (paper Figure 13a).
    pub v1_profile: Vec<(f64, f64)>,
    /// `(t, speed)` samples of V2 at 10 Hz (paper Figure 13b).
    pub v2_profile: Vec<(f64, f64)>,
    /// Minimum same-lane gap observed, metres.
    pub min_gap: f64,
}

/// World seed of the case study. The outcome does not depend on it: the
/// only draws are beacon offsets, and CBF contention follows geometry.
const SEED: u64 = 0x5AFE;

/// Builds the curve world on `seed`: an empty road (pre-fill spacing
/// beyond the road length, entry gate shut before the first step), and
/// V1, V2 and R1 as static nodes, returned in that order. Attacked, the
/// Spot-2 attacker sits beside R1; it sniffs within the nodes' radio
/// range, as a unit-disk node there would, and replays within 5 m.
pub(crate) fn world(cfg: &SafetyConfig, attacked: bool, seed: u64) -> (World, [NodeId; 3]) {
    let base = ScenarioConfig::paper_dsrc_default();
    let scenario = ScenarioConfig {
        attacker_position: Position::new(2.0, 40.0),
        attack_range: cfg.radio_range,
        ..base.with_spacing(2.0 * base.road.length)
    };
    let setup = AttackerSetup::IntraArea(BlockageMode::PowerControlled { range: 5.0 });
    let mut w = World::new(scenario, attacked.then_some(setup), seed);
    w.set_entry_open(Direction::East, false);
    let nodes = [(cfg.v1_start_x, 0.0), (cfg.v2_start_x, 0.0), (0.0, 40.0)]
        .map(|(x, y)| w.add_static_node(Position::new(x, y), cfg.radio_range));
    (w, nodes)
}

/// Drives the case study on a world from [`world`] at 10 Hz: runs the
/// protocol up to each step, sends V1's warning once, then applies the
/// scripted kinematics and moves V1 and V2.
pub(crate) fn drive(
    cfg: &SafetyConfig,
    w: &mut World,
    [v1_node, v2_node, _]: [NodeId; 3],
) -> SafetyOutcome {
    let dt = 0.1_f64;
    let mut t = 0.0_f64;
    let mut x1 = cfg.v1_start_x;
    let mut v1 = cfg.v1_speed;
    let mut x2 = cfg.v2_start_x;
    let mut v2 = cfg.v2_speed;
    let mut v1_in_oncoming = false;
    let mut warning = None;
    let mut v2_warned = false;
    let mut emergency = false;
    let mut collision_time = None;
    let mut min_gap = f64::INFINITY;
    let mut v1_profile = Vec::new();
    let mut v2_profile = Vec::new();
    // The warning's destination area: the whole curve neighbourhood.
    let warn_area = Area::circle(Position::new(0.0, 0.0), 600.0);

    let steps = (40.0 / dt) as usize;
    for _ in 0..steps {
        // --- Protocol events due by now. A traffic step lands on every
        // 100 ms, so the world's clock stops exactly at the step. ---
        w.run_until(SimTime::from_secs_f64(t));
        debug_assert_eq!(w.now(), SimTime::from_secs_f64(t));

        // --- The warning broadcast. ---
        if warning.is_none() && t >= cfg.warn_time {
            v1_in_oncoming = true;
            warning = Some(w.originate_from(v1_node, &warn_area, vec![0x7A]));
        }
        v2_warned = warning.is_some_and(|key| w.was_received(key, v2_node));

        // --- Kinematics. ---
        let gap = x2 - x1;
        if v1_in_oncoming && x1 >= cfg.lane_return_x {
            v1_in_oncoming = false; // passed the blockage, back to own lane
        }
        let same_lane = v1_in_oncoming;
        if same_lane && gap <= cfg.sight_distance {
            emergency = true;
        }
        if same_lane && gap <= 0.0 && collision_time.is_none() && (v1 > 0.0 || v2 > 0.0) {
            collision_time = Some(t);
        }
        if same_lane {
            min_gap = min_gap.min(gap);
        }

        let a1 = if emergency {
            -cfg.emergency_decel
        } else if t < cfg.warn_time {
            -cfg.comfort_decel
        } else if v1 > cfg.v1_pass_speed {
            -cfg.warned_decel
        } else {
            0.0
        };
        let a2 = if emergency {
            -cfg.emergency_decel
        } else if v2_warned {
            if v2 > cfg.v2_floor_speed {
                -cfg.warned_decel
            } else {
                0.0
            }
        } else if v2 > cfg.v2_floor_speed + 6.0 {
            -cfg.comfort_decel
        } else {
            0.0
        };
        let v1_new = (v1 + a1 * dt).max(0.0);
        let v2_new = (v2 + a2 * dt).max(0.0);
        x1 += (v1 + v1_new) / 2.0 * dt;
        x2 -= (v2 + v2_new) / 2.0 * dt;
        v1 = v1_new;
        v2 = v2_new;
        w.set_node_position(v1_node, Position::new(x1, 0.0));
        w.set_node_position(v2_node, Position::new(x2, 0.0));
        v1_profile.push((t, v1));
        v2_profile.push((t, v2));
        t += dt;

        if collision_time.is_some() {
            break;
        }
    }

    SafetyOutcome {
        attacked: w.attacker().is_some(),
        v2_warned,
        collision: collision_time.is_some(),
        collision_time,
        v1_profile,
        v2_profile,
        min_gap,
    }
}

/// Runs the case study once.
#[must_use]
pub fn run(cfg: &SafetyConfig, attacked: bool) -> SafetyOutcome {
    let (mut w, nodes) = world(cfg, attacked, SEED);
    drive(cfg, &mut w, nodes)
}

/// Figure 13: `(attacker-free, attacked)` outcomes with the default
/// scenario.
#[must_use]
pub fn fig13() -> (SafetyOutcome, SafetyOutcome) {
    let cfg = SafetyConfig::default();
    (run(&cfg, false), run(&cfg, true))
}

/// Sweeps the sight distance across the blind curve: with enough visual
/// warning, emergency braking saves the vehicles even when the radio
/// warning is blocked. Returns `(sight distance, attacked collision?)`.
#[must_use]
pub fn sight_distance_sweep(distances: &[f64]) -> Vec<(f64, bool)> {
    distances
        .iter()
        .map(|&d| {
            let cfg = SafetyConfig { sight_distance: d, ..SafetyConfig::default() };
            (d, run(&cfg, true).collision)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::{shared, TraceEvent, TraceRecord, VecSink};
    use std::collections::BTreeSet;

    /// Runs the default case study on a traced world built from `seed`.
    fn traced(attacked: bool, seed: u64) -> (World, [NodeId; 3], Vec<TraceRecord>) {
        let cfg = SafetyConfig::default();
        let (mut w, nodes) = world(&cfg, attacked, seed);
        let sink = shared(VecSink::new());
        w.set_trace_sink(sink.clone());
        let _ = drive(&cfg, &mut w, nodes);
        let records = sink.borrow_mut().drain();
        (w, nodes, records)
    }

    /// The events `node` logged, in order.
    fn events_of(records: &[TraceRecord], node: NodeId) -> Vec<&TraceEvent> {
        records.iter().filter(|r| r.node == node.0).map(|r| &r.event).collect()
    }

    #[test]
    fn attacker_free_relay_fires_and_v2_delivers() {
        let (_, [_, v2, r1], records) = traced(false, SEED);
        let r1_events = events_of(&records, r1);
        let armed = r1_events.iter().position(|e| matches!(e, TraceEvent::CbfArmed { .. }));
        let fired = r1_events.iter().position(|e| matches!(e, TraceEvent::CbfFired { .. }));
        assert!(armed.is_some() && armed < fired, "R1 armed at {armed:?}, fired at {fired:?}");
        let delivered =
            events_of(&records, v2).iter().any(|e| matches!(e, TraceEvent::Delivered { .. }));
        assert!(delivered, "V2 never delivered the warning");
    }

    #[test]
    fn attacked_relay_is_cancelled_by_a_replay_only_r1_hears() {
        let (w, [_, _, r1], records) = traced(true, SEED);
        let attacker = w.attacker_address().expect("the blockage attacker has a pseudonym");
        let cancelled = events_of(&records, r1)
            .iter()
            .any(|e| matches!(e, TraceEvent::CbfCancelled { by, .. } if *by == attacker));
        assert!(cancelled, "R1's timer was not cancelled by the attacker");
        let hearers: BTreeSet<u32> = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::FrameRx { from, .. } if from == attacker))
            .map(|r| r.node)
            .collect();
        assert_eq!(hearers, BTreeSet::from([r1.0]));
    }

    #[test]
    fn outcome_does_not_depend_on_the_world_seed() {
        let cfg = SafetyConfig::default();
        for attacked in [false, true] {
            let outcome = |seed| {
                let (mut w, nodes) = world(&cfg, attacked, seed);
                drive(&cfg, &mut w, nodes)
            };
            let reference = outcome(SEED);
            for seed in [1, 2] {
                assert_eq!(outcome(seed), reference, "seed {seed}, attacked {attacked}");
            }
        }
    }

    #[test]
    fn attacker_free_warning_arrives_and_no_collision() {
        let out = run(&SafetyConfig::default(), false);
        assert!(out.v2_warned, "R1 relay failed");
        assert!(!out.collision, "collision despite warning (min gap {})", out.min_gap);
    }

    #[test]
    fn attacked_warning_blocked_and_collision() {
        let out = run(&SafetyConfig::default(), true);
        assert!(!out.v2_warned, "Spot-2 replay failed to silence R1");
        assert!(out.collision, "no collision despite blocked warning (min gap {})", out.min_gap);
        assert!(out.collision_time.is_some());
    }

    #[test]
    fn speed_profiles_are_sampled() {
        let (af, atk) = fig13();
        assert!(af.v1_profile.len() > 50);
        assert!(atk.v2_profile.len() > 50);
        // V1 starts at 27 m/s and decelerates.
        assert!((af.v1_profile[0].1 - 27.0).abs() < 0.5);
        let final_v1 = af.v1_profile.last().unwrap().1;
        assert!(final_v1 < 27.0);
    }

    #[test]
    fn enough_sight_distance_saves_them_even_attacked() {
        let results = sight_distance_sweep(&[5.0, 10.0, 120.0]);
        assert!(results[0].1, "5 m of sight cannot prevent the collision");
        assert!(results[1].1, "10 m of sight cannot prevent the collision");
        assert!(!results[2].1, "120 m of sight gives emergency braking room to stop");
    }

    #[test]
    fn warned_v2_slows_more_than_unwarned() {
        let (af, atk) = fig13();
        // Compare V2's speed 10 s in (if both ran that long).
        let at = |p: &[(f64, f64)], t: f64| {
            p.iter().find(|(pt, _)| (*pt - t).abs() < 0.05).map(|&(_, v)| v)
        };
        if let (Some(v_af), Some(v_atk)) = (at(&af.v2_profile, 8.0), at(&atk.v2_profile, 8.0)) {
            assert!(v_af < v_atk, "warned V2 ({v_af}) should be slower than unwarned ({v_atk})");
        }
    }
}
