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
//! This module uses the protocol stack directly (routers + medium +
//! attacker, no road traffic model) with scripted longitudinal kinematics
//! matching the paper's speed profiles: V1 at 27 m/s and V2 at 14 m/s,
//! both comfort-braking at 2 m/s², warned deceleration 4 m/s², emergency
//! braking 6 m/s² once the drivers see each other across the curve.

use geonet::{
    CertificateAuthority, Frame, GnAddress, GnConfig, GnRouter, OnAir, PacketKey, RouterAction,
    Verifier,
};
use geonet_attack::{Attacker, BlockageMode};
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_radio::{Medium, NodeId};
use geonet_sim::{Kernel, SimTime};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

#[derive(Debug, Clone, Copy, PartialEq)]
enum V2Mode {
    Cruising,
    Warned,
}

/// Protocol events of the case study.
#[derive(Debug)]
enum Ev {
    Deliver { to: NodeId, frame: Rc<OnAir> },
    CbfTimer { node: NodeId, key: PacketKey, generation: u64 },
    AttackerTx { frame: Frame, cap: Option<f64> },
}

/// Puts `frame` on the air from `from` at time `at`: one shared [`OnAir`]
/// delivered to every node within the sender's range (optionally
/// power-capped) after the propagation delay.
fn transmit(
    kernel: &mut Kernel<Ev>,
    medium: &Medium,
    verifier: &Verifier,
    from: NodeId,
    frame: Frame,
    cap: Option<f64>,
    at: SimTime,
) {
    let on_air = Rc::new(OnAir::new(frame, verifier));
    let cap = cap.unwrap_or_else(|| medium.tx_range(from));
    for rx in medium.receivers_within(from, cap) {
        let d = medium.propagation_delay(from, rx);
        kernel.schedule_at(at + d, Ev::Deliver { to: rx, frame: Rc::clone(&on_air) });
    }
}

/// Runs the case study once.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &SafetyConfig, attacked: bool) -> SafetyOutcome {
    let reference = GeoReference::default();
    let ca = CertificateAuthority::new(0x5AFE);
    let verifier = ca.verifier();
    let gn = GnConfig::paper_default(1_283.0);

    let mut medium = Medium::new();
    let v1_node = medium.register(Position::new(cfg.v1_start_x, 0.0), cfg.radio_range);
    let v2_node = medium.register(Position::new(cfg.v2_start_x, 0.0), cfg.radio_range);
    let _r1_node = medium.register(Position::new(0.0, 40.0), cfg.radio_range);
    let mut routers = [
        GnRouter::new(ca.enroll(GnAddress::vehicle(1)), ca.verifier(), gn, reference),
        GnRouter::new(ca.enroll(GnAddress::vehicle(2)), ca.verifier(), gn, reference),
        GnRouter::new(ca.enroll(GnAddress::roadside(1)), ca.verifier(), gn, reference),
    ];
    let mut attacker = attacked.then(|| {
        // Spot 2: beside R1; replay at minimal power so only R1 hears.
        medium.register(Position::new(2.0, 40.0), cfg.radio_range);
        Attacker::blockage(Position::new(2.0, 40.0), BlockageMode::PowerControlled { range: 5.0 })
    });
    let attacker_node = attacked.then_some(NodeId(3));

    // Event loop: deliveries, CBF timers and attacker replays.
    let mut kernel: Kernel<Ev> = Kernel::new();

    let dt = 0.1_f64;
    let mut t = 0.0_f64;
    let mut x1 = cfg.v1_start_x;
    let mut v1 = cfg.v1_speed;
    let mut x2 = cfg.v2_start_x;
    let mut v2 = cfg.v2_speed;
    let mut v1_in_oncoming = false;
    let mut warned_sent = false;
    let mut v2_mode = V2Mode::Cruising;
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
        let now = SimTime::from_secs_f64(t);
        // --- Protocol events due by `now`. ---
        while kernel.peek_time().map(|pt| pt <= now).unwrap_or(false) {
            let (_, ev) = kernel.pop().expect("peeked");
            match ev {
                Ev::Deliver { to, frame } => {
                    if Some(to) == attacker_node {
                        if let Some(atk) = attacker.as_mut() {
                            if let Some(order) = atk.on_sniff(frame.frame(), now) {
                                kernel.schedule_in(
                                    order.delay,
                                    Ev::AttackerTx { frame: order.frame, cap: order.range_cap },
                                );
                            }
                        }
                        continue;
                    }
                    let pos = medium.position(to);
                    let rt = kernel.now();
                    let actions = routers[to.index()].receive(&frame, pos, rt);
                    for a in actions {
                        match a {
                            RouterAction::Transmit(f) => {
                                transmit(&mut kernel, &medium, &verifier, to, f, None, rt);
                            }
                            RouterAction::Deliver { .. } => {
                                if to == v2_node {
                                    v2_warned = true;
                                    v2_mode = V2Mode::Warned;
                                }
                            }
                            RouterAction::CbfTimer { key, generation, delay } => {
                                kernel
                                    .schedule_in(delay, Ev::CbfTimer { node: to, key, generation });
                            }
                            RouterAction::GfRetry { .. } => {
                                // The curve scenario broadcasts within the
                                // area; GF never buffers here.
                            }
                        }
                    }
                }
                Ev::CbfTimer { node, key, generation } => {
                    let pos = medium.position(node);
                    let rt = kernel.now();
                    let actions = routers[node.index()].handle_cbf_timer(key, generation, pos, rt);
                    for a in actions {
                        if let RouterAction::Transmit(f) = a {
                            transmit(&mut kernel, &medium, &verifier, node, f, None, rt);
                        }
                    }
                }
                Ev::AttackerTx { frame, cap } => {
                    if let Some(an) = attacker_node {
                        let rt = kernel.now();
                        transmit(&mut kernel, &medium, &verifier, an, frame, cap, rt);
                    }
                }
            }
        }

        // --- The warning broadcast. ---
        if !warned_sent && t >= cfg.warn_time {
            warned_sent = true;
            v1_in_oncoming = true;
            let pos = Position::new(x1, 0.0);
            let rt = SimTime::from_secs_f64(t);
            // Scheduling into the kernel requires now >= kernel.now; feed
            // the kernel a no-op time advance by scheduling at `rt`.
            let (_, actions) = routers[v1_node.index()].originate(
                &warn_area,
                vec![0x7A],
                rt,
                pos,
                v1,
                Heading::EAST,
            );
            for a in actions {
                if let RouterAction::Transmit(f) = a {
                    transmit(&mut kernel, &medium, &verifier, v1_node, f, None, rt);
                }
            }
        }

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
        } else {
            match v2_mode {
                V2Mode::Cruising => {
                    if v2 > cfg.v2_floor_speed + 6.0 {
                        -cfg.comfort_decel
                    } else {
                        0.0
                    }
                }
                V2Mode::Warned => {
                    if v2 > cfg.v2_floor_speed {
                        -cfg.warned_decel
                    } else {
                        0.0
                    }
                }
            }
        };
        let v1_new = (v1 + a1 * dt).max(0.0);
        let v2_new = (v2 + a2 * dt).max(0.0);
        x1 += (v1 + v1_new) / 2.0 * dt;
        x2 -= (v2 + v2_new) / 2.0 * dt;
        v1 = v1_new;
        v2 = v2_new;
        medium.set_position(v1_node, Position::new(x1, 0.0));
        medium.set_position(v2_node, Position::new(x2, 0.0));
        v1_profile.push((t, v1));
        v2_profile.push((t, v2));
        t += dt;

        if collision_time.is_some() {
            break;
        }
    }

    SafetyOutcome {
        attacked,
        v2_warned,
        collision: collision_time.is_some(),
        collision_time,
        v1_profile,
        v2_profile,
        min_gap,
    }
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
