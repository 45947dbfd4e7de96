//! Full-precision pin of the road-safety case study (paper Figure 13):
//! both outcomes bit for bit, a digest over every speed sample, and the
//! sight-distance sweep. The CSV report rounds speeds to two decimals
//! and the gap to one, so a drift below that precision shows up here
//! first.

use geonet_scenarios::safety::{self, SafetyOutcome};
use geonet_sim::StateHasher;

/// The pinned scalars of one outcome: `(v2_warned, collision,
/// collision_time bits, min_gap bits)`.
fn scalars(out: &SafetyOutcome) -> (bool, bool, Option<u64>, u64) {
    (out.v2_warned, out.collision, out.collision_time.map(f64::to_bits), out.min_gap.to_bits())
}

/// Folds every `(t, v)` bit pattern of the four speed profiles, each
/// profile length-prefixed.
fn profiles_digest(af: &SafetyOutcome, atk: &SafetyOutcome) -> u64 {
    let mut h = StateHasher::new();
    for profile in [&af.v1_profile, &af.v2_profile, &atk.v1_profile, &atk.v2_profile] {
        h.write_u64(profile.len() as u64);
        for &(t, v) in profile {
            h.write_f64(t);
            h.write_f64(v);
        }
    }
    h.finish()
}

#[test]
fn fig13_is_pinned_at_full_precision() {
    let (af, atk) = safety::fig13();
    // Attacker-free: V2 is warned, the closest same-lane gap is 38.23 m.
    assert_eq!(scalars(&af), (true, false, None, 0x4043_1d70_a3d7_0a72));
    // Attacked: no warning, head-on collision at 18.4 s, gap -1.14 m.
    assert_eq!(scalars(&atk), (false, true, Some(0x4032_6666_6666_6664), 0xbff2_3d70_a3d7_1360));
    assert_eq!(profiles_digest(&af, &atk), 0x3a82_2a22_8aa7_f401);
    assert_eq!(
        safety::sight_distance_sweep(&[5.0, 10.0, 20.0, 60.0, 120.0]),
        [(5.0, true), (10.0, true), (20.0, false), (60.0, false), (120.0, false)]
    );
}
