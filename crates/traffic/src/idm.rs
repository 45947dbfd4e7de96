//! The Intelligent Driver Model (IDM) car-following model.
//!
//! IDM computes a vehicle's longitudinal acceleration from its speed, the
//! gap to its leader and their speed difference:
//!
//! ```text
//! a = a_max · [ 1 − (v / v0)^δ − (s*(v, Δv) / s)² ]
//! s*(v, Δv) = s0 + v·T + v·Δv / (2·√(a_max·b))
//! ```
//!
//! with `v0` the desired velocity, `T` the safe time headway, `b` the
//! comfortable deceleration, `δ` the acceleration exponent and `s0` the
//! minimum distance. The paper's Table I parameter values are provided by
//! [`IdmParams::paper_default`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// IDM parameters (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdmParams {
    /// Desired velocity `v0`, m/s.
    pub desired_velocity: f64,
    /// Safe time headway `T`, seconds.
    pub safe_time_headway: f64,
    /// Maximum acceleration `a_max`, m/s².
    pub max_acceleration: f64,
    /// Comfortable deceleration `b`, m/s² (positive).
    pub comfortable_deceleration: f64,
    /// Acceleration exponent `δ`.
    pub acceleration_exponent: f64,
    /// Minimum bumper-to-bumper distance `s0`, metres.
    pub minimum_distance: f64,
}

impl IdmParams {
    /// The paper's Table I values: 30 m/s, 1.5 s, 1.0 m/s², 3.0 m/s²,
    /// exponent 4, minimum distance 2 m.
    #[must_use]
    pub const fn paper_default() -> Self {
        IdmParams {
            desired_velocity: 30.0,
            safe_time_headway: 1.5,
            max_acceleration: 1.0,
            comfortable_deceleration: 3.0,
            acceleration_exponent: 4.0,
            minimum_distance: 2.0,
        }
    }

    /// Validates that all parameters are finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("desired_velocity", self.desired_velocity),
            ("safe_time_headway", self.safe_time_headway),
            ("max_acceleration", self.max_acceleration),
            ("comfortable_deceleration", self.comfortable_deceleration),
            ("acceleration_exponent", self.acceleration_exponent),
            ("minimum_distance", self.minimum_distance),
        ];
        for (name, v) in checks {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("IDM parameter {name} must be finite and positive, got {v}"));
            }
        }
        Ok(())
    }

    /// The desired dynamic gap `s*(v, Δv)`.
    ///
    /// `v` is the follower's speed and `dv = v − v_leader` the closing
    /// speed (positive when approaching the leader).
    #[must_use]
    pub fn desired_gap(&self, v: f64, dv: f64) -> f64 {
        self.desired_gap_with(v, dv, self.braking_divisor())
    }

    /// `2·√(a_max·b)`, the divisor of the desired gap's braking term. It
    /// depends on the parameters alone, so a caller evaluating many
    /// vehicles computes it once and passes it to
    /// [`IdmParams::acceleration_from`]; the result is the same bits as
    /// computing it per call.
    pub(crate) fn braking_divisor(&self) -> f64 {
        2.0 * (self.max_acceleration * self.comfortable_deceleration).sqrt()
    }

    /// [`IdmParams::desired_gap`] given [`IdmParams::braking_divisor`].
    fn desired_gap_with(&self, v: f64, dv: f64, braking_divisor: f64) -> f64 {
        let dynamic = v * self.safe_time_headway + v * dv / braking_divisor;
        // s* is floored at s0: the stationary term never shrinks below the
        // minimum distance even when the leader is pulling away fast.
        self.minimum_distance + dynamic.max(0.0)
    }

    /// IDM acceleration for a follower at speed `v` with bumper-to-bumper
    /// `gap` to its leader and closing speed `dv = v − v_leader`.
    ///
    /// Pass `gap = f64::INFINITY` (or use [`IdmParams::free_road_acceleration`])
    /// when there is no leader. The result is clamped below at `−2·b` to
    /// model a physical emergency-braking limit.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is not positive — IDM is undefined at zero gap; the
    /// caller (the traffic simulation) treats gap ≤ 0 as a collision
    /// before invoking the model.
    #[must_use]
    pub fn acceleration(&self, v: f64, gap: f64, dv: f64) -> f64 {
        self.acceleration_from(self.free_term(v), v, gap, dv, self.braking_divisor())
    }

    /// The free-road term `1 − (v / v0)^δ`: the model's only libm call
    /// (`pow`). It is a pure function of `v`'s bits, so a caller that
    /// evaluates many vehicles at the same speed computes it once and
    /// passes it to [`IdmParams::acceleration_from`].
    pub(crate) fn free_term(&self, v: f64) -> f64 {
        1.0 - (v / self.desired_velocity).powf(self.acceleration_exponent)
    }

    /// [`IdmParams::acceleration`] given `free = free_term(v)` and
    /// [`IdmParams::braking_divisor`]; the same bits as computing both per
    /// call.
    pub(crate) fn acceleration_from(
        &self,
        free: f64,
        v: f64,
        gap: f64,
        dv: f64,
        braking_divisor: f64,
    ) -> f64 {
        assert!(gap > 0.0, "IDM undefined for non-positive gap: {gap}");
        let interaction = (self.desired_gap_with(v, dv, braking_divisor) / gap).powi(2);
        let a = self.max_acceleration * (free - interaction);
        a.max(-2.0 * self.comfortable_deceleration)
    }

    /// Acceleration on a free road (no leader).
    #[must_use]
    pub fn free_road_acceleration(&self, v: f64) -> f64 {
        self.max_acceleration * self.free_term(v)
    }
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams::paper_default()
    }
}

impl fmt::Display for IdmParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IDM(v0={} m/s, T={} s, a={} m/s², b={} m/s², δ={}, s0={} m)",
            self.desired_velocity,
            self.safe_time_headway,
            self.max_acceleration,
            self.comfortable_deceleration,
            self.acceleration_exponent,
            self.minimum_distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The model as one expression per call, before the free term was
    /// split out: the reference the split forms must equal bit for bit.
    fn one_call_acceleration(p: &IdmParams, v: f64, gap: f64, dv: f64) -> f64 {
        let free = 1.0 - (v / p.desired_velocity).powf(p.acceleration_exponent);
        let interaction = (p.desired_gap(v, dv) / gap).powi(2);
        let a = p.max_acceleration * (free - interaction);
        a.max(-2.0 * p.comfortable_deceleration)
    }

    /// [`one_call_acceleration`]'s free-road form.
    fn one_call_free_road(p: &IdmParams, v: f64) -> f64 {
        p.max_acceleration * (1.0 - (v / p.desired_velocity).powf(p.acceleration_exponent))
    }

    #[test]
    fn table1_values() {
        let p = IdmParams::paper_default();
        assert_eq!(p.desired_velocity, 30.0);
        assert_eq!(p.safe_time_headway, 1.5);
        assert_eq!(p.max_acceleration, 1.0);
        assert_eq!(p.comfortable_deceleration, 3.0);
        assert_eq!(p.acceleration_exponent, 4.0);
        assert_eq!(p.minimum_distance, 2.0);
        assert!(p.validate().is_ok());
        assert_eq!(IdmParams::default(), p);
    }

    #[test]
    fn free_road_accelerates_below_desired_speed() {
        let p = IdmParams::paper_default();
        assert!(p.free_road_acceleration(0.0) > 0.99);
        assert!(p.free_road_acceleration(15.0) > 0.0);
        assert!(p.free_road_acceleration(30.0).abs() < 1e-12);
        assert!(p.free_road_acceleration(35.0) < 0.0);
    }

    #[test]
    fn close_gap_forces_braking() {
        let p = IdmParams::paper_default();
        // At 30 m/s with a 5 m gap to a stopped leader the model must brake
        // hard.
        let a = p.acceleration(30.0, 5.0, 30.0);
        assert!(a <= -2.0 * p.comfortable_deceleration + 1e-9, "a = {a}");
    }

    #[test]
    fn equilibrium_gap_is_headway_plus_minimum() {
        let p = IdmParams::paper_default();
        // Following at equal speed: desired gap = s0 + v·T.
        let g = p.desired_gap(30.0, 0.0);
        assert!((g - (2.0 + 45.0)).abs() < 1e-9);
    }

    #[test]
    fn desired_gap_never_below_minimum() {
        let p = IdmParams::paper_default();
        // Leader pulling away fast: dynamic term would be negative.
        assert!((p.desired_gap(10.0, -50.0) - p.minimum_distance).abs() < 1e-12);
    }

    #[test]
    fn acceleration_clamped_at_emergency_limit() {
        let p = IdmParams::paper_default();
        let a = p.acceleration(30.0, 0.1, 30.0);
        assert_eq!(a, -2.0 * p.comfortable_deceleration);
    }

    #[test]
    #[should_panic(expected = "non-positive gap")]
    fn zero_gap_panics() {
        let _ = IdmParams::paper_default().acceleration(10.0, 0.0, 0.0);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = IdmParams::paper_default();
        p.safe_time_headway = -1.0;
        let err = p.validate().unwrap_err();
        assert!(err.contains("safe_time_headway"), "{err}");
    }

    #[test]
    fn display_lists_parameters() {
        let s = IdmParams::paper_default().to_string();
        assert!(s.contains("v0=30") && s.contains("s0=2"), "{s}");
    }

    proptest! {
        #[test]
        fn prop_acceleration_finite_and_bounded(v in 0.0f64..40.0,
                                                gap in 0.1f64..2_000.0,
                                                dv in -40.0f64..40.0) {
            let p = IdmParams::paper_default();
            let a = p.acceleration(v, gap, dv);
            prop_assert!(a.is_finite());
            prop_assert!(a <= p.max_acceleration + 1e-9);
            prop_assert!(a >= -2.0 * p.comfortable_deceleration - 1e-9);
        }

        #[test]
        fn prop_acceleration_monotone_in_gap(v in 0.0f64..40.0,
                                             g1 in 0.1f64..2_000.0,
                                             g2 in 0.1f64..2_000.0,
                                             dv in -40.0f64..40.0) {
            // A larger gap never yields a smaller acceleration.
            let p = IdmParams::paper_default();
            let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
            prop_assert!(p.acceleration(v, hi, dv) >= p.acceleration(v, lo, dv) - 1e-9);
        }

        /// The split the traffic step relies on: a free term computed
        /// once and passed in gives the bits of the public forms, and
        /// both give the bits of the one-expression model, for any valid
        /// parameters.
        #[test]
        fn prop_split_terms_match_one_call_forms_bit_for_bit(
            v0 in 1.0f64..60.0, t in 0.1f64..4.0, a_max in 0.1f64..5.0,
            b in 0.1f64..10.0, delta in 0.5f64..8.0, s0 in 0.1f64..10.0,
            v in 0.0f64..60.0, gap in 1e-3f64..5_000.0, dv in -60.0f64..60.0)
        {
            let p = IdmParams {
                desired_velocity: v0,
                safe_time_headway: t,
                max_acceleration: a_max,
                comfortable_deceleration: b,
                acceleration_exponent: delta,
                minimum_distance: s0,
            };
            prop_assert!(p.validate().is_ok());
            let free = p.free_term(v);
            let a = p.acceleration(v, gap, dv);
            prop_assert_eq!(
                p.acceleration_from(free, v, gap, dv, p.braking_divisor()).to_bits(),
                a.to_bits()
            );
            prop_assert_eq!(a.to_bits(), one_call_acceleration(&p, v, gap, dv).to_bits());
            let free_road = p.free_road_acceleration(v);
            prop_assert_eq!((p.max_acceleration * free).to_bits(), free_road.to_bits());
            prop_assert_eq!(free_road.to_bits(), one_call_free_road(&p, v).to_bits());
        }

        #[test]
        fn prop_follower_never_collides_in_simulation(
            leader_v in 0.0f64..30.0, extra_gap in 0.0f64..200.0)
        {
            // Euler-integrate a follower behind a constant-speed leader at
            // the paper's 0.1 s timestep, starting from an equilibrium-safe
            // state (same speed, at least the desired gap): the gap must
            // never go below zero.
            let p = IdmParams::paper_default();
            let dt = 0.1;
            let mut v = leader_v;
            let mut gap = p.desired_gap(leader_v, 0.0) + extra_gap;
            for _ in 0..2_000 {
                let a = p.acceleration(v, gap.max(0.01), v - leader_v);
                let v_new = (v + a * dt).max(0.0);
                gap += (leader_v - (v + v_new) / 2.0) * dt;
                v = v_new;
                prop_assert!(gap > 0.0, "collision: gap = {gap}");
            }
        }
    }
}
