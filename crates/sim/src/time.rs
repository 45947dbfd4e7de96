//! Integer-microsecond simulation time.
//!
//! All protocol constants in the reproduced paper are exact in
//! microseconds: the CBF timer bounds (1 ms / 100 ms), the beacon period
//! (3 s ± 0.75 s jitter), the location-table TTL (5/10/20 s) and the
//! 200-second run length. Integer time makes event ordering exact and runs
//! bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN or too large for the representation.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        let us = (s * 1e6).round();
        assert!(us <= u64::MAX as f64, "time overflow: {s} s");
        SimTime(us as u64)
    }

    /// This time in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This time in whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This time in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN or too large for the representation.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration in seconds: {s}");
        let us = (s * 1e6).round();
        assert!(us <= u64::MAX as f64, "duration overflow: {s} s");
        SimDuration(us as u64)
    }

    /// This duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration in whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or NaN.
    #[must_use]
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor: {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self` (integer division).
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_are_consistent() {
        let t = SimTime::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert_eq!(t.as_millis(), 3_000);
        assert_eq!(t.as_secs(), 3);
        assert_eq!(SimTime::from_millis(1).as_micros(), 1_000);
        assert_eq!(SimDuration::from_secs(200).as_secs(), 200);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.1).as_millis(), 100);
    }

    #[test]
    #[should_panic(expected = "invalid time in seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(5);
        let d = SimDuration::from_millis(100);
        assert_eq!((t + d).as_micros(), 5_100_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
        assert_eq!(SimDuration::from_secs(200) / SimDuration::from_secs(5), 40);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_to_microsecond() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(50));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
    }

    proptest! {
        #[test]
        fn prop_time_ordering_matches_micros(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
            let ta = SimTime::from_micros(a);
            let tb = SimTime::from_micros(b);
            prop_assert_eq!(ta < tb, a < b);
        }

        #[test]
        fn prop_add_sub_round_trip(t in 0u64..1u64<<40, d in 0u64..1u64<<40) {
            let time = SimTime::from_micros(t);
            let dur = SimDuration::from_micros(d);
            prop_assert_eq!((time + dur) - dur, time);
            prop_assert_eq!((time + dur) - time, dur);
        }

        #[test]
        fn prop_secs_f64_round_trip(us in 0u64..1u64<<40) {
            let d = SimDuration::from_micros(us);
            let back = SimDuration::from_secs_f64(d.as_secs_f64());
            // f64 has 53 bits of mantissa; within this range round-trip is
            // exact to the microsecond.
            prop_assert!(back.as_micros().abs_diff(us) <= 1);
        }
    }
}
