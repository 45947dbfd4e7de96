//! Time-binned metrics and the paper's A/B rate computations.
//!
//! The paper evaluates every setting with A/B testing: an attacker-free run
//! (A) and an attacked run (B), each 200 s long, repeated 100 times. Packet
//! reception rates are computed per 5-second time bin (40 bins per run) and
//! the headline numbers are:
//!
//! * interception rate **γ** — the average drop of the reception rate from
//!   A to B over the 40 bins (inter-area attack), and
//! * blockage rate **λ** — the same quantity for the intra-area attack.
//!
//! [`TimeBins`] accumulates success/total counts per bin across many runs;
//! [`AbComparison`] derives γ/λ and the accumulated (cumulative-over-time)
//! rates plotted in the paper's Figures 8 and 10.

use crate::{SimDuration, SimTime};
use std::fmt;

/// Success/total counters per fixed-width time bin.
///
/// # Example
///
/// ```
/// use geonet_sim::{SimDuration, SimTime, TimeBins};
///
/// // 40 bins of 5 s — the paper's layout for a 200 s run.
/// let mut bins = TimeBins::new(SimDuration::from_secs(5), 40);
/// bins.record(SimTime::from_secs(2), true);
/// bins.record(SimTime::from_secs(3), false);
/// assert_eq!(bins.rate(0), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBins {
    width: SimDuration,
    success: Vec<u64>,
    total: Vec<u64>,
}

impl TimeBins {
    /// Creates `count` bins of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `count` is zero.
    #[must_use]
    pub fn new(width: SimDuration, count: usize) -> Self {
        assert!(width > SimDuration::ZERO, "bin width must be positive");
        assert!(count > 0, "need at least one bin");
        TimeBins { width, success: vec![0; count], total: vec![0; count] }
    }

    /// The paper's layout: 40 bins × 5 s covering a 200 s run.
    #[must_use]
    pub fn paper_default() -> Self {
        TimeBins::new(SimDuration::from_secs(5), 40)
    }

    /// Number of bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// Returns `true` if there are no bins (never true for constructed
    /// values; exists for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// Width of each bin.
    #[must_use]
    pub fn bin_width(&self) -> SimDuration {
        self.width
    }

    /// Records one trial at time `t`: `ok` indicates success (e.g. the
    /// packet was received). Events past the last bin are attributed to the
    /// last bin, so a trial exactly at the run horizon still counts.
    pub fn record(&mut self, t: SimTime, ok: bool) {
        let idx = ((t.as_micros() / self.width.as_micros()) as usize).min(self.total.len() - 1);
        self.total[idx] += 1;
        if ok {
            self.success[idx] += 1;
        }
    }

    /// Records a trial with an explicit weight, for metrics where a trial
    /// covers many receivers (e.g. "fraction of vehicles that received the
    /// broadcast": `successes` receivers out of `trials` on-road vehicles).
    pub fn record_weighted(&mut self, t: SimTime, successes: u64, trials: u64) {
        let idx = ((t.as_micros() / self.width.as_micros()) as usize).min(self.total.len() - 1);
        self.total[idx] += trials;
        self.success[idx] += successes;
    }

    /// Success rate of bin `idx`, or `None` if the bin is empty or out of
    /// range.
    #[must_use]
    pub fn rate(&self, idx: usize) -> Option<f64> {
        let &total = self.total.get(idx)?;
        if total == 0 {
            None
        } else {
            Some(self.success[idx] as f64 / total as f64)
        }
    }

    /// Success rates for all bins; empty bins yield `None`.
    #[must_use]
    pub fn rates(&self) -> Vec<Option<f64>> {
        (0..self.len()).map(|i| self.rate(i)).collect()
    }

    /// Overall success rate across all bins, or `None` if nothing was
    /// recorded.
    #[must_use]
    pub fn overall_rate(&self) -> Option<f64> {
        let total: u64 = self.total.iter().sum();
        if total == 0 {
            None
        } else {
            let success: u64 = self.success.iter().sum();
            Some(success as f64 / total as f64)
        }
    }

    /// Mean of the non-empty per-bin rates (the paper averages bin rates,
    /// not raw counts), or `None` if every bin is empty.
    #[must_use]
    pub fn mean_bin_rate(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.len() {
            if let Some(r) = self.rate(i) {
                sum += r;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Cumulative success rate up to and including each bin — the
    /// "accumulated rate over time" series of the paper's Figures 8/10
    /// (there plotted as accumulated *interception* rate, i.e. one minus
    /// this for attacked runs relative to baseline).
    #[must_use]
    pub fn accumulated_rates(&self) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(self.len());
        let mut s = 0u64;
        let mut t = 0u64;
        for i in 0..self.len() {
            s += self.success[i];
            t += self.total[i];
            out.push(if t == 0 { None } else { Some(s as f64 / t as f64) });
        }
        out
    }

    /// Merges another set of bins into this one (same width and count).
    ///
    /// Used to aggregate the 100 runs of one experiment setting.
    ///
    /// # Panics
    ///
    /// Panics if the bin layouts differ.
    pub fn merge(&mut self, other: &TimeBins) {
        assert_eq!(self.width, other.width, "bin width mismatch");
        assert_eq!(self.len(), other.len(), "bin count mismatch");
        for i in 0..self.len() {
            self.success[i] += other.success[i];
            self.total[i] += other.total[i];
        }
    }
}

impl fmt::Display for TimeBins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeBins[{} × {}]", self.len(), self.width)?;
        if let Some(r) = self.overall_rate() {
            write!(f, " overall={:.3}", r)?;
        }
        Ok(())
    }
}

/// The paper's A/B comparison: attacker-free bins (A) vs attacked bins (B).
///
/// `drop_rate()` is the γ/λ statistic: the average, over bins where both
/// runs have data and the baseline is non-zero, of the **relative** drop
/// `(rate_A − rate_B) / rate_A`, floored at zero per bin (an attack cannot
/// "negatively intercept"; tiny negative diffs are sampling noise). The
/// relative form is what the paper reports: its γ reaches 99.9 % even in
/// scenarios whose attacker-free reception is far below 100 %.
#[derive(Debug, Clone, PartialEq)]
pub struct AbComparison {
    baseline: TimeBins,
    attacked: TimeBins,
}

impl AbComparison {
    /// Pairs a baseline (attacker-free) run's bins with an attacked run's.
    ///
    /// # Panics
    ///
    /// Panics if the two bin layouts differ.
    #[must_use]
    pub fn new(baseline: TimeBins, attacked: TimeBins) -> Self {
        assert_eq!(baseline.bin_width(), attacked.bin_width(), "bin width mismatch");
        assert_eq!(baseline.len(), attacked.len(), "bin count mismatch");
        AbComparison { baseline, attacked }
    }

    /// The attacker-free bins.
    #[must_use]
    pub fn baseline(&self) -> &TimeBins {
        &self.baseline
    }

    /// The attacked bins.
    #[must_use]
    pub fn attacked(&self) -> &TimeBins {
        &self.attacked
    }

    /// The γ/λ statistic: average per-bin **relative** drop of the success
    /// rate from baseline to attacked, over bins where both have data and
    /// the baseline rate is non-zero. Returns `None` if no such bin
    /// exists.
    #[must_use]
    pub fn drop_rate(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.baseline.len() {
            if let (Some(a), Some(b)) = (self.baseline.rate(i), self.attacked.rate(i)) {
                if a > 0.0 {
                    sum += ((a - b) / a).max(0.0);
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Accumulated drop rate over time: for each bin, the relative drop
    /// between the cumulative baseline and cumulative attacked rates
    /// (Figures 8/10).
    #[must_use]
    pub fn accumulated_drop_rates(&self) -> Vec<Option<f64>> {
        let a = self.baseline.accumulated_rates();
        let b = self.attacked.accumulated_rates();
        a.into_iter()
            .zip(b)
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) if a > 0.0 => Some(((a - b) / a).max(0.0)),
                _ => None,
            })
            .collect()
    }
}

/// Streaming mean/variance/min/max over `f64` samples (Welford's method).
///
/// # Example
///
/// ```
/// use geonet_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), Some(2.0));
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        RunningStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN sample silently poisons every derived
    /// statistic, so it is rejected loudly instead.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one, as if every sample pushed
    /// into `other` had been pushed here (Chan et al.'s parallel variance
    /// combination). Mirrors [`TimeBins::merge`]: it lets per-run stats be
    /// aggregated across a campaign without re-pushing raw samples.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let (n1, n2) = (self.n as f64, other.n as f64);
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.mean += delta * n2 / (n1 + n2);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n = n;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample standard deviation, or `None` with fewer than two
    /// samples.
    #[must_use]
    pub fn std_dev(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n - 1) as f64).sqrt())
    }

    /// Smallest sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(m) => write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.n,
                m,
                self.std_dev().unwrap_or(0.0),
                self.min,
                self.max
            ),
            None => write!(f, "n=0"),
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bins_40x5() -> TimeBins {
        TimeBins::new(SimDuration::from_secs(5), 40)
    }

    #[test]
    fn record_lands_in_correct_bin() {
        let mut b = bins_40x5();
        b.record(SimTime::from_secs(0), true);
        b.record(SimTime::from_secs(4), false);
        b.record(SimTime::from_secs(5), true); // bin 1
        assert_eq!(b.rate(0), Some(0.5));
        assert_eq!(b.rate(1), Some(1.0));
        assert_eq!(b.rate(2), None);
    }

    #[test]
    fn record_at_horizon_goes_to_last_bin() {
        let mut b = bins_40x5();
        b.record(SimTime::from_secs(200), true); // bin index would be 40
        assert_eq!(b.rate(39), Some(1.0));
    }

    #[test]
    fn weighted_record() {
        let mut b = bins_40x5();
        b.record_weighted(SimTime::from_secs(1), 70, 100);
        assert_eq!(b.rate(0), Some(0.7));
        assert_eq!(b.overall_rate(), Some(0.7));
    }

    #[test]
    fn accumulated_rates_are_cumulative() {
        let mut b = TimeBins::new(SimDuration::from_secs(1), 3);
        b.record_weighted(SimTime::from_secs(0), 1, 1);
        b.record_weighted(SimTime::from_secs(1), 0, 1);
        b.record_weighted(SimTime::from_secs(2), 1, 2);
        let acc = b.accumulated_rates();
        assert_eq!(acc[0], Some(1.0));
        assert_eq!(acc[1], Some(0.5));
        assert_eq!(acc[2], Some(0.5));
    }

    #[test]
    fn merge_accumulates_runs() {
        let mut a = bins_40x5();
        a.record(SimTime::from_secs(1), true);
        let mut b = bins_40x5();
        b.record(SimTime::from_secs(1), false);
        a.merge(&b);
        assert_eq!(a.rate(0), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatched_layout() {
        let mut a = bins_40x5();
        let b = TimeBins::new(SimDuration::from_secs(5), 20);
        a.merge(&b);
    }

    #[test]
    fn drop_rate_matches_paper_definition() {
        // Baseline 100 % everywhere, attacked 60 % everywhere ⇒ γ = 0.4.
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        for s in 0..200 {
            a.record(SimTime::from_secs(s), true);
            b.record(SimTime::from_secs(s), s % 5 < 3);
        }
        let cmp = AbComparison::new(a, b);
        let g = cmp.drop_rate().unwrap();
        assert!((g - 0.4).abs() < 1e-9, "γ = {g}");
    }

    #[test]
    fn drop_rate_floors_negative_bins() {
        // Attacked better than baseline ⇒ γ = 0, not negative.
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        a.record(SimTime::from_secs(1), true);
        a.record(SimTime::from_secs(1), false); // baseline 50 %
        b.record(SimTime::from_secs(1), true); // attacked 100 %
        let cmp = AbComparison::new(a, b);
        assert_eq!(cmp.drop_rate(), Some(0.0));
    }

    #[test]
    fn drop_rate_is_relative() {
        // Baseline 50 %, attacked 10 % ⇒ relative drop 80 % (the paper's
        // γ semantics: near-total interception even off a lossy baseline).
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        for i in 0..10 {
            a.record(SimTime::from_secs(1), i % 2 == 0);
            b.record(SimTime::from_secs(1), i < 1);
        }
        let cmp = AbComparison::new(a, b);
        assert!((cmp.drop_rate().unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn drop_rate_skips_zero_baseline_bins() {
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        a.record(SimTime::from_secs(1), false); // baseline 0 in bin 0
        b.record(SimTime::from_secs(1), true);
        let cmp = AbComparison::new(a, b);
        assert_eq!(cmp.drop_rate(), None);
    }

    #[test]
    fn drop_rate_none_when_disjoint_bins() {
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        a.record(SimTime::from_secs(1), true);
        b.record(SimTime::from_secs(100), true);
        let cmp = AbComparison::new(a, b);
        assert_eq!(cmp.drop_rate(), None);
    }

    #[test]
    fn accumulated_drop_rates_shape() {
        let mut a = bins_40x5();
        let mut b = bins_40x5();
        for s in 0..200 {
            a.record(SimTime::from_secs(s), true);
            b.record(SimTime::from_secs(s), false);
        }
        let cmp = AbComparison::new(a, b);
        let acc = cmp.accumulated_drop_rates();
        assert_eq!(acc.len(), 40);
        assert!(acc.iter().all(|r| *r == Some(1.0)));
    }

    #[test]
    fn running_stats_basics() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert!((s.std_dev().unwrap() - 2.138_089_935).abs() < 1e-6);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn running_stats_rejects_nan() {
        let mut s = RunningStats::new();
        s.push(f64::NAN);
    }

    #[test]
    fn running_stats_merge_matches_single_accumulator() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0];
        let ys = [5.0, 7.0, 9.0];
        let mut a: RunningStats = xs.into_iter().collect();
        let b: RunningStats = ys.into_iter().collect();
        a.merge(&b);
        let all: RunningStats = xs.into_iter().chain(ys).collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!((a.std_dev().unwrap() - all.std_dev().unwrap()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn running_stats_merge_with_empty_is_identity() {
        let full: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let mut a = full;
        a.merge(&RunningStats::new());
        assert_eq!(a, full);
        let mut b = RunningStats::new();
        b.merge(&full);
        assert_eq!(b, full);
        let mut c = RunningStats::new();
        c.merge(&RunningStats::new());
        assert_eq!(c.mean(), None);
    }

    proptest! {
        #[test]
        fn prop_rates_in_unit_interval(events in prop::collection::vec((0u64..200, any::<bool>()), 1..500)) {
            let mut b = bins_40x5();
            for (s, ok) in events {
                b.record(SimTime::from_secs(s), ok);
            }
            for r in b.rates().into_iter().flatten() {
                prop_assert!((0.0..=1.0).contains(&r));
            }
            for r in b.accumulated_rates().into_iter().flatten() {
                prop_assert!((0.0..=1.0).contains(&r));
            }
            let overall = b.overall_rate().unwrap();
            prop_assert!((0.0..=1.0).contains(&overall));
        }

        #[test]
        fn prop_drop_rate_in_unit_interval(
            a_events in prop::collection::vec((0u64..200, any::<bool>()), 1..200),
            b_events in prop::collection::vec((0u64..200, any::<bool>()), 1..200))
        {
            let mut a = bins_40x5();
            for (s, ok) in a_events { a.record(SimTime::from_secs(s), ok); }
            let mut b = bins_40x5();
            for (s, ok) in b_events { b.record(SimTime::from_secs(s), ok); }
            if let Some(g) = AbComparison::new(a, b).drop_rate() {
                prop_assert!((0.0..=1.0).contains(&g));
            }
        }

        #[test]
        fn prop_merge_equals_single_accumulator(
            xs in prop::collection::vec(-1e6f64..1e6, 0..100),
            ys in prop::collection::vec(-1e6f64..1e6, 0..100))
        {
            let mut merged: RunningStats = xs.iter().copied().collect();
            merged.merge(&ys.iter().copied().collect());
            let all: RunningStats = xs.iter().chain(&ys).copied().collect();
            prop_assert_eq!(merged.count(), all.count());
            match (merged.mean(), all.mean()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (a, b) => prop_assert_eq!(a, b),
            }
            match (merged.std_dev(), all.std_dev()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (a, b) => prop_assert_eq!(a, b),
            }
        }

        #[test]
        fn prop_running_stats_mean_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: RunningStats = xs.iter().copied().collect();
            let mean = s.mean().unwrap();
            prop_assert!(s.min().unwrap() <= mean + 1e-9);
            prop_assert!(mean <= s.max().unwrap() + 1e-9);
        }
    }
}
