//! Quantitative telemetry: counters, gauges, log-bucketed histograms and
//! scoped wall-clock timers, with Prometheus and JSON exporters.
//!
//! This module is the measurement substrate for performance work. It
//! mirrors the [`crate::trace::Tracer`] design: instrumented components
//! hold a cheap [`Telemetry`] handle that is a no-op unless a shared
//! [`MetricsRegistry`] has been attached, so the instrumented hot paths
//! (router frame handling, radio delivery, traffic stepping, kernel
//! dispatch) pay a single branch when telemetry is off.
//!
//! Three metric kinds are supported:
//!
//! * **counters** — monotonic `u64` totals (`Telemetry::add`),
//! * **gauges** — last-value samples with running mean/min/max over the
//!   sampled time series (`Telemetry::gauge`), used for internal state
//!   depths such as event-queue length or LocT size,
//! * **histograms** — log-bucketed `u64` distributions with p50/p95/p99
//!   and exact max (`Telemetry::observe`), used for wall-clock timings in
//!   nanoseconds via [`Telemetry::time`].
//!
//! # Histogram bucket layout
//!
//! Values `0..16` get exact unit buckets; beyond that each power of two is
//! split into 4 sub-buckets (an HDR-style log-linear layout), so the
//! relative quantile error is bounded by 25 % while the whole `u64` range
//! fits in 256 buckets. Quantiles report the upper bound of the bucket
//! containing the target rank, clamped to the exact observed maximum.
//!
//! # Example
//!
//! ```
//! use geonet_sim::telemetry::{shared_registry, Telemetry};
//!
//! let registry = shared_registry();
//! let telemetry = Telemetry::attached(registry.clone());
//! telemetry.add("frames_total", 3);
//! telemetry.gauge("queue_len", 7.0);
//! telemetry.observe("service_ns", 1_500);
//! let snapshot = registry.borrow().snapshot();
//! assert_eq!(snapshot.counter("frames_total"), Some(3));
//! assert!(snapshot.to_prometheus().contains("frames_total 3"));
//! ```

use crate::json;
use crate::metrics::RunningStats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// Number of exact unit buckets at the low end of a [`Histogram`].
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power of two past the linear region (4 ⇒ ≤ 25 % error).
const SUB_BUCKETS: usize = 4;
/// Total bucket count covering the full `u64` range.
const BUCKET_COUNT: usize = LINEAR_CUTOFF as usize + (64 - 4) * SUB_BUCKETS;

/// Index of the bucket that holds `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // ≥ 4 here
        let sub = ((v >> (msb - 2)) & 3) as usize;
        LINEAR_CUTOFF as usize + (msb - 4) * SUB_BUCKETS + sub
    }
}

/// Largest value stored in bucket `idx` (inclusive).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let k = idx - LINEAR_CUTOFF as usize;
        let msb = 4 + k / SUB_BUCKETS;
        let sub = (k % SUB_BUCKETS) as u64;
        (1u64 << msb).wrapping_add((sub + 1) << (msb - 2)).wrapping_sub(1)
    }
}

/// Log-bucketed `u64` histogram with p50/p95/p99 and exact max.
///
/// See the [module docs](self) for the bucket layout. Two histograms can
/// be combined losslessly with [`Histogram::merge`] because they share a
/// fixed global layout.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram { buckets: vec![0; BUCKET_COUNT], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact), or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns `true` if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the target rank, clamped to the exact max. `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(bucket_upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one (lossless: both share the
    /// same fixed bucket layout).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// order — the raw data behind the Prometheus `_bucket` lines.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
    }

    /// Rebuilds a histogram from sparse `(bucket_upper_bound, count)`
    /// pairs plus the exact `sum` and `max` (the JSON snapshot encoding).
    ///
    /// # Errors
    ///
    /// Fails if an upper bound does not name an exact bucket boundary.
    pub fn from_sparse(pairs: &[(u64, u64)], sum: u64, max: u64) -> Result<Self, String> {
        let mut h = Histogram::new();
        for &(ub, n) in pairs {
            let idx = bucket_index(ub);
            if bucket_upper_bound(idx) != ub {
                return Err(format!("{ub} is not a histogram bucket boundary"));
            }
            h.buckets[idx] += n;
            h.count += n;
        }
        h.sum = sum;
        h.max = max;
        Ok(h)
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

/// A sampled gauge: the most recent value plus running statistics over
/// every sample, so a periodically sampled depth (queue length, table
/// size) keeps its time-series mean/min/max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    last: f64,
    stats: RunningStats,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// Creates an empty gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge { last: 0.0, stats: RunningStats::new() }
    }

    /// Records a sample and makes it the current value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    pub fn set(&mut self, v: f64) {
        assert!(v.is_finite(), "gauge sample must be finite: {v}");
        self.last = v;
        self.stats.push(v);
    }

    /// Most recent sample (0 if never set).
    #[must_use]
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Running statistics over all samples.
    #[must_use]
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }
}

/// Central store for all metrics, keyed by `&'static str` names.
///
/// Names must be valid Prometheus metric names (`[a-zA-Z_][a-zA-Z0-9_]*`);
/// this is asserted when a metric is first created.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn assert_metric_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "invalid metric name: {name:?}"
    );
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name` (saturating), creating it at zero
    /// first.
    pub fn add(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert_with(|| {
            assert_metric_name(name);
            0
        });
        *c = c.saturating_add(n);
    }

    /// Records a gauge sample.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges
            .entry(name)
            .or_insert_with(|| {
                assert_metric_name(name);
                Gauge::new()
            })
            .set(v);
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| {
                assert_metric_name(name);
                Histogram::new()
            })
            .record(v);
    }

    /// Current value of a counter, if it exists.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge by name, if it exists.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// A histogram by name, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// An immutable point-in-time copy of every metric, with owned names —
    /// the unit that the exporters serialize.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, g)| (k.to_string(), GaugeSummary::of(g)))
                .collect(),
            histograms: self.histograms.iter().map(|(&k, h)| (k.to_string(), h.clone())).collect(),
        }
    }
}

/// Shared, interiorly mutable registry handle.
pub type SharedRegistry = Rc<RefCell<MetricsRegistry>>;

/// Creates a fresh [`SharedRegistry`].
#[must_use]
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(MetricsRegistry::new()))
}

/// Cheap cloneable telemetry handle, mirroring [`crate::trace::Tracer`]:
/// every operation is a single branch when no registry is attached, and
/// [`Telemetry::time`] does not even read the clock then.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<SharedRegistry>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// A handle that records nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { registry: None }
    }

    /// A handle recording into `registry`.
    #[must_use]
    pub fn attached(registry: SharedRegistry) -> Self {
        Telemetry { registry: Some(registry) }
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&SharedRegistry> {
        self.registry.as_ref()
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.registry {
            r.borrow_mut().add(name, n);
        }
    }

    /// Records a gauge sample.
    #[inline]
    pub fn gauge(&self, name: &'static str, v: f64) {
        if let Some(r) = &self.registry {
            r.borrow_mut().set_gauge(name, v);
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(r) = &self.registry {
            r.borrow_mut().observe(name, v);
        }
    }

    /// Starts a scoped wall-clock timer; when the returned guard drops,
    /// the elapsed nanoseconds are recorded into histogram `name`. The
    /// clock is only read when telemetry is enabled.
    #[inline]
    pub fn time(&self, name: &'static str) -> ScopedTimer {
        ScopedTimer { inner: self.registry.as_ref().map(|r| (name, Rc::clone(r), Instant::now())) }
    }
}

/// Guard returned by [`Telemetry::time`]; records elapsed nanoseconds
/// into the named histogram on drop.
#[must_use = "dropping the timer immediately records ~0 ns"]
#[derive(Debug)]
pub struct ScopedTimer {
    inner: Option<(&'static str, SharedRegistry, Instant)>,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((name, registry, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry.borrow_mut().observe(name, ns);
        }
    }
}

/// Point-in-time summary of one [`Gauge`] (what the exporters emit; the
/// Welford `m2` term is intentionally dropped, so a parsed snapshot
/// preserves last/count/mean/min/max but not the standard deviation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSummary {
    /// Most recent sample.
    pub last: f64,
    /// Number of samples.
    pub count: u64,
    /// Mean over all samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl GaugeSummary {
    fn of(g: &Gauge) -> Self {
        GaugeSummary {
            last: g.last(),
            count: g.stats().count(),
            mean: g.stats().mean().unwrap_or(0.0),
            min: g.stats().min().unwrap_or(0.0),
            max: g.stats().max().unwrap_or(0.0),
        }
    }
}

/// Owned, serializable copy of a registry: what [`MetricsRegistry::snapshot`]
/// returns and what the JSON exporter round-trips.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeSummary>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Current value of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge summary by name, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&GaugeSummary> {
        self.gauges.get(name)
    }

    /// A histogram by name, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names of all histograms, in sorted order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Counters and gauges become one family each (gauges carry
    /// `{stat="last|mean|min|max"}` labels); histograms emit the standard
    /// `_bucket{le=...}` / `_sum` / `_count` series plus explicit
    /// `_p50` / `_p95` / `_p99` / `_max` gauge families so quantiles can
    /// be read without a PromQL engine.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{stat=\"last\"}} {}", json::float(g.last));
            let _ = writeln!(out, "{name}{{stat=\"mean\"}} {}", json::float(g.mean));
            let _ = writeln!(out, "{name}{{stat=\"min\"}} {}", json::float(g.min));
            let _ = writeln!(out, "{name}{{stat=\"max\"}} {}", json::float(g.max));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (ub, n) in h.nonzero_buckets() {
                cum += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
            for (suffix, v) in [
                ("p50", h.p50().unwrap_or(0)),
                ("p95", h.p95().unwrap_or(0)),
                ("p99", h.p99().unwrap_or(0)),
                ("max", h.max()),
            ] {
                let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                let _ = writeln!(out, "{name}_{suffix} {v}");
            }
        }
        out
    }

    /// Renders the snapshot as a single JSON object (counters, gauges and
    /// histograms keyed by name; histogram buckets stored sparsely as
    /// `[upper_bound, count]` pairs, plus derived `p50`/`p95`/`p99` for
    /// human consumption, which [`MetricsSnapshot::from_json`] recomputes
    /// rather than trusts).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (name, g) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\":{{\"last\":{},\"count\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
                json::float(g.last),
                g.count,
                json::float(g.mean),
                json::float(g.min),
                json::float(g.max)
            );
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count(),
                h.sum(),
                h.max(),
                h.p50().unwrap_or(0),
                h.p95().unwrap_or(0),
                h.p99().unwrap_or(0)
            );
            let mut first_bucket = true;
            for (ub, n) in h.nonzero_buckets() {
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                let _ = write!(out, "[{ub},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot previously produced by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Fails with a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let root = root.as_object("top level")?;
        let mut snap = MetricsSnapshot::default();
        for (key, value) in root {
            match key.as_str() {
                "counters" => {
                    for (name, v) in value.as_object("counters")? {
                        snap.counters.insert(name.clone(), v.as_u64(name)?);
                    }
                }
                "gauges" => {
                    for (name, v) in value.as_object("gauges")? {
                        let fields = v.as_object(name)?;
                        let mut g =
                            GaugeSummary { last: 0.0, count: 0, mean: 0.0, min: 0.0, max: 0.0 };
                        for (fk, fv) in fields {
                            match fk.as_str() {
                                "last" => g.last = fv.as_f64(fk)?,
                                "count" => g.count = fv.as_u64(fk)?,
                                "mean" => g.mean = fv.as_f64(fk)?,
                                "min" => g.min = fv.as_f64(fk)?,
                                "max" => g.max = fv.as_f64(fk)?,
                                other => return Err(format!("unknown gauge field {other:?}")),
                            }
                        }
                        snap.gauges.insert(name.clone(), g);
                    }
                }
                "histograms" => {
                    for (name, v) in value.as_object("histograms")? {
                        let fields = v.as_object(name)?;
                        let mut sum = 0u64;
                        let mut max = 0u64;
                        let mut pairs: Vec<(u64, u64)> = Vec::new();
                        for (fk, fv) in fields {
                            match fk.as_str() {
                                "sum" => sum = fv.as_u64(fk)?,
                                "max" => max = fv.as_u64(fk)?,
                                // count and quantiles are derived from the
                                // buckets on reconstruction.
                                "count" | "p50" | "p95" | "p99" => {}
                                "buckets" => {
                                    for entry in fv.as_array(fk)? {
                                        let pair = entry.as_array("bucket entry")?;
                                        if pair.len() != 2 {
                                            return Err("bucket entry is not a pair".into());
                                        }
                                        pairs.push((
                                            pair[0].as_u64("bucket bound")?,
                                            pair[1].as_u64("bucket count")?,
                                        ));
                                    }
                                }
                                other => return Err(format!("unknown histogram field {other:?}")),
                            }
                        }
                        snap.histograms
                            .insert(name.clone(), Histogram::from_sparse(&pairs, sum, max)?);
                    }
                }
                other => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_layout_is_consistent() {
        for v in (0..4096).chain([u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} < value {v}");
            if idx > 0 {
                assert!(bucket_upper_bound(idx - 1) < v, "value {v} below bucket {idx}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.p50(), Some(1));
        assert_eq!(h.quantile(1.0), Some(15));
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v * 17);
        }
        let (p50, p95, p99) = (h.p50().unwrap(), h.p95().unwrap(), h.p99().unwrap());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        // Log-linear layout: ≤ 25 % relative error on the median.
        let exact = 5_000.0 * 17.0;
        assert!((p50 as f64 - exact).abs() / exact < 0.25, "p50 = {p50}");
    }

    #[test]
    fn histogram_merge_equals_single_accumulator() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1_000u64 {
            let v = v * v;
            if v % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn gauge_tracks_last_and_stats() {
        let mut g = Gauge::new();
        g.set(3.0);
        g.set(1.0);
        g.set(2.0);
        assert_eq!(g.last(), 2.0);
        assert_eq!(g.stats().mean(), Some(2.0));
        assert_eq!(g.stats().min(), Some(1.0));
        assert_eq!(g.stats().max(), Some(3.0));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add("c", 1);
        t.gauge("g", 1.0);
        t.observe("h", 1);
        drop(t.time("t"));
        assert!(t.registry().is_none());
    }

    #[test]
    fn attached_telemetry_records_everything() {
        let reg = shared_registry();
        let t = Telemetry::attached(reg.clone());
        t.add("c", 2);
        t.add("c", 3);
        t.gauge("g", 4.5);
        t.observe("h", 7);
        {
            let _timer = t.time("span_ns");
        }
        let r = reg.borrow();
        assert_eq!(r.counter("c"), Some(5));
        assert_eq!(r.gauge("g").unwrap().last(), 4.5);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        assert_eq!(r.histogram("span_ns").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn rejects_bad_metric_names() {
        let mut r = MetricsRegistry::new();
        r.add("bad name", 1);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = shared_registry();
        let t = Telemetry::attached(reg.clone());
        t.add("frames_total", 42);
        t.add("bytes_total", 9_000);
        t.gauge("queue_len", 3.0);
        t.gauge("queue_len", 8.0);
        t.gauge("loct_size", 12.5);
        for v in [5u64, 120, 4_000, 4_000, 80_000] {
            t.observe("handle_frame_ns", v);
        }
        let snap = reg.borrow().snapshot();
        snap
    }

    #[test]
    fn json_snapshot_round_trips() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        let parsed = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(parsed, snap);
        // And the round-tripped copy serializes identically.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\":[]}").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\":{}} trailing").is_err());
        assert!(MetricsSnapshot::from_json("{\"histograms\":{\"h\":{\"buckets\":[[3]]}}}").is_err());
    }

    /// A parsed Prometheus sample: (name, labels, value).
    type PromSample = (String, Vec<(String, String)>, f64);

    /// Splits one Prometheus sample line into (name, labels, value).
    fn parse_prom_line(line: &str) -> Result<PromSample, String> {
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .ok_or_else(|| format!("no name/value split in {line:?}"))?;
        let name = &line[..name_end];
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(format!("bad metric name in {line:?}"));
        }
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(inner) = rest.strip_prefix('{') {
            let close = inner.find('}').ok_or_else(|| format!("unclosed labels in {line:?}"))?;
            for pair in inner[..close].split(',') {
                let (k, v) = pair.split_once('=').ok_or_else(|| format!("bad label {pair:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value {v:?}"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            rest = &inner[close + 1..];
        }
        let value = rest.trim();
        if value == "+Inf" {
            return Ok((name.to_string(), labels, f64::INFINITY));
        }
        let value: f64 = value.parse().map_err(|_| format!("bad value in {line:?}"))?;
        Ok((name.to_string(), labels, value))
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let mut samples = 0;
        let mut families = Vec::new();
        for line in text.lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                let mut parts = typed.split(' ');
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "kind {kind}");
                families.push(family);
                continue;
            }
            let (name, labels, value) = parse_prom_line(line).expect("sample line parses");
            // Every sample belongs to a declared family (histograms add
            // _bucket/_sum/_count suffixes onto theirs).
            assert!(
                families.iter().any(|f| {
                    name == *f
                        || name == format!("{f}_bucket")
                        || name == format!("{f}_sum")
                        || name == format!("{f}_count")
                }),
                "sample {name} has no TYPE declaration"
            );
            for (k, v) in &labels {
                assert!(matches!(k.as_str(), "stat" | "le"), "unexpected label {k}={v}");
            }
            assert!(!value.is_nan());
            samples += 1;
        }
        assert!(samples > 10, "expected a non-trivial exposition, got {samples} samples");
        // Spot-check the headline series.
        assert!(text.contains("frames_total 42"));
        assert!(text.contains("queue_len{stat=\"last\"} 8"));
        assert!(text.contains("handle_frame_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("handle_frame_ns_count 5"));
        assert!(text.contains("handle_frame_ns_p95"));
    }

    #[test]
    fn prometheus_bucket_counts_are_cumulative() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let mut last = 0.0f64;
        for line in text.lines().filter(|l| l.starts_with("handle_frame_ns_bucket")) {
            let (_, _, v) = parse_prom_line(line).unwrap();
            assert!(v >= last, "bucket counts must be cumulative");
            last = v;
        }
        assert_eq!(last, 5.0);
    }

    #[test]
    fn scoped_timer_measures_elapsed_time() {
        let reg = shared_registry();
        let t = Telemetry::attached(reg.clone());
        {
            let _timer = t.time("busy_ns");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = reg.borrow();
        let h = r.histogram("busy_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept ≥ 2 ms but recorded {} ns", h.max());
    }

    proptest! {
        #[test]
        fn prop_bucket_bounds_cover_u64(v in any::<u64>()) {
            let idx = bucket_index(v);
            prop_assert!(idx < BUCKET_COUNT);
            prop_assert!(bucket_upper_bound(idx) >= v);
            if idx > 0 {
                prop_assert!(bucket_upper_bound(idx - 1) < v);
            }
        }

        #[test]
        fn prop_quantile_error_bounded(xs in prop::collection::vec(0u64..1_000_000, 1..300)) {
            let mut h = Histogram::new();
            for &x in &xs { h.record(x); }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            for (q, rank) in [(0.5, sorted.len().div_ceil(2)), (1.0, sorted.len())] {
                let exact = sorted[rank - 1];
                let est = h.quantile(q).unwrap();
                // The estimate is the bucket upper bound: never below the
                // exact rank value, and within 25 % (or ±1 for tiny values).
                prop_assert!(est >= exact);
                prop_assert!(est as f64 <= exact as f64 * 1.25 + 1.0,
                    "q={q} exact={exact} est={est}");
            }
        }

        #[test]
        fn prop_json_round_trip(counts in prop::collection::vec(0u64..u64::MAX / 2, 1..20)) {
            let reg = shared_registry();
            let t = Telemetry::attached(reg.clone());
            for (i, &c) in counts.iter().enumerate() {
                t.add("events_total", c / 2 + 1);
                t.observe("lat_ns", c);
                t.gauge("depth", (i as f64) * 0.5);
            }
            let snap = reg.borrow().snapshot();
            let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
            prop_assert_eq!(parsed, snap);
        }

        /// Every metric kind, across each value's full domain: counters
        /// and histogram samples over all of `u64` (beyond the 2^53
        /// f64-exact range — the parser must keep integers as text, never
        /// detour through a double) and gauges over the wide finite `f64`
        /// range. The snapshot must survive export → parse bit-exactly.
        #[test]
        fn prop_json_round_trip_full_domain(
            counts in prop::collection::vec(any::<u64>(), 1..20),
            gauges in prop::collection::vec(-1.0e300..1.0e300f64, 1..20),
        ) {
            let reg = shared_registry();
            let t = Telemetry::attached(reg.clone());
            for (i, &c) in counts.iter().enumerate() {
                let counter = ["events_total", "frames_total", "drops_total"][i % 3];
                t.add(counter, c);
                let histogram = ["lat_ns", "queue_wait_ns"][i % 2];
                t.observe(histogram, c);
            }
            for (i, &g) in gauges.iter().enumerate() {
                let gauge = ["depth", "load", "rate"][i % 3];
                t.gauge(gauge, g);
            }
            let snap = reg.borrow().snapshot();
            let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
            prop_assert_eq!(parsed, snap);
        }
    }
}
