//! Result types and report formatting for the experiment drivers.

use geonet_sim::{AbComparison, DropReason, EventCounters, SimDuration, TimeBins};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's reception bins for a run of `duration`: 5 s wide, the last
/// one covering any remainder.
///
/// # Panics
///
/// Panics if the bin count overflows `usize`.
#[must_use]
pub fn paper_bins(duration: SimDuration) -> TimeBins {
    let count = usize::try_from(duration.as_secs().div_ceil(5)).expect("bin count fits");
    TimeBins::new(SimDuration::from_secs(5), count)
}

/// The A/B outcome of one experiment setting: merged time bins of the
/// attacker-free (A) runs and the attacked (B) runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbResult {
    /// Human-readable setting label (e.g. `"DSRC wN"`, `"ttl=5s"`).
    pub label: String,
    /// Attacker-free bins, merged over all runs.
    pub baseline: TimeBins,
    /// Attacked bins, merged over all runs.
    pub attacked: TimeBins,
}

impl AbResult {
    /// The paper's γ/λ statistic: average per-bin drop of the reception
    /// rate from baseline to attacked.
    #[must_use]
    pub fn gamma(&self) -> Option<f64> {
        self.comparison().drop_rate()
    }

    /// Overall attacker-free reception rate.
    #[must_use]
    pub fn baseline_rate(&self) -> Option<f64> {
        self.baseline.overall_rate()
    }

    /// Overall attacked reception rate.
    #[must_use]
    pub fn attacked_rate(&self) -> Option<f64> {
        self.attacked.overall_rate()
    }

    /// The underlying bin-level comparison.
    #[must_use]
    pub fn comparison(&self) -> AbComparison {
        AbComparison::new(self.baseline.clone(), self.attacked.clone())
    }

    /// The accumulated (cumulative-over-time) drop-rate series plotted in
    /// the paper's Figures 8 and 10.
    #[must_use]
    pub fn accumulated_drop_series(&self) -> Vec<Option<f64>> {
        self.comparison().accumulated_drop_rates()
    }
}

impl fmt::Display for AbResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} af={} atk={} drop={}",
            self.label,
            fmt_rate(self.baseline_rate()),
            fmt_rate(self.attacked_rate()),
            fmt_rate(self.gamma()),
        )
    }
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{:5.1}%", r * 100.0),
        None => "  n/a ".to_string(),
    }
}

/// One row of an experiment report: the paper's published value next to
/// ours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// Experiment id (e.g. `"fig7a"`).
    pub experiment: String,
    /// Setting within the experiment (e.g. `"mL"`).
    pub setting: String,
    /// The paper's reported value (rate in `[0,1]`), when it states one.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: Option<f64>,
}

impl ExperimentRow {
    /// Builds a row.
    #[must_use]
    pub fn new(
        experiment: impl Into<String>,
        setting: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
    ) -> Self {
        ExperimentRow { experiment: experiment.into(), setting: setting.into(), paper, measured }
    }
}

impl fmt::Display for ExperimentRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:<20} paper={} ours={}",
            self.experiment,
            self.setting,
            fmt_rate(self.paper),
            fmt_rate(self.measured),
        )
    }
}

/// Renders rows as an aligned text table with a header.
#[must_use]
pub fn render_table(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&"-".repeat(title.len()));
    out.push('\n');
    for r in rows {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// Renders rows as CSV (`experiment,setting,paper,measured`).
#[must_use]
pub fn to_csv(rows: &[ExperimentRow]) -> String {
    let mut out = String::from("experiment,setting,paper,measured\n");
    for r in rows {
        let p = r.paper.map(|v| format!("{v:.4}")).unwrap_or_default();
        let m = r.measured.map(|v| format!("{v:.4}")).unwrap_or_default();
        out.push_str(&format!("{},{},{},{}\n", r.experiment, r.setting, p, m));
    }
    out
}

/// Renders a per-[`DropReason`] breakout of a run's router discards as
/// an aligned text table: one row per reason that occurred (count and
/// share of all drops), plus a total row. Reuses the trace layer's
/// [`EventCounters`] — any traced run (forensic pass, topology pass,
/// unit test sink) can feed it.
#[must_use]
pub fn drop_breakdown(title: &str, counters: &EventCounters) -> String {
    use std::fmt::Write as _;
    let total = counters.total_dropped();
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "-".repeat(title.len()));
    if total == 0 {
        let _ = writeln!(out, "no router drops");
        return out;
    }
    for reason in DropReason::ALL {
        let n = counters.dropped_for(reason);
        if n == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<24} {:>9}  {:>5.1}%",
            reason.name(),
            n,
            n as f64 / total as f64 * 100.0
        );
    }
    let _ = writeln!(out, "{:<24} {:>9}  100.0%", "total", total);
    out
}

/// Renders a per-bin time series (e.g. accumulated drop rates) as CSV with
/// one column per labelled series.
#[must_use]
pub fn series_to_csv(bin_seconds: u64, series: &[(String, Vec<Option<f64>>)]) -> String {
    let mut out = String::from("t_s");
    for (label, _) in series {
        out.push(',');
        out.push_str(label);
    }
    out.push('\n');
    let len = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    for i in 0..len {
        out.push_str(&format!("{}", (i as u64 + 1) * bin_seconds));
        for (_, v) in series {
            out.push(',');
            if let Some(Some(x)) = v.get(i) {
                out.push_str(&format!("{x:.4}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::SimTime;

    fn bins(rate_num: u64, rate_den: u64) -> TimeBins {
        let mut b = TimeBins::new(SimDuration::from_secs(5), 4);
        for i in 0..4 {
            b.record_weighted(SimTime::from_secs(i * 5), rate_num, rate_den);
        }
        b
    }

    #[test]
    fn gamma_is_mean_bin_drop() {
        let r = AbResult { label: "t".into(), baseline: bins(10, 10), attacked: bins(4, 10) };
        assert!((r.gamma().unwrap() - 0.6).abs() < 1e-9);
        assert_eq!(r.baseline_rate(), Some(1.0));
        assert_eq!(r.attacked_rate(), Some(0.4));
    }

    #[test]
    fn accumulated_series_has_bin_count_entries() {
        let r = AbResult { label: "t".into(), baseline: bins(10, 10), attacked: bins(5, 10) };
        let s = r.accumulated_drop_series();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|x| (x.unwrap() - 0.5).abs() < 1e-9));
    }

    #[test]
    fn display_formats_percentages() {
        let r = AbResult { label: "DSRC wN".into(), baseline: bins(10, 10), attacked: bins(4, 10) };
        let s = r.to_string();
        assert!(s.contains("af=100.0%"), "{s}");
        assert!(s.contains("drop= 60.0%"), "{s}");
    }

    #[test]
    fn table_and_csv_render() {
        let rows = vec![
            ExperimentRow::new("fig7a", "mL", Some(0.999), Some(0.97)),
            ExperimentRow::new("fig7a", "wN", Some(0.468), None),
        ];
        let t = render_table("Figure 7a", &rows);
        assert!(t.contains("Figure 7a") && t.contains("fig7a"));
        let csv = to_csv(&rows);
        assert!(csv.starts_with("experiment,setting,paper,measured\n"));
        assert!(csv.contains("fig7a,mL,0.9990,0.9700"));
        assert!(csv.contains("fig7a,wN,0.4680,\n"));
    }

    #[test]
    fn drop_breakdown_lists_only_reasons_that_occurred() {
        let mut c = geonet_sim::EventCounters::default();
        c.dropped[geonet_sim::DropReason::NoNextHop.index()] = 30;
        c.dropped[geonet_sim::DropReason::RhlExhausted.index()] = 10;
        let table = drop_breakdown("Drops — attacked interarea", &c);
        assert!(table.contains("Drops — attacked interarea"), "{table}");
        assert!(table.contains("no_next_hop") && table.contains("75.0%"), "{table}");
        assert!(table.contains("rhl_exhausted") && table.contains("25.0%"), "{table}");
        assert!(table.contains("total") && table.contains("40"), "{table}");
        // Reasons that never fired stay out of the table.
        let lines = table.lines().count();
        assert_eq!(lines, 5, "{table}");
    }

    #[test]
    fn drop_breakdown_handles_zero_drops() {
        let c = geonet_sim::EventCounters::default();
        let table = drop_breakdown("Drops", &c);
        assert!(table.contains("no router drops"), "{table}");
    }

    #[test]
    fn series_csv_shape() {
        let s = vec![
            ("a".to_string(), vec![Some(0.5), None, Some(1.0)]),
            ("b".to_string(), vec![Some(0.25)]),
        ];
        let csv = series_to_csv(5, &s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,a,b");
        assert_eq!(lines[1], "5,0.5000,0.2500");
        assert_eq!(lines[2], "10,,");
        assert_eq!(lines[3], "15,1.0000,");
    }
}
