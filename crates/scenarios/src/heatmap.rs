//! Road-binned heatmaps and attack blast-radius reports.
//!
//! The topology observer ([`geonet_sim::topo`]) answers *"what does the
//! network look like?"*; this module answers *"where on the road does
//! the attack bite?"*. A [`RoadHeatmap`] buckets packet outcomes into a
//! longitudinal × time grid (default 100 m × 5 s) fed from the existing
//! trace decision points: generation/delivery per origin bin, drops by
//! [`DropReason`] at the dropping node, CBF suppressions at the
//! suppressed node (with the attacker's share broken out) and
//! interception at the victim's last forwarding hop.
//!
//! Two same-seed heatmaps — attacker-free (A) and attacked (B) — diff
//! into a per-bin delta table ([`HeatmapDiff`]); together with the two
//! runs' topology artifacts that table rolls up into a
//! [`BlastRadiusReport`]: which bins lost more than half their
//! deliveries, how often the relay graph was partitioned, which cut
//! vertices the attacker displaced and whether the attacker itself sat
//! as the greedy local maximum.
//!
//! Artifacts export as CSV (dense grid, for plotting) and JSON (sparse,
//! round-trips byte-identically through [`RoadHeatmap::from_json`]).

use geonet_sim::json::{self, float};
use geonet_sim::{DropReason, SimDuration, SimTime, TopoArtifact, TraceEvent};
use std::fmt;

// ---------------------------------------------------------------------
// Cells and the grid
// ---------------------------------------------------------------------

/// One grid cell's outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeatCell {
    /// Packets originated from this bin.
    pub generated: u64,
    /// Of those, packets that reached their destination (binned at the
    /// *origin*, so `delivered / generated` is the per-bin delivery
    /// rate).
    pub delivered: u64,
    /// Router drops at nodes inside this bin, indexed by
    /// [`DropReason::index`].
    pub dropped: [u64; DropReason::ALL.len()],
    /// CBF contention timers cancelled at nodes inside this bin.
    pub cbf_cancelled: u64,
    /// The subset of `cbf_cancelled` caused by a frame transmitted
    /// under the attacker's address.
    pub cbf_by_attacker: u64,
    /// Packets whose last forwarding hop sat in this bin and that were
    /// never delivered while that hop was inside attacker coverage —
    /// the interception attack's victims.
    pub intercepted: u64,
}

impl HeatCell {
    /// Total drops across all reasons.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Whether every counter is zero (such cells are skipped by the
    /// JSON encoding).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == HeatCell::default()
    }

    fn absorb(&mut self, other: &HeatCell) {
        self.generated += other.generated;
        self.delivered += other.delivered;
        for (d, o) in self.dropped.iter_mut().zip(other.dropped) {
            *d += o;
        }
        self.cbf_cancelled += other.cbf_cancelled;
        self.cbf_by_attacker += other.cbf_by_attacker;
        self.intercepted += other.intercepted;
    }
}

/// A longitudinal × time grid of packet outcomes over one run.
///
/// Coordinates outside the road segment or past the horizon clamp into
/// the edge bins (vehicles spawn 20 m before the segment and static
/// destinations sit just past it).
#[derive(Debug, Clone, PartialEq)]
pub struct RoadHeatmap {
    meta: json::Meta,
    x_bin: f64,
    t_bin: SimDuration,
    road_length: f64,
    duration: SimDuration,
    nx: usize,
    nt: usize,
    cells: Vec<HeatCell>,
}

fn bin_count(span: f64, bin: f64) -> usize {
    assert!(span > 0.0 && bin > 0.0, "spans and bins must be positive");
    let n = (span / bin).ceil();
    assert!(n.is_finite() && n >= 1.0, "degenerate bin count for span {span} bin {bin}");
    n as usize
}

impl RoadHeatmap {
    /// The default longitudinal bin width, in metres.
    pub const DEFAULT_X_BIN: f64 = 100.0;
    /// The default time bin — the paper's 5 s reception-rate bin.
    pub const DEFAULT_T_BIN: SimDuration = SimDuration::from_secs(5);

    /// An empty heatmap over `road_length` metres × `duration`, at the
    /// default 100 m × 5 s resolution.
    ///
    /// # Panics
    ///
    /// Panics if the road length or duration is not positive.
    #[must_use]
    pub fn new(road_length: f64, duration: SimDuration) -> Self {
        Self::with_bins(road_length, duration, Self::DEFAULT_X_BIN, Self::DEFAULT_T_BIN)
    }

    /// An empty heatmap at an explicit resolution.
    ///
    /// # Panics
    ///
    /// Panics if any extent or bin width is not positive.
    #[must_use]
    pub fn with_bins(
        road_length: f64,
        duration: SimDuration,
        x_bin: f64,
        t_bin: SimDuration,
    ) -> Self {
        assert!(road_length.is_finite() && x_bin.is_finite(), "non-finite heatmap extent");
        assert!(t_bin > SimDuration::ZERO, "time bin must be positive");
        assert!(duration > SimDuration::ZERO, "duration must be positive");
        let nx = bin_count(road_length, x_bin);
        let nt = bin_count(duration.as_secs_f64(), t_bin.as_secs_f64());
        RoadHeatmap {
            meta: json::Meta::new(),
            x_bin,
            t_bin,
            road_length,
            duration,
            nx,
            nt,
            cells: vec![HeatCell::default(); nx * nt],
        }
    }

    /// Attaches one metadata key (seed, scenario, attack setup …).
    ///
    /// # Panics
    ///
    /// Panics if the key or value contains a quote or backslash (the
    /// encoder never escapes).
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        json::set_meta(&mut self.meta, key, value.into());
    }

    /// The run metadata.
    #[must_use]
    pub fn meta(&self) -> &json::Meta {
        &self.meta
    }

    /// Longitudinal bin count.
    #[must_use]
    pub fn x_bins(&self) -> usize {
        self.nx
    }

    /// Time bin count.
    #[must_use]
    pub fn t_bins(&self) -> usize {
        self.nt
    }

    /// The `[lo, hi)` metre range of longitudinal bin `xi`.
    #[must_use]
    pub fn x_range(&self, xi: usize) -> (f64, f64) {
        let lo = self.x_bin * xi as f64;
        (lo, (lo + self.x_bin).min(self.road_length.max(self.x_bin)))
    }

    /// The `[lo, hi)` second range of time bin `ti`.
    #[must_use]
    pub fn t_range(&self, ti: usize) -> (f64, f64) {
        let lo = self.t_bin.as_secs_f64() * ti as f64;
        (lo, lo + self.t_bin.as_secs_f64())
    }

    /// One cell (row-major over `(ti, xi)`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn cell(&self, xi: usize, ti: usize) -> &HeatCell {
        assert!(xi < self.nx && ti < self.nt, "cell ({xi},{ti}) out of range");
        &self.cells[ti * self.nx + xi]
    }

    fn index(&self, x: f64, t: SimTime) -> usize {
        assert!(x.is_finite(), "non-finite x {x}");
        let xi = ((x / self.x_bin).floor().max(0.0) as usize).min(self.nx - 1);
        let ti = (t.as_micros() / self.t_bin.as_micros().max(1)) as usize;
        ti.min(self.nt - 1) * self.nx + xi
    }

    /// Records one originated packet (and its eventual fate) at its
    /// origin coordinates.
    pub fn record_packet(&mut self, x: f64, t: SimTime, delivered: bool) {
        let i = self.index(x, t);
        self.cells[i].generated += 1;
        if delivered {
            self.cells[i].delivered += 1;
        }
    }

    /// Records one intercepted packet at its last forwarding hop.
    pub fn record_intercepted(&mut self, x: f64, t: SimTime) {
        let i = self.index(x, t);
        self.cells[i].intercepted += 1;
    }

    /// Feeds one trace event emitted by a node at road position `x`.
    /// Only drop and CBF-cancellation events land in the grid; every
    /// other event is ignored. `attacker` is the link-layer address the
    /// attacker transmits under, when known — it attributes
    /// suppressions.
    pub fn record_event(&mut self, x: f64, t: SimTime, event: &TraceEvent, attacker: Option<u64>) {
        match event {
            TraceEvent::Dropped { reason, .. } => {
                let i = self.index(x, t);
                self.cells[i].dropped[reason.index()] += 1;
            }
            TraceEvent::CbfCancelled { by, .. } => {
                let i = self.index(x, t);
                self.cells[i].cbf_cancelled += 1;
                if attacker == Some(*by) {
                    self.cells[i].cbf_by_attacker += 1;
                }
            }
            _ => {}
        }
    }

    /// Sums a longitudinal bin over all time bins.
    #[must_use]
    pub fn column(&self, xi: usize) -> HeatCell {
        let mut agg = HeatCell::default();
        for ti in 0..self.nt {
            agg.absorb(self.cell(xi, ti));
        }
        agg
    }

    /// Sums the whole grid.
    #[must_use]
    pub fn totals(&self) -> HeatCell {
        let mut agg = HeatCell::default();
        for c in &self.cells {
            agg.absorb(c);
        }
        agg
    }

    // -----------------------------------------------------------------
    // CSV
    // -----------------------------------------------------------------

    /// Renders the dense grid as CSV, one row per cell — ready for any
    /// heatmap plotter.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("x_lo_m,x_hi_m,t_lo_s,t_hi_s,generated,delivered");
        for r in DropReason::ALL {
            let _ = write!(out, ",drop_{}", r.name());
        }
        out.push_str(",cbf_cancelled,cbf_by_attacker,intercepted\n");
        for ti in 0..self.nt {
            for xi in 0..self.nx {
                let (xl, xh) = self.x_range(xi);
                let (tl, th) = self.t_range(ti);
                let c = self.cell(xi, ti);
                let _ = write!(
                    out,
                    "{},{},{},{},{},{}",
                    float(xl),
                    float(xh),
                    float(tl),
                    float(th),
                    c.generated,
                    c.delivered
                );
                for d in c.dropped {
                    let _ = write!(out, ",{d}");
                }
                let _ =
                    writeln!(out, ",{},{},{}", c.cbf_cancelled, c.cbf_by_attacker, c.intercepted);
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // JSON
    // -----------------------------------------------------------------

    /// Renders the heatmap as JSON (sparse: empty cells are omitted) in
    /// the shared artifact envelope, with the grid geometry as header
    /// fields. Deterministic — two same-seed runs produce byte-identical
    /// artifacts.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let header = [
            ("x_bin_m", float(self.x_bin)),
            ("t_bin_us", self.t_bin.as_micros().to_string()),
            ("road_length_m", float(self.road_length)),
            ("duration_us", self.duration.as_micros().to_string()),
        ];
        let cells = self.cells.iter().enumerate().filter(|(_, c)| !c.is_empty());
        json::write_envelope(&self.meta, &header, "cells", cells, |out, (i, c)| {
            let (xi, ti) = (i % self.nx, i / self.nx);
            let _ = write!(
                out,
                "{{\"xi\":{xi},\"ti\":{ti},\"generated\":{},\"delivered\":{},\"dropped\":[",
                c.generated, c.delivered
            );
            for (i, d) in c.dropped.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{d}");
            }
            let _ = write!(
                out,
                "],\"cbf_cancelled\":{},\"cbf_by_attacker\":{},\"intercepted\":{}}}",
                c.cbf_cancelled, c.cbf_by_attacker, c.intercepted
            );
        })
    }

    /// Parses an artifact produced by [`RoadHeatmap::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending construct on malformed
    /// JSON, out-of-range cell indices or duplicate cells.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let header = ["x_bin_m", "t_bin_us", "road_length_m", "duration_us"];
        let env = json::read_envelope(text, &header, "cells", parse_cell)?;
        let t_bin = SimDuration::from_micros(env.root.get("t_bin_us")?.as_u64("t_bin_us")?);
        let duration =
            SimDuration::from_micros(env.root.get("duration_us")?.as_u64("duration_us")?);
        let x_bin = env.root.get("x_bin_m")?.as_f64("x_bin_m")?;
        let road_length = env.root.get("road_length_m")?.as_f64("road_length_m")?;
        if t_bin == SimDuration::ZERO || duration == SimDuration::ZERO {
            return Err("heatmap artifact has a zero time extent".to_string());
        }
        if !(x_bin > 0.0 && road_length > 0.0) {
            return Err("heatmap artifact has a non-positive spatial extent".to_string());
        }
        let mut map = RoadHeatmap::with_bins(road_length, duration, x_bin, t_bin);
        map.meta = env.meta;
        for (xi, ti, c) in env.items {
            if xi >= map.nx || ti >= map.nt {
                return Err(format!("cell ({xi},{ti}) outside the {}x{} grid", map.nx, map.nt));
            }
            let slot = &mut map.cells[ti * map.nx + xi];
            if !slot.is_empty() {
                return Err(format!("duplicate cell ({xi},{ti})"));
            }
            *slot = c;
        }
        Ok(map)
    }
}

/// Decodes one sparse cell as `(xi, ti, counters)`.
fn parse_cell(cell: &json::Value) -> Result<(usize, usize, HeatCell), String> {
    let (xi, ti) = (cell.get("xi")?.as_int("xi")?, cell.get("ti")?.as_int("ti")?);
    let mut c = HeatCell {
        generated: cell.get("generated")?.as_u64("generated")?,
        delivered: cell.get("delivered")?.as_u64("delivered")?,
        cbf_cancelled: cell.get("cbf_cancelled")?.as_u64("cbf_cancelled")?,
        cbf_by_attacker: cell.get("cbf_by_attacker")?.as_u64("cbf_by_attacker")?,
        intercepted: cell.get("intercepted")?.as_u64("intercepted")?,
        ..HeatCell::default()
    };
    let dropped = cell.get("dropped")?.as_array("dropped")?;
    if dropped.len() != DropReason::ALL.len() {
        return Err(format!("cell ({xi},{ti}) has {} drop counters", dropped.len()));
    }
    for (slot, v) in c.dropped.iter_mut().zip(dropped) {
        *slot = v.as_u64("drop counter")?;
    }
    if c.is_empty() {
        return Err(format!("cell ({xi},{ti}) is empty (must be omitted)"));
    }
    Ok((xi, ti, c))
}

// ---------------------------------------------------------------------
// A/B diff
// ---------------------------------------------------------------------

/// One longitudinal bin's attacker-free vs. attacked delta (time bins
/// summed).
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapDiffRow {
    /// Bin range, metres.
    pub x_lo: f64,
    /// Bin range, metres.
    pub x_hi: f64,
    /// Attacker-free totals for this bin.
    pub af: HeatCell,
    /// Attacked totals for this bin.
    pub atk: HeatCell,
}

impl HeatmapDiffRow {
    /// Attacker-free delivery rate (1.0 when nothing was generated).
    #[must_use]
    pub fn rate_af(&self) -> f64 {
        rate(self.af.delivered, self.af.generated)
    }

    /// Attacked delivery rate (1.0 when nothing was generated).
    #[must_use]
    pub fn rate_atk(&self) -> f64 {
        rate(self.atk.delivered, self.atk.generated)
    }

    /// Relative delivery drop `(rate_af − rate_atk) / rate_af`,
    /// clamped below at 0 (a bin can improve under attack by chance).
    #[must_use]
    pub fn relative_drop(&self) -> f64 {
        let af = self.rate_af();
        if af <= 0.0 {
            return 0.0;
        }
        ((af - self.rate_atk()) / af).max(0.0)
    }

    /// Whether this bin lost more than half its deliveries — the
    /// blast-radius "hot bin" criterion. Bins that generated nothing
    /// in either run are never hot.
    #[must_use]
    pub fn is_hot(&self) -> bool {
        self.af.generated > 0 && self.atk.generated > 0 && self.relative_drop() > 0.5
    }
}

fn rate(delivered: u64, generated: u64) -> f64 {
    if generated == 0 {
        1.0
    } else {
        delivered as f64 / generated as f64
    }
}

/// The per-bin delta table between an attacker-free and an attacked
/// heatmap of identical geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapDiff {
    /// One row per longitudinal bin, ascending.
    pub rows: Vec<HeatmapDiffRow>,
}

impl HeatmapDiff {
    /// Diffs two heatmaps.
    ///
    /// # Errors
    ///
    /// Returns a message if the two grids have different geometry.
    pub fn build(af: &RoadHeatmap, atk: &RoadHeatmap) -> Result<Self, String> {
        if (af.nx, af.nt, af.x_bin, af.t_bin) != (atk.nx, atk.nt, atk.x_bin, atk.t_bin) {
            return Err(format!(
                "heatmap geometry mismatch: af {}x{} ({} m x {}), atk {}x{} ({} m x {})",
                af.nx, af.nt, af.x_bin, af.t_bin, atk.nx, atk.nt, atk.x_bin, atk.t_bin
            ));
        }
        let rows = (0..af.nx)
            .map(|xi| {
                let (x_lo, x_hi) = af.x_range(xi);
                HeatmapDiffRow { x_lo, x_hi, af: af.column(xi), atk: atk.column(xi) }
            })
            .collect();
        Ok(HeatmapDiff { rows })
    }

    /// The bins that lost more than half their deliveries.
    #[must_use]
    pub fn hot_bins(&self) -> Vec<&HeatmapDiffRow> {
        self.rows.iter().filter(|r| r.is_hot()).collect()
    }

    /// The longitudinal bin with the most attacker-attributed CBF
    /// suppressions in the attacked run, if any suppression was
    /// attributed at all — the blockage attack's footprint.
    #[must_use]
    pub fn hottest_suppression_bin(&self) -> Option<&HeatmapDiffRow> {
        self.rows.iter().max_by_key(|r| r.atk.cbf_by_attacker).filter(|r| r.atk.cbf_by_attacker > 0)
    }
}

impl fmt::Display for HeatmapDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>12}  {:>9} {:>9}  {:>9} {:>9}  {:>8}  {:>9} {:>9}  hot",
            "bin [m)",
            "gen(af)",
            "dlv(af)",
            "gen(atk)",
            "dlv(atk)",
            "rel.drop",
            "drops",
            "cbf(atk)"
        )?;
        for r in &self.rows {
            if r.af.is_empty() && r.atk.is_empty() {
                continue;
            }
            writeln!(
                f,
                "{:>5}-{:<6}  {:>9} {:>9}  {:>9} {:>9}  {:>7.1}%  {:>9} {:>9}  {}",
                r.x_lo.round(),
                r.x_hi.round(),
                r.af.generated,
                r.af.delivered,
                r.atk.generated,
                r.atk.delivered,
                r.relative_drop() * 100.0,
                r.atk.dropped_total(),
                r.atk.cbf_by_attacker,
                if r.is_hot() { "HOT" } else { "" }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Blast radius
// ---------------------------------------------------------------------

/// The attack's spatial and topological footprint, rolled up from an
/// A/B pair of topology artifacts and the matching heatmap diff.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastRadiusReport {
    /// `(x_lo, x_hi, relative_drop)` of every hot bin, ascending.
    pub hot_bins: Vec<(f64, f64, f64)>,
    /// Fraction of attacker-free snapshots whose legit relay graph was
    /// partitioned.
    pub partition_fraction_af: f64,
    /// Fraction of attacked snapshots whose legit relay graph was
    /// partitioned.
    pub partition_fraction_atk: f64,
    /// Fraction of attacked snapshots in which the attacker itself was
    /// a greedy local maximum toward the destination.
    pub attacker_local_max_fraction: f64,
    /// Mean fraction of legit nodes holding a poisoned gradient per
    /// attacked snapshot.
    pub poisoned_fraction: f64,
    /// Of all poisoned-gradient observations across attacked snapshots,
    /// the fraction sitting inside the attacker's coverage. Near 1.0
    /// when the attacker's replay footprint is exactly where gradients
    /// die — the attacker acting as the greedy local maximum.
    pub poisoned_in_coverage_fraction: f64,
    /// Articulation points of the attacker-free relay graph that are no
    /// longer articulation points under attack *and* sit inside the
    /// attacker's coverage — the cut vertices the attacker displaced
    /// (attacked run's node ids, ascending).
    pub displaced_articulation: Vec<u32>,
    /// Undelivered packets attributed to the interception attack.
    pub intercepted: u64,
    /// Of those, packets whose last forwarding hop sat inside the
    /// attacker's coverage when it forwarded.
    pub last_hop_in_coverage: u64,
}

fn partition_fraction(t: &TopoArtifact) -> f64 {
    if t.samples().is_empty() {
        return 0.0;
    }
    let parted = t.samples().iter().filter(|s| s.partitions > 1).count();
    parted as f64 / t.samples().len() as f64
}

impl BlastRadiusReport {
    /// Builds the report. The attacked artifact's node ids are offset
    /// by one above the attacker's id relative to the attacker-free
    /// run (the attacker claims a node slot mid-registration), which
    /// the articulation comparison accounts for.
    ///
    /// `intercepted` / `last_hop_in_coverage` come from the runner's
    /// trace correlation (see [`crate::interarea`]): a packet counts as
    /// intercepted when it was delivered attacker-free but not under
    /// attack.
    #[must_use]
    pub fn build(
        af_topo: &TopoArtifact,
        atk_topo: &TopoArtifact,
        diff: &HeatmapDiff,
        intercepted: u64,
        last_hop_in_coverage: u64,
    ) -> Self {
        let hot_bins =
            diff.hot_bins().iter().map(|r| (r.x_lo, r.x_hi, r.relative_drop())).collect();

        let attacker_ids = |s: &geonet_sim::TopoSnapshot| {
            s.nodes.iter().filter(|n| n.attacker).map(|n| n.id).collect::<Vec<_>>()
        };
        let with_attacker =
            atk_topo.samples().iter().filter(|s| !attacker_ids(s).is_empty()).count();
        let local_max_hits = atk_topo
            .samples()
            .iter()
            .filter(|s| attacker_ids(s).iter().any(|id| s.local_max.contains(id)))
            .count();
        let attacker_local_max_fraction =
            if with_attacker == 0 { 0.0 } else { local_max_hits as f64 / with_attacker as f64 };

        let mut poisoned_sum = 0.0;
        let mut poisoned_n = 0usize;
        let mut poisoned_total = 0u64;
        let mut poisoned_in_cov = 0u64;
        for s in atk_topo.samples() {
            let legit = s.nodes.iter().filter(|n| !n.attacker).count();
            if legit == 0 {
                continue;
            }
            let covered: std::collections::BTreeSet<u32> =
                s.coverage.iter().flat_map(|c| c.covered.iter().copied()).collect();
            let mut poisoned = 0usize;
            for n in &s.nodes {
                if !n.attacker && n.gradient == geonet_sim::GradientHealth::Poisoned {
                    poisoned += 1;
                    poisoned_total += 1;
                    if covered.contains(&n.id) {
                        poisoned_in_cov += 1;
                    }
                }
            }
            poisoned_sum += poisoned as f64 / legit as f64;
            poisoned_n += 1;
        }
        let poisoned_fraction =
            if poisoned_n == 0 { 0.0 } else { poisoned_sum / poisoned_n as f64 };
        let poisoned_in_coverage_fraction =
            if poisoned_total == 0 { 0.0 } else { poisoned_in_cov as f64 / poisoned_total as f64 };

        // Same seed ⇒ same registration order, except the attacker
        // claims one node id right after the initial vehicles: an
        // attacker-free id at or above it maps one slot up.
        let attacker_id = atk_topo
            .samples()
            .iter()
            .flat_map(|s| s.nodes.iter().filter(|n| n.attacker).map(|n| n.id))
            .min();
        let map_af_id = |id: u32| match attacker_id {
            Some(a) if id >= a => id + 1,
            _ => id,
        };
        let mut displaced = std::collections::BTreeSet::new();
        for (a, b) in af_topo.samples().iter().zip(atk_topo.samples()) {
            let covered: std::collections::BTreeSet<u32> =
                b.coverage.iter().flat_map(|c| c.covered.iter().copied()).collect();
            for &id in &a.articulation {
                let mapped = map_af_id(id);
                if covered.contains(&mapped) && !b.articulation.contains(&mapped) {
                    displaced.insert(mapped);
                }
            }
        }

        BlastRadiusReport {
            hot_bins,
            partition_fraction_af: partition_fraction(af_topo),
            partition_fraction_atk: partition_fraction(atk_topo),
            attacker_local_max_fraction,
            poisoned_fraction,
            poisoned_in_coverage_fraction,
            displaced_articulation: displaced.into_iter().collect(),
            intercepted,
            last_hop_in_coverage,
        }
    }

    /// `last_hop_in_coverage / intercepted` (0 when nothing was
    /// intercepted).
    #[must_use]
    pub fn last_hop_coverage_fraction(&self) -> f64 {
        if self.intercepted == 0 {
            0.0
        } else {
            self.last_hop_in_coverage as f64 / self.intercepted as f64
        }
    }

    /// Whether the evidence shows the attacker acting as the greedy
    /// gradient's local maximum (the paper's interception mechanism):
    /// gradients do die (some poisoned fraction), the majority of them
    /// *inside* the attacker's coverage — i.e. the packet sink the
    /// greedy gradient runs into coincides with the attacker, either by
    /// gradient poisoning or by geometric position.
    #[must_use]
    pub fn attacker_is_gradient_local_max(&self) -> bool {
        (self.poisoned_fraction > 0.0 && self.poisoned_in_coverage_fraction >= 0.5)
            || self.attacker_local_max_fraction >= 0.5
    }
}

impl fmt::Display for BlastRadiusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "blast radius")?;
        if self.hot_bins.is_empty() {
            writeln!(f, "  hot bins (rel. drop > 50%): none")?;
        } else {
            writeln!(f, "  hot bins (rel. drop > 50%):")?;
            for (lo, hi, drop) in &self.hot_bins {
                writeln!(f, "    {:>5}-{:<6} m  -{:.1}%", lo.round(), hi.round(), drop * 100.0)?;
            }
        }
        writeln!(
            f,
            "  partition time: af {:.1}%  atk {:.1}%",
            self.partition_fraction_af * 100.0,
            self.partition_fraction_atk * 100.0
        )?;
        writeln!(
            f,
            "  attacker acts as greedy local maximum: {} (geometric in {:.1}% of snapshots; \
             {:.1}% of poisoned gradients inside its coverage)",
            if self.attacker_is_gradient_local_max() { "yes" } else { "no" },
            self.attacker_local_max_fraction * 100.0,
            self.poisoned_in_coverage_fraction * 100.0
        )?;
        writeln!(
            f,
            "  poisoned gradients: {:.1}% of nodes (snapshot mean)",
            self.poisoned_fraction * 100.0
        )?;
        if self.displaced_articulation.is_empty() {
            writeln!(f, "  displaced articulation points: none")?;
        } else {
            writeln!(f, "  displaced articulation points: {:?}", self.displaced_articulation)?;
        }
        write!(
            f,
            "  intercepted {} packets, {} ({:.0}%) last forwarded inside attacker coverage",
            self.intercepted,
            self.last_hop_in_coverage,
            self.last_hop_coverage_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::{GradientHealth, Timeline, TopoNode, TopoSnapshot};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn bins_clamp_at_the_edges() {
        let mut h = RoadHeatmap::new(4_000.0, SimDuration::from_secs(60));
        assert_eq!((h.x_bins(), h.t_bins()), (40, 12));
        h.record_packet(-20.0, t(0), true); // spawn margin → bin 0
        h.record_packet(4_020.0, t(59), false); // past the end → last bin
        h.record_packet(4_020.0, t(400), false); // past the horizon
        assert_eq!(h.cell(0, 0).generated, 1);
        assert_eq!(h.cell(0, 0).delivered, 1);
        assert_eq!(h.cell(39, 11).generated, 2);
        assert_eq!(h.totals().generated, 3);
    }

    #[test]
    fn events_land_by_kind() {
        let mut h = RoadHeatmap::new(1_000.0, SimDuration::from_secs(10));
        let p = geonet_sim::PacketRef::new(1, 2);
        h.record_event(
            150.0,
            t(2),
            &TraceEvent::Dropped { packet: p, reason: DropReason::NoNextHop },
            None,
        );
        h.record_event(150.0, t(2), &TraceEvent::CbfCancelled { packet: p, by: 7 }, Some(7));
        h.record_event(150.0, t(2), &TraceEvent::CbfCancelled { packet: p, by: 9 }, Some(7));
        h.record_event(150.0, t(2), &TraceEvent::Delivered { packet: p }, Some(7)); // ignored
        h.record_intercepted(950.0, t(9));
        let c = h.cell(1, 0);
        assert_eq!(c.dropped[DropReason::NoNextHop.index()], 1);
        assert_eq!(c.cbf_cancelled, 2);
        assert_eq!(c.cbf_by_attacker, 1);
        assert_eq!(h.cell(9, 1).intercepted, 1);
    }

    #[test]
    fn csv_has_header_and_dense_rows() {
        let mut h = RoadHeatmap::with_bins(
            200.0,
            SimDuration::from_secs(10),
            100.0,
            SimDuration::from_secs(5),
        );
        h.record_packet(50.0, t(1), true);
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "2x2 grid renders densely");
        assert!(lines[0].starts_with("x_lo_m,x_hi_m,t_lo_s,t_hi_s,generated,delivered,drop_"));
        assert!(lines[1].starts_with("0.0,100.0,0.0,5.0,1,1,"), "{}", lines[1]);
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let mut h = RoadHeatmap::new(4_000.0, SimDuration::from_secs(60));
        h.set_meta("seed", "42");
        h.set_meta("scenario", "interarea");
        h.record_packet(150.0, t(3), true);
        h.record_packet(2_050.0, t(31), false);
        h.record_intercepted(1_950.0, t(33));
        let p = geonet_sim::PacketRef::new(5, 1);
        h.record_event(
            2_050.0,
            t(33),
            &TraceEvent::Dropped { packet: p, reason: DropReason::AckExhausted },
            None,
        );
        let text = h.to_json();
        let back = RoadHeatmap::from_json(&text).expect("parses");
        assert_eq!(back, h);
        assert_eq!(back.to_json(), text, "round trip must be byte-identical");
    }

    #[test]
    fn json_rejects_out_of_range_and_duplicate_cells() {
        let mut h = RoadHeatmap::with_bins(
            200.0,
            SimDuration::from_secs(10),
            100.0,
            SimDuration::from_secs(5),
        );
        h.record_packet(50.0, t(1), true);
        let text = h.to_json();
        let far = text.replace("\"xi\":0", "\"xi\":7");
        assert!(RoadHeatmap::from_json(&far).unwrap_err().contains("outside"));
        let dup = text.replace(
            "\"cells\":[\n",
            "\"cells\":[\n{\"xi\":0,\"ti\":0,\"generated\":1,\"delivered\":0,\"dropped\":[0,0,0,0,0],\"cbf_cancelled\":0,\"cbf_by_attacker\":0,\"intercepted\":0},\n",
        );
        assert!(RoadHeatmap::from_json(&dup).unwrap_err().contains("duplicate"));
    }

    fn toy_heatmaps() -> (RoadHeatmap, RoadHeatmap) {
        let mk = || RoadHeatmap::with_bins(300.0, t(10) - t(0), 100.0, SimDuration::from_secs(5));
        let mut af = mk();
        let mut atk = mk();
        for _ in 0..10 {
            af.record_packet(50.0, t(1), true); // bin 0: healthy in both
            atk.record_packet(50.0, t(1), true);
            af.record_packet(150.0, t(1), true); // bin 1: collapses
            atk.record_packet(150.0, t(1), false);
            af.record_packet(250.0, t(1), true); // bin 2: mild damage
        }
        for _ in 0..10 {
            atk.record_packet(250.0, t(1), true);
        }
        atk.record_intercepted(150.0, t(2));
        (af, atk)
    }

    #[test]
    fn diff_finds_hot_bins() {
        let (af, atk) = toy_heatmaps();
        let diff = HeatmapDiff::build(&af, &atk).unwrap();
        assert_eq!(diff.rows.len(), 3);
        let hot = diff.hot_bins();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].x_lo, 100.0);
        assert!((hot[0].relative_drop() - 1.0).abs() < 1e-12);
        assert!(!diff.rows[0].is_hot());
        let table = diff.to_string();
        assert!(table.contains("HOT"), "{table}");
    }

    #[test]
    fn diff_rejects_geometry_mismatch() {
        let af = RoadHeatmap::new(4_000.0, SimDuration::from_secs(60));
        let atk = RoadHeatmap::new(2_000.0, SimDuration::from_secs(60));
        assert!(HeatmapDiff::build(&af, &atk).unwrap_err().contains("geometry"));
    }

    /// A one-snapshot topology timeline.
    fn topo(at: SimTime, nodes: Vec<TopoNode>, dest: Option<(f64, f64)>) -> TopoArtifact {
        let mut tl = Timeline::new(SimDuration::from_secs(1));
        tl.record(TopoSnapshot::build(at, dest, nodes));
        tl
    }

    #[test]
    fn blast_radius_rolls_up_topology_and_bins() {
        // Attacker-free: a 3-node chain, node 1 is the articulation
        // point. Attacked: the same chain plus an attacker (id 2 shifts
        // the last vehicle to id 3) whose phantom link makes node 1
        // poisoned and the attacker the local maximum.
        let dest = Some((1_000.0, 0.0));
        let af = topo(
            t(1),
            vec![
                TopoNode::new(0, 0.0, 0.0, 150.0, false),
                TopoNode::new(1, 100.0, 0.0, 150.0, false),
                TopoNode::new(2, 200.0, 0.0, 150.0, false),
            ],
            dest,
        );
        let atk = topo(
            t(1),
            vec![
                TopoNode::new(0, 0.0, 0.0, 150.0, false),
                TopoNode::new(1, 100.0, 0.0, 150.0, false).with_gradient(GradientHealth::Poisoned),
                TopoNode::new(2, 300.0, -10.0, 400.0, true),
                // Displaced far east: the af articulation point at
                // id 1 keeps its role only attacker-free.
                TopoNode::new(3, 320.0, 0.0, 150.0, false),
            ],
            dest,
        );
        let (af_h, atk_h) = toy_heatmaps();
        let diff = HeatmapDiff::build(&af_h, &atk_h).unwrap();
        let report = BlastRadiusReport::build(&af, &atk, &diff, 10, 9);
        assert_eq!(report.hot_bins.len(), 1);
        assert!(report.partition_fraction_af < report.partition_fraction_atk);
        assert!(report.attacker_local_max_fraction > 0.0 || !atk.samples()[0].local_max.is_empty());
        assert!(report.poisoned_fraction > 0.3, "{}", report.poisoned_fraction);
        assert_eq!(report.poisoned_in_coverage_fraction, 1.0);
        assert!(report.attacker_is_gradient_local_max());
        assert!((report.last_hop_coverage_fraction() - 0.9).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("blast radius"), "{text}");
        assert!(text.contains("hot bins"), "{text}");
    }

    #[test]
    fn blast_radius_maps_af_ids_past_the_attacker() {
        // af articulation id 2 maps to atk id 3 once the attacker takes
        // slot 2; it is covered and no longer an articulation point, so
        // it counts as displaced.
        let dest = None;
        let af = topo(
            t(1),
            vec![
                TopoNode::new(0, 0.0, 0.0, 150.0, false),
                TopoNode::new(1, 100.0, 0.0, 150.0, false),
                TopoNode::new(2, 200.0, 0.0, 150.0, false),
                TopoNode::new(3, 300.0, 0.0, 150.0, false),
                TopoNode::new(4, 400.0, 0.0, 150.0, false),
            ],
            dest,
        );
        // Same chain under attack, ids ≥ 2 shifted up by the attacker
        // at slot 2; the old articulation vertex (now id 3) is inside
        // coverage, and we hand it a parallel path so it stops being a
        // cut vertex.
        let atk = topo(
            t(1),
            vec![
                TopoNode::new(0, 0.0, 0.0, 150.0, false),
                TopoNode::new(1, 100.0, 0.0, 250.0, false),
                TopoNode::new(2, 200.0, -10.0, 500.0, true),
                TopoNode::new(3, 200.0, 0.0, 150.0, false),
                TopoNode::new(4, 300.0, 0.0, 250.0, false),
                TopoNode::new(5, 400.0, 0.0, 150.0, false),
            ],
            dest,
        );
        let (af_h, atk_h) = toy_heatmaps();
        let diff = HeatmapDiff::build(&af_h, &atk_h).unwrap();
        let report = BlastRadiusReport::build(&af, &atk, &diff, 0, 0);
        assert!(report.displaced_articulation.contains(&3), "{report:?}");
        assert_eq!(report.last_hop_coverage_fraction(), 0.0);
    }
}
