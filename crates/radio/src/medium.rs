//! The unit-disk broadcast medium.

use geonet_geo::Position;
use geonet_sim::{SimDuration, StateHasher, Telemetry, U64Map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a node registered on the radio medium.
///
/// The scenario layer keeps `NodeId` aligned with its own vehicle /
/// roadside-unit / attacker indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-node radio state.
#[derive(Debug, Clone, Copy)]
struct Entry {
    position: Position,
    tx_range: f64,
    active: bool,
}

/// Up to this many registered nodes the receiver walk scans the entry
/// table instead of the grid: nine hash probes cost more than scanning a
/// few cache lines. Sparse-traffic scenarios — 300 m spacing puts ~26
/// vehicles on the paper's road, and an hour-long run retires only a few
/// dozen more — stay on the scan. Dense scenarios blow past the cutoff
/// immediately and keep paying more for a scan as retired (inactive)
/// vehicles pile up in the entry table, which the grid never visits. The
/// scan yields receivers in ascending id order, the grid in bucket
/// order; [`Medium::fan_out`] passes either on as it comes.
const LINEAR_CUTOFF: usize = 100;

/// Metres light travels in one microsecond.
const LIGHT_M_PER_US: f64 = 299.792_458;

/// The propagation delay over a squared distance `d2` (m²), in whole
/// microseconds: the distance over the speed of light, rounded up, and
/// at least 1 µs so that a transmission and its reception never share a
/// timestamp. Equal to `(d2.sqrt() / 299.792458).ceil().max(1.0)` for
/// every finite `d2 >= 0`; the ceiling is written out because `f64::ceil`
/// is a libm call on the baseline x86-64 target, and the fan-out takes
/// one delay per receiver.
#[must_use]
#[inline]
pub fn delay_us(d2: f64) -> u64 {
    let q = d2.sqrt() / LIGHT_M_PER_US;
    let t = q as u64;
    t.saturating_add(u64::from((t as f64) < q)).max(1)
}

/// [`delay_us`] by table for delays up to `N` µs: the largest squared
/// distance of each whole microsecond, so that a delay is the first
/// threshold at or above `d2`, found by comparisons alone. Equal to
/// [`delay_us`] for every `d2`; past the last threshold it calls it.
#[derive(Debug, Clone, Copy)]
pub struct DelayTable<const N: usize> {
    /// `max_d2[k]`: the largest `d2` with `delay_us(d2) <= k + 1`.
    max_d2: [f64; N],
}

impl<const N: usize> DelayTable<N> {
    /// Finds each threshold by bisection on the bit pattern: the bits of
    /// a non-negative `f64` order like its value, and [`delay_us`] is
    /// monotone in `d2` (a correctly rounded square root and quotient,
    /// then a ceiling).
    #[must_use]
    pub fn new() -> Self {
        let largest_within = |us: u64| {
            // delay_us(lo) <= us < delay_us(hi)
            let (mut lo, mut hi) = (0.0f64.to_bits(), f64::INFINITY.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if delay_us(f64::from_bits(mid)) <= us {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            f64::from_bits(lo)
        };
        DelayTable { max_d2: std::array::from_fn(|k| largest_within(k as u64 + 1)) }
    }

    /// [`delay_us`] of `d2`.
    #[must_use]
    #[inline]
    pub fn delay_us(&self, d2: f64) -> u64 {
        match self.max_d2.iter().position(|&max| d2 <= max) {
            Some(k) => k as u64 + 1,
            None => delay_us(d2),
        }
    }
}

impl<const N: usize> Default for DelayTable<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Grid buckets keyed by packed `(cx, cy)` cell coordinates.
type CellMap = U64Map<Vec<u32>>;

/// Uniform grid over node positions: cell edge `cell` metres, buckets of
/// **active** node ids keyed by packed cell coordinates.
///
/// Invariants:
/// * `cell >= tx_range` for every range ever registered or configured
///   (grown monotonically, full rebuild on growth), so an uncapped query
///   touches at most a 3×3 neighbourhood of cells. Queries do not rely on
///   this — they derive the cell box from the effective range — it only
///   bounds the work.
/// * A bucket holds exactly the active entries whose position maps to its
///   cell; inactive nodes are absent (removed in `set_active`).
/// * `keys[id]` is the key of the bucket holding `id` while `id` is
///   active (stale while it is not). Insert, relocate and rebuild refresh
///   it, so a removal or a move finds the old bucket without mapping the
///   old position again.
/// * Empty buckets are dropped so the map tracks occupied cells only.
/// * Insert, remove, relocate and query all map a coordinate to its cell
///   through `cell_index`. Any monotone map shared by all four gives the
///   same receiver sets, so it need not equal `floor(v / cell)` at a cell
///   edge.
#[derive(Debug)]
struct Grid {
    cell: f64,
    /// `1 / cell`.
    inv_cell: f64,
    buckets: CellMap,
    /// The key of each active node's bucket, by node id.
    keys: Vec<u64>,
}

impl Default for Grid {
    fn default() -> Self {
        Grid { cell: 1.0, inv_cell: 1.0, buckets: CellMap::default(), keys: Vec::new() }
    }
}

impl Grid {
    /// `floor(v / cell)` away from cell edges, monotone in `v`: a multiply
    /// and a floor written out, as `f64::floor` and a division would cost
    /// a libm call and a divide per coordinate on every position sync.
    fn cell_index(&self, v: f64) -> i32 {
        let q = v * self.inv_cell;
        let t = q as i32;
        t.saturating_sub(i32::from(f64::from(t) > q))
    }

    /// Grows the cell edge to `cell` and re-buckets every active entry.
    fn grow(&mut self, cell: f64, entries: &[Entry]) {
        self.cell = cell;
        self.inv_cell = 1.0 / cell;
        self.rebuild(entries);
    }

    fn key(cx: i32, cy: i32) -> u64 {
        (u64::from(cx as u32) << 32) | u64::from(cy as u32)
    }

    fn key_of(&self, p: Position) -> u64 {
        Self::key(self.cell_index(p.x), self.cell_index(p.y))
    }

    /// Files `id` under key `k` and records the key.
    fn file(&mut self, id: u32, k: u64) {
        self.buckets.entry(k).or_default().push(id);
        let i = id as usize;
        if i >= self.keys.len() {
            self.keys.resize(i + 1, 0);
        }
        self.keys[i] = k;
    }

    fn insert(&mut self, id: u32, p: Position) {
        self.file(id, self.key_of(p));
    }

    fn remove(&mut self, id: u32) {
        let k = self.keys[id as usize];
        let bucket = self.buckets.get_mut(&k).expect("grid bucket missing");
        let i = bucket.iter().position(|&x| x == id).expect("node missing from grid bucket");
        bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&k);
        }
    }

    /// Moves active node `id` from `from` to `to`. The cell row is mapped
    /// again only when `y` changed: road vehicles never change lane, so
    /// their sync maps `x` alone.
    fn relocate(&mut self, id: u32, from: Position, to: Position) {
        let old = self.keys[id as usize];
        let cy = if to.y.to_bits() == from.y.to_bits() {
            old as u32 as i32
        } else {
            self.cell_index(to.y)
        };
        let k = Self::key(self.cell_index(to.x), cy);
        if k != old {
            self.remove(id);
            self.file(id, k);
        }
    }

    fn rebuild(&mut self, entries: &[Entry]) {
        self.buckets.clear();
        for (i, e) in entries.iter().enumerate() {
            if e.active {
                self.file(i as u32, self.key_of(e.position));
            }
        }
    }
}

/// A unit-disk broadcast medium.
///
/// Nodes register with a position and a transmission range. A broadcast
/// from node `s` is heard by exactly the active nodes within `s`'s
/// effective range of `s`'s position — the model the paper inherits from
/// its simulator, with ranges calibrated by the Utah DOT field test.
///
/// The medium is pure geometry: it answers *who hears this transmission*
/// and *after what propagation delay*; scheduling the deliveries is the
/// caller's job (see `geonet-scenarios`). This split keeps the medium
/// trivially testable and the event loop in one place.
///
/// Receiver queries are served by an incrementally maintained uniform
/// `Grid` (cell size tied to the largest registered range, kept in sync
/// by `set_position` / `set_active` / `set_tx_range`), with a linear-scan
/// fallback below `LINEAR_CUTOFF` nodes. One walk serves both: it applies
/// the boundary-inclusive range predicate of the reference scan
/// ([`Medium::receivers_within_linear`]) and yields each receiver once.
/// [`Medium::fan_out`] passes the walk on unordered; the `receivers*`
/// queries sort it into ascending ids, so their results — and therefore
/// whole simulation runs — are bit-identical to the reference scan.
#[derive(Debug, Default)]
pub struct Medium {
    entries: Vec<Entry>,
    grid: Grid,
    telemetry: Telemetry,
}

impl Medium {
    /// Creates an empty medium.
    #[must_use]
    pub fn new() -> Self {
        Medium::default()
    }

    /// Attaches a telemetry handle; the receiver scan behind every
    /// broadcast is wall-clock timed through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers a node at `position` with transmission range `tx_range`
    /// metres and returns its id. Ids are dense indices assigned in
    /// registration order.
    ///
    /// # Panics
    ///
    /// Panics if `tx_range` is not finite and non-negative, or if the
    /// position is not finite.
    pub fn register(&mut self, position: Position, tx_range: f64) -> NodeId {
        assert!(position.is_finite(), "non-finite position");
        assert!(tx_range.is_finite() && tx_range >= 0.0, "invalid tx range: {tx_range}");
        let id = NodeId(u32::try_from(self.entries.len()).expect("too many nodes"));
        self.entries.push(Entry { position, tx_range, active: true });
        if tx_range > self.grid.cell {
            self.grid.grow(tx_range, &self.entries);
        } else {
            self.grid.insert(id.0, position);
        }
        id
    }

    /// Number of registered nodes (active or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no nodes are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every registered node id, ascending — the topology observer's
    /// enumeration when it snapshots the adjacency graph (filter with
    /// [`Medium::is_active`] as needed).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.entries.len()).map(|i| NodeId(i as u32))
    }

    /// Folds every registered node's radio state — position, range,
    /// activity — into an audit digest, in node-id order.
    ///
    /// Deliberately index-structure-agnostic: only the logical state is
    /// digested, never the grid (cell size, bucket layout, insertion
    /// order), so an incrementally maintained medium and a freshly
    /// rebuilt one digest identically.
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_u64(self.entries.len() as u64);
        for e in &self.entries {
            h.write_f64(e.position.x);
            h.write_f64(e.position.y);
            h.write_f64(e.tx_range);
            h.write_bool(e.active);
        }
    }

    /// Current position of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this medium.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Position {
        self.entries[id.index()].position
    }

    /// Moves `id` to `position` (vehicles update every traffic step).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the position is not finite.
    pub fn set_position(&mut self, id: NodeId, position: Position) {
        assert!(position.is_finite(), "non-finite position");
        let old = self.entries[id.index()];
        self.entries[id.index()].position = position;
        if old.active {
            self.grid.relocate(id.0, old.position, position);
        }
    }

    /// The configured transmission range of `id`, metres.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn tx_range(&self, id: NodeId) -> f64 {
        self.entries[id.index()].tx_range
    }

    /// Reconfigures the transmission range of `id` (power control).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the range invalid.
    pub fn set_tx_range(&mut self, id: NodeId, tx_range: f64) {
        assert!(tx_range.is_finite() && tx_range >= 0.0, "invalid tx range: {tx_range}");
        self.entries[id.index()].tx_range = tx_range;
        if tx_range > self.grid.cell {
            self.grid.grow(tx_range, &self.entries);
        }
    }

    /// Whether `id` currently participates in the medium.
    #[must_use]
    pub fn is_active(&self, id: NodeId) -> bool {
        self.entries[id.index()].active
    }

    /// Activates or deactivates `id`. Inactive nodes neither hear nor are
    /// counted as receivers (used for vehicles that have left the road).
    pub fn set_active(&mut self, id: NodeId, active: bool) {
        let e = self.entries[id.index()];
        if e.active == active {
            return;
        }
        self.entries[id.index()].active = active;
        if active {
            self.grid.insert(id.0, e.position);
        } else {
            self.grid.remove(id.0);
        }
    }

    /// The nodes that hear a broadcast from `sender` at its configured
    /// range, in ascending id order (deterministic). The sender itself is
    /// excluded; inactive nodes are excluded.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is unknown.
    #[must_use]
    pub fn receivers(&self, sender: NodeId) -> Vec<NodeId> {
        self.receivers_within(sender, self.tx_range(sender))
    }

    /// Like [`Medium::receivers`] but with the sender's power capped so the
    /// effective range is `min(configured, cap_range)`. Models the
    /// attacker's transmission-power control.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is unknown or `cap_range` is invalid.
    #[must_use]
    pub fn receivers_within(&self, sender: NodeId, cap_range: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.receivers_into(sender, cap_range, &mut out);
        out
    }

    /// Allocation-free variant of [`Medium::receivers_within`]: clears
    /// `out` and fills it with the receivers in ascending id order. It is
    /// the [`Medium::fan_out`] walk plus a sort, for the callers that see
    /// id order: the simulation's eager deliveries and frame-loss draws
    /// take one sequence number or draw per receiver in that order.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is unknown or `cap_range` is invalid.
    pub fn receivers_into(&self, sender: NodeId, cap_range: f64, out: &mut Vec<NodeId>) {
        assert!(cap_range.is_finite() && cap_range >= 0.0, "invalid cap range: {cap_range}");
        let _span = self.telemetry.time("radio_receiver_scan_ns");
        out.clear();
        self.walk(sender, cap_range, |rx, _| out.push(rx));
        out.sort_unstable();
    }

    /// Calls `f` with each node that hears a broadcast from `sender`,
    /// power-capped to `cap_range` as in [`Medium::receivers_within`], and
    /// its squared distance from the sender in m² (the value the range test
    /// compared; [`delay_us`] turns it into the propagation delay). The
    /// receivers are those of [`Medium::receivers_within`], in an
    /// unspecified order: grid-bucket order, or ascending ids up to a
    /// hundred registered nodes. A caller that needs no order saves the
    /// sort and a second position lookup per receiver.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is unknown or `cap_range` is invalid.
    pub fn fan_out(&self, sender: NodeId, cap_range: f64, f: impl FnMut(NodeId, f64)) {
        assert!(cap_range.is_finite() && cap_range >= 0.0, "invalid cap range: {cap_range}");
        let _span = self.telemetry.time("radio_receiver_scan_ns");
        self.walk(sender, cap_range, f);
    }

    /// The receiver walk behind [`Medium::fan_out`] and
    /// [`Medium::receivers_into`].
    fn walk(&self, sender: NodeId, cap_range: f64, mut f: impl FnMut(NodeId, f64)) {
        let s = self.entries[sender.index()];
        if !s.active {
            return;
        }
        let range = s.tx_range.min(cap_range);
        // `Position::within_range`, with the squared distance kept.
        let r2 = range * range;
        if self.entries.len() <= LINEAR_CUTOFF {
            for (i, e) in self.entries.iter().enumerate() {
                if i == sender.index() || !e.active {
                    continue;
                }
                let d2 = s.position.distance_squared(e.position);
                if d2 <= r2 {
                    f(NodeId(i as u32), d2);
                }
            }
            return;
        }
        // Every cell intersecting the bounding square of the range disk;
        // with cell >= range this is at most 3×3.
        let cx0 = self.grid.cell_index(s.position.x - range);
        let cx1 = self.grid.cell_index(s.position.x + range);
        let cy0 = self.grid.cell_index(s.position.y - range);
        let cy1 = self.grid.cell_index(s.position.y + range);
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                let Some(bucket) = self.grid.buckets.get(&Grid::key(cx, cy)) else {
                    continue;
                };
                for &i in bucket {
                    if i == sender.0 {
                        continue;
                    }
                    let e = &self.entries[i as usize];
                    debug_assert!(e.active, "grid bucket holds inactive node");
                    let d2 = s.position.distance_squared(e.position);
                    if d2 <= r2 {
                        f(NodeId(i), d2);
                    }
                }
            }
        }
    }

    /// Reference linear-scan implementation of
    /// [`Medium::receivers_within`].
    ///
    /// Kept as the correctness oracle for the grid index — the property
    /// tests assert exact equality against it — and as the baseline side
    /// of the `BENCH_radio.json` A/B gate. Not used on any hot path. It
    /// carries the same telemetry span as the indexed path (the
    /// pre-index implementation did too), so benchmark comparisons
    /// isolate the index itself.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is unknown or `cap_range` is invalid.
    #[must_use]
    pub fn receivers_within_linear(&self, sender: NodeId, cap_range: f64) -> Vec<NodeId> {
        assert!(cap_range.is_finite() && cap_range >= 0.0, "invalid cap range: {cap_range}");
        let _span = self.telemetry.time("radio_receiver_scan_ns");
        let s = &self.entries[sender.index()];
        if !s.active {
            return Vec::new();
        }
        let range = s.tx_range.min(cap_range);
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if i == sender.index() || !e.active {
                continue;
            }
            if s.position.within_range(e.position, range) {
                out.push(NodeId(i as u32));
            }
        }
        out
    }

    /// Returns `true` if a broadcast from `sender` reaches `receiver` —
    /// i.e. `receiver` is active and within `sender`'s configured range.
    ///
    /// Note the asymmetry: reachability is determined by the *sender's*
    /// range (the attacker transmits farther than vehicles by raising its
    /// power, without hearing farther).
    #[must_use]
    pub fn reaches(&self, sender: NodeId, receiver: NodeId) -> bool {
        let s = &self.entries[sender.index()];
        let r = &self.entries[receiver.index()];
        s.active
            && r.active
            && sender != receiver
            && s.position.within_range(r.position, s.tx_range)
    }

    /// Propagation delay between two nodes: distance over the speed of
    /// light, rounded up to at least one microsecond so that a transmission
    /// and its reception never share a timestamp ([`delay_us`]).
    #[must_use]
    pub fn propagation_delay(&self, a: NodeId, b: NodeId) -> SimDuration {
        let d2 =
            self.entries[a.index()].position.distance_squared(self.entries[b.index()].position);
        SimDuration::from_micros(delay_us(d2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn medium_with_line(ranges: &[f64], spacing: f64) -> (Medium, Vec<NodeId>) {
        let mut m = Medium::new();
        let ids = ranges
            .iter()
            .enumerate()
            .map(|(i, &r)| m.register(Position::new(i as f64 * spacing, 0.0), r))
            .collect();
        (m, ids)
    }

    #[test]
    fn receivers_respect_sender_range() {
        let (m, ids) = medium_with_line(&[500.0; 4], 400.0);
        // Node 0 at x=0 with 500 m range hears only node 1 at 400 m.
        assert_eq!(m.receivers(ids[0]), vec![ids[1]]);
        // Node 1 reaches both neighbours.
        assert_eq!(m.receivers(ids[1]), vec![ids[0], ids[2]]);
    }

    #[test]
    fn asymmetric_ranges() {
        let mut m = Medium::new();
        let strong = m.register(Position::new(0.0, 0.0), 1_000.0);
        let weak = m.register(Position::new(800.0, 0.0), 300.0);
        assert!(m.reaches(strong, weak));
        assert!(!m.reaches(weak, strong));
        assert_eq!(m.receivers(strong), vec![weak]);
        assert!(m.receivers(weak).is_empty());
    }

    #[test]
    fn power_cap_shrinks_range() {
        let (m, ids) = medium_with_line(&[1_000.0; 3], 400.0);
        assert_eq!(m.receivers(ids[0]).len(), 2);
        assert_eq!(m.receivers_within(ids[0], 500.0), vec![ids[1]]);
        assert!(m.receivers_within(ids[0], 100.0).is_empty());
        // Cap above configured range has no effect.
        assert_eq!(m.receivers_within(ids[0], 5_000.0).len(), 2);
    }

    #[test]
    fn inactive_nodes_do_not_participate() {
        let (mut m, ids) = medium_with_line(&[500.0; 3], 100.0);
        m.set_active(ids[1], false);
        assert_eq!(m.receivers(ids[0]), vec![ids[2]]);
        assert!(m.receivers(ids[1]).is_empty());
        assert!(!m.reaches(ids[0], ids[1]));
        m.set_active(ids[1], true);
        assert_eq!(m.receivers(ids[0]), vec![ids[1], ids[2]]);
    }

    #[test]
    fn sender_never_hears_itself() {
        let (m, ids) = medium_with_line(&[500.0; 2], 10.0);
        assert!(!m.receivers(ids[0]).contains(&ids[0]));
        assert!(!m.reaches(ids[0], ids[0]));
    }

    #[test]
    fn positions_update() {
        let (mut m, ids) = medium_with_line(&[500.0; 2], 1_000.0);
        assert!(m.receivers(ids[0]).is_empty());
        m.set_position(ids[1], Position::new(100.0, 0.0));
        assert_eq!(m.receivers(ids[0]), vec![ids[1]]);
        assert_eq!(m.position(ids[1]).x, 100.0);
    }

    #[test]
    fn range_boundary_is_inclusive() {
        let mut m = Medium::new();
        let a = m.register(Position::new(0.0, 0.0), 486.0);
        let b = m.register(Position::new(486.0, 0.0), 486.0);
        assert!(m.reaches(a, b));
        m.set_position(b, Position::new(486.01, 0.0));
        assert!(!m.reaches(a, b));
    }

    #[test]
    fn propagation_delay_minimum_one_microsecond() {
        let (m, ids) = medium_with_line(&[500.0; 2], 0.5);
        assert_eq!(m.propagation_delay(ids[0], ids[1]), SimDuration::from_micros(1));
    }

    #[test]
    fn propagation_delay_scales_with_distance() {
        let mut m = Medium::new();
        let a = m.register(Position::new(0.0, 0.0), 5_000.0);
        let b = m.register(Position::new(2_997.924_58, 0.0), 5_000.0);
        assert_eq!(m.propagation_delay(a, b), SimDuration::from_micros(10));
    }

    /// The libm ceiling `delay_us` replaces, as `propagation_delay`
    /// computed it on the distance.
    fn libm_delay_us(d2: f64) -> u64 {
        (d2.sqrt() / 299.792_458).ceil().max(1.0) as u64
    }

    #[test]
    fn delay_us_equals_the_libm_ceiling() {
        // Whole microseconds of light and one ulp either side of them,
        // where a ceiling is decided, then distances below 1 µs.
        let mut ds: Vec<f64> = (0..=60)
            .map(|k| f64::from(k) * LIGHT_M_PER_US)
            .flat_map(|d| [d.next_down(), d, d.next_up()])
            .filter(|&d| d >= 0.0)
            .collect();
        ds.extend([0.0, f64::MIN_POSITIVE, 1e-9, 0.5, 30.0, 150.0, 299.79, 299.792_457]);
        for d in ds {
            let d2 = d * d;
            for d2 in [d2.next_down().max(0.0), d2, d2.next_up()] {
                assert_eq!(delay_us(d2), libm_delay_us(d2), "d = {d} m, d² = {d2}");
            }
        }
        assert_eq!(delay_us(0.0), 1);
        assert_eq!(delay_us(299.0 * 299.0), 1);
        assert_eq!(delay_us(300.0 * 300.0), 2);
        // The range test's squared distance of a 486 m link.
        assert_eq!(delay_us(486.0 * 486.0), 2);
    }

    #[test]
    fn delay_table_equals_delay_us() {
        let table = DelayTable::<15>::new();
        // Every threshold and 3 ulp either side of it, where a delay
        // changes, including the last one, past which the table defers.
        for &max in &table.max_d2 {
            let mut d2 = max;
            for _ in 0..3 {
                d2 = d2.next_down();
            }
            for _ in 0..7 {
                assert_eq!(table.delay_us(d2), delay_us(d2), "d² = {d2}");
                d2 = d2.next_up();
            }
            assert!(delay_us(max) < delay_us(max.next_up()), "{max} is no threshold");
        }
        // A dense sweep out past the table, and the edges.
        let last = table.max_d2[14];
        for k in 0..=400_000u32 {
            let d2 = f64::from(k) / 300_000.0 * last;
            assert_eq!(table.delay_us(d2), delay_us(d2), "d² = {d2}");
        }
        for d2 in [0.0, f64::MIN_POSITIVE, 1e-300, 486.0 * 486.0, 1e12, f64::MAX, f64::INFINITY] {
            assert_eq!(table.delay_us(d2), delay_us(d2), "d² = {d2}");
        }
    }

    #[test]
    fn cell_index_is_floor_division_and_monotone_at_cell_edges() {
        for cell in [1.0, 3.0, 30.0, 327.0, 486.0, 1_283.0] {
            let mut g = Grid::default();
            g.grow(cell, &[]);
            // Away from edges, the division it replaces.
            for i in -4_000..4_000 {
                let v = f64::from(i) * 7.37 + 0.013;
                let q = v / cell;
                if (q - q.round()).abs() > 1e-9 {
                    assert_eq!(g.cell_index(v), q.floor() as i32, "v = {v}, cell = {cell}");
                }
            }
            // At an edge, one ulp either side: monotone, and off by at
            // most one cell from the division.
            for k in -200..200 {
                let edge = f64::from(k) * cell;
                let [below, at, above] =
                    [edge.next_down(), edge, edge.next_up()].map(|v| g.cell_index(v));
                assert!(below <= at && at <= above, "edge {edge}, cell {cell}");
                assert!(below >= k - 1 && above <= k, "edge {edge}, cell {cell}");
            }
        }
    }

    #[test]
    fn set_tx_range_reconfigures() {
        let (mut m, ids) = medium_with_line(&[100.0; 2], 400.0);
        assert!(!m.reaches(ids[0], ids[1]));
        m.set_tx_range(ids[0], 500.0);
        assert!(m.reaches(ids[0], ids[1]));
        assert_eq!(m.tx_range(ids[0]), 500.0);
    }

    #[test]
    #[should_panic(expected = "invalid tx range")]
    fn register_rejects_nan_range() {
        let mut m = Medium::new();
        let _ = m.register(Position::ORIGIN, f64::NAN);
    }

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn nodes_enumerates_every_registration_in_order() {
        let (mut m, ids) = medium_with_line(&[500.0; 3], 100.0);
        m.set_active(ids[1], false);
        // Enumeration is registration order and includes inactive nodes.
        assert_eq!(m.nodes().collect::<Vec<_>>(), ids);
        assert!(Medium::new().nodes().next().is_none());
    }

    #[test]
    fn grid_path_matches_oracle_boundary_inclusive_and_sorted() {
        // 134 nodes at 30 m spacing — well past LINEAR_CUTOFF, so the
        // grid path answers.
        let (mut m, ids) = medium_with_line(&[486.0; 134], 30.0);
        let rx = m.receivers(ids[50]);
        assert_eq!(rx, m.receivers_within_linear(ids[50], 486.0));
        // 486 / 30 = 16.2 → 16 neighbours each side.
        assert_eq!(rx.len(), 32);
        assert!(rx.windows(2).all(|w| w[0] < w[1]));
        // Boundary-inclusive on the grid path: a node at exactly 486 m.
        let far = m.register(Position::new(50.0 * 30.0 + 486.0, 0.0), 486.0);
        assert!(m.receivers(ids[50]).contains(&far));
    }

    #[test]
    fn grid_tracks_moves_across_cells() {
        // Past the cutoff; nodes 300 m apart with 100 m range → nobody
        // hears anybody, and each node sits in its own grid cell.
        let (mut m, ids) = medium_with_line(&[100.0; 120], 300.0);
        assert!(m.receivers(ids[0]).is_empty());
        // Move a far node several cells over, next to node 0.
        m.set_position(ids[42], Position::new(50.0, 0.0));
        assert_eq!(m.receivers(ids[0]), vec![ids[42]]);
        assert_eq!(m.receivers(ids[42]), vec![ids[0]]);
        // And away again.
        m.set_position(ids[42], Position::new(-5_000.0, 0.0));
        assert!(m.receivers(ids[0]).is_empty());
    }

    #[test]
    fn grid_tracks_single_axis_moves_across_cell_edges() {
        // Past the cutoff with 486 m ranges, so the grid's cells are 486 m
        // and a cell edge lies at x = 486 and at y = 486.
        let mut m = Medium::new();
        let mut ids: Vec<NodeId> = (0..120)
            .map(|i| m.register(Position::new(f64::from(i) * 30.0 + 243.0, 243.0), 486.0))
            .collect();
        // Witnesses 0.6 m either side of each edge the mover crosses. A
        // query capped at 0.55 m stays in the witness's own cell and
        // reaches the mover 0.1 m across the edge, so it finds the mover
        // only if the grid filed it in its new cell.
        for (x, y) in [(243.0, 485.4), (243.0, 486.6), (485.4, 1_200.0), (486.6, 1_200.0)] {
            ids.push(m.register(Position::new(x, y), 486.0));
        }
        let check = |m: &Medium| {
            for &id in &ids {
                for cap in [486.0, 0.55] {
                    assert_eq!(m.receivers_within(id, cap), m.receivers_within_linear(id, cap));
                }
            }
        };
        let mover = ids[5];
        // Across the row edge and back with x fixed: a lane swerve, the
        // move the Fig 13 driver makes through `World::set_node_position`.
        for y in [485.9, 486.1, 485.9, 486.1] {
            m.set_position(mover, Position::new(243.0, y));
            check(&m);
        }
        // Across the column edge and back with y fixed: a road vehicle's
        // sync.
        for x in [485.9, 486.1, 485.9, 486.1, 3_000.0, 485.9] {
            m.set_position(mover, Position::new(x, 1_200.0));
            check(&m);
        }
        // A removal finds the bucket through the stored key; moved while
        // inactive, the node is filed afresh when it comes back.
        m.set_active(mover, false);
        check(&m);
        m.set_position(mover, Position::new(243.0, 486.1));
        m.set_active(mover, true);
        check(&m);
    }

    #[test]
    fn grid_tracks_activity_toggles() {
        let (mut m, ids) = medium_with_line(&[486.0; 120], 30.0);
        m.set_active(ids[51], false);
        m.set_active(ids[51], false); // idempotent
        let rx = m.receivers(ids[50]);
        assert!(!rx.contains(&ids[51]));
        assert_eq!(rx, m.receivers_within_linear(ids[50], 486.0));
        m.set_active(ids[51], true);
        m.set_active(ids[51], true); // idempotent
        assert!(m.receivers(ids[50]).contains(&ids[51]));
        // An inactive sender hears nothing on the grid path either.
        m.set_active(ids[50], false);
        assert!(m.receivers(ids[50]).is_empty());
    }

    #[test]
    fn receivers_into_reuses_buffer() {
        let (m, ids) = medium_with_line(&[500.0; 4], 400.0);
        let mut buf = vec![NodeId(99)];
        m.receivers_into(ids[1], 500.0, &mut buf);
        assert_eq!(buf, vec![ids[0], ids[2]]);
        // The buffer is cleared even when nobody hears.
        m.receivers_into(ids[0], 100.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn digest_is_index_structure_agnostic() {
        // Medium A: nodes registered directly at their final state.
        let mut a = Medium::new();
        for i in 0..80 {
            let _ = a.register(Position::new(f64::from(i) * 25.0, 5.0), 486.0);
        }
        // Medium B: same logical end state reached via moves, activity
        // toggles, and range growth that forces full grid rebuilds.
        let mut b = Medium::new();
        let ids: Vec<NodeId> =
            (0..80).map(|i| b.register(Position::new(-f64::from(i), -200.0), 50.0)).collect();
        for (i, &id) in ids.iter().enumerate() {
            b.set_active(id, false);
            b.set_position(id, Position::new(i as f64 * 25.0, 5.0));
            b.set_active(id, true);
        }
        for &id in &ids {
            b.set_tx_range(id, 486.0);
        }
        let (mut ha, mut hb) = (StateHasher::new(), StateHasher::new());
        a.digest_into(&mut ha);
        b.digest_into(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // And the two media answer queries identically.
        for id in a.nodes() {
            assert_eq!(a.receivers(id), b.receivers(id));
        }
    }

    proptest! {
        #[test]
        fn prop_receivers_sorted_and_within_range(
            positions in prop::collection::vec((-5_000.0f64..5_000.0, -20.0f64..20.0), 2..40),
            range in 10.0f64..2_000.0)
        {
            let mut m = Medium::new();
            let ids: Vec<NodeId> =
                positions.iter().map(|&(x, y)| m.register(Position::new(x, y), range)).collect();
            let sender = ids[0];
            let rx = m.receivers(sender);
            // Sorted ascending, unique, excludes sender, all within range.
            prop_assert!(rx.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!rx.contains(&sender));
            for &r in &rx {
                prop_assert!(m.position(sender).distance(m.position(r)) <= range + 1e-9);
            }
            // Complement: everyone not in the list is out of range (or the sender).
            for &id in &ids[1..] {
                if !rx.contains(&id) {
                    prop_assert!(m.position(sender).distance(m.position(id)) > range - 1e-9);
                }
            }
        }

        #[test]
        fn prop_cap_monotone(positions in prop::collection::vec((-2_000.0f64..2_000.0, -20.0f64..20.0), 2..30),
                             cap1 in 0.0f64..2_000.0, cap2 in 0.0f64..2_000.0) {
            let mut m = Medium::new();
            let ids: Vec<NodeId> = positions
                .iter()
                .map(|&(x, y)| m.register(Position::new(x, y), 2_000.0))
                .collect();
            let (lo, hi) = if cap1 <= cap2 { (cap1, cap2) } else { (cap2, cap1) };
            let rx_lo = m.receivers_within(ids[0], lo);
            let rx_hi = m.receivers_within(ids[0], hi);
            // A bigger cap can only add receivers.
            for r in &rx_lo {
                prop_assert!(rx_hi.contains(r));
            }
        }

        /// The tentpole equivalence property: after an arbitrary history
        /// of registrations, moves (including across grid cells), activity
        /// toggles and range growth, the grid-indexed query equals the
        /// linear oracle exactly — for every sender and for arbitrary
        /// power caps, on node counts spanning both sides of
        /// [`LINEAR_CUTOFF`], with negative coordinates (west lanes, the
        /// `x = −20` destination). The unordered fan-out, sorted by id,
        /// is the same list, and each of its squared distances gives the
        /// receiver's `propagation_delay`.
        #[test]
        fn prop_grid_matches_linear_oracle(
            positions in prop::collection::vec((-5_000.0f64..5_000.0, -1_000.0f64..1_000.0), 2..160),
            ranges in prop::collection::vec(0.0f64..2_000.0, 2..160),
            moves in prop::collection::vec(
                (0usize..160, -5_000.0f64..5_000.0, -1_000.0f64..1_000.0), 0..40),
            toggles in prop::collection::vec((0usize..160, any::<bool>()), 0..30),
            grow in prop::option::of((0usize..160, 2_000.0f64..3_000.0)),
            later_moves in prop::collection::vec(
                (0usize..160, 0u8..3, -5_000.0f64..5_000.0, -1_000.0f64..1_000.0), 0..40),
            cap in 0.0f64..3_000.0)
        {
            let mut m = Medium::new();
            let mut ids: Vec<NodeId> = positions
                .iter()
                .zip(ranges.iter().cycle())
                .map(|(&(x, y), &r)| m.register(Position::new(x, y), r))
                .collect();
            ids.push(m.register(Position::new(-20.0, 2.5), 486.0));
            ids.push(m.register(Position::new(-20.0, -2.5), 486.0));
            for &(i, x, y) in &moves {
                m.set_position(ids[i % ids.len()], Position::new(x, y));
            }
            for &(i, active) in &toggles {
                m.set_active(ids[i % ids.len()], active);
            }
            if let Some((i, range)) = grow {
                m.set_tx_range(ids[i % ids.len()], range);
            }
            // Moves after a rebuild, which refreshed every stored bucket
            // key: some change x only (the road sync), some y only (a
            // lane swerve), some both.
            for &(i, kind, x, y) in &later_moves {
                let id = ids[i % ids.len()];
                let p = m.position(id);
                let to = match kind {
                    0 => Position::new(x, p.y),
                    1 => Position::new(p.x, y),
                    _ => Position::new(x, y),
                };
                m.set_position(id, to);
            }
            for &sender in &ids {
                let oracle = m.receivers_within_linear(sender, cap);
                prop_assert_eq!(&m.receivers_within(sender, cap), &oracle);
                let mut fanned = Vec::new();
                m.fan_out(sender, cap, |rx, d2| {
                    fanned.push(rx);
                    assert_eq!(
                        SimDuration::from_micros(delay_us(d2)),
                        m.propagation_delay(sender, rx)
                    );
                });
                fanned.sort_unstable();
                prop_assert_eq!(fanned, oracle);
            }
        }
    }
}
