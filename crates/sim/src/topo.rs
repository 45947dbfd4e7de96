//! Spatial & topological observability: connectivity-graph snapshots
//! and their analytics.
//!
//! The paper's evaluation is *spatial* — interception succeeds because
//! the attacker makes itself the effective local maximum of the greedy
//! forwarding gradient, blockage silences a contention neighbourhood —
//! yet the trace/telemetry/audit layers are all *temporal*. This module
//! observes the missing dimension:
//!
//! * **Snapshots.** A [`TopoSnapshot`] captures the radio adjacency
//!   graph at one simulation instant: per-node position, TX range,
//!   attacker flag and greedy-gradient health, with the undirected edge
//!   set derived from a unit-disk rule (two legit nodes link within the
//!   smaller of their ranges; an attacker links within its own elevated
//!   sniff/TX range, mirroring the medium's line-of-sight model).
//!
//! * **Analytics**, computed in plain std Rust at build time: connected
//!   components over the legit relay subgraph (partition count and
//!   largest-component fraction), articulation points and bridges
//!   (iterative Tarjan low-link), per-node degree, greedy local-maximum
//!   detection toward the current destination, and per-attacker
//!   coverage (which legit nodes sit inside its sniff/TX range).
//!
//! * **Recording.** A [`SharedTopo`] (a
//!   [`Timeline`] of snapshots, the same
//!   recorder the audit checkpoints use) accumulates snapshots at a
//!   fixed sim-time interval. Worlds hold it as an `Option`: with no
//!   recorder attached the per-step check is a single branch and no
//!   graph is ever built.
//!
//! * **Artifacts.** The timeline is itself the `.topo.json` artifact
//!   ([`TopoArtifact`] names `Timeline<TopoSnapshot>`; encoded through
//!   [`crate::json`] like every other artifact). Its parser
//!   *recomputes* every derived analytic from the serialized node set
//!   and rejects snapshots whose claimed analytics differ or are
//!   missing — the same trust-but-verify stance as the audit
//!   checkpoints. Snapshots also
//!   render as Graphviz DOT via [`TopoSnapshot::to_dot`].
//!
//! # Example
//!
//! ```
//! use geonet_sim::topo::{shared_topo, TopoNode, TopoSnapshot};
//! use geonet_sim::{SimDuration, SimTime};
//!
//! let topo = shared_topo(SimDuration::from_secs(1));
//! let nodes = vec![
//!     TopoNode::new(0, 0.0, 0.0, 150.0, false),
//!     TopoNode::new(1, 100.0, 0.0, 150.0, false),
//! ];
//! let snap = TopoSnapshot::build(SimTime::from_secs(1), None, nodes);
//! assert_eq!(snap.partitions, 1);
//! topo.borrow_mut().record(snap);
//! assert_eq!(topo.borrow().samples().len(), 1);
//! ```

use crate::json::{self, float};
use crate::time::{SimDuration, SimTime};
use crate::timeline::{shared_timeline, Sample, SharedTimeline, Timeline};

// ---------------------------------------------------------------------
// Nodes and gradient health
// ---------------------------------------------------------------------

/// The health of one node's greedy-forwarding gradient toward the
/// current destination, as classified by the world at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientHealth {
    /// Not evaluated (no destination configured, or the node runs no
    /// router — e.g. the attacker).
    Unknown,
    /// The node's greedy selection yields a next hop that is physically
    /// reachable over the radio graph.
    Healthy,
    /// The node's greedy selection reports no progress: the node is a
    /// local maximum of its *location-table* gradient.
    Stuck,
    /// The node's greedy selection yields a next hop that is *not*
    /// physically reachable — its location table was poisoned (the
    /// replayed-beacon attack) and the frame it unicasts can only be
    /// sniffed by an elevated attacker, never delivered.
    Poisoned,
}

impl GradientHealth {
    /// Every variant, for iteration in tests and exporters.
    pub const ALL: [GradientHealth; 4] = [
        GradientHealth::Unknown,
        GradientHealth::Healthy,
        GradientHealth::Stuck,
        GradientHealth::Poisoned,
    ];

    /// Stable lowercase name used in the artifact encoding.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GradientHealth::Unknown => "unknown",
            GradientHealth::Healthy => "healthy",
            GradientHealth::Stuck => "stuck",
            GradientHealth::Poisoned => "poisoned",
        }
    }

    /// Inverse of [`GradientHealth::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        GradientHealth::ALL.into_iter().find(|g| g.name() == name)
    }
}

/// One node of a connectivity snapshot: position, TX range and the
/// flags the analytics need. Everything derived (edges, components,
/// articulation points, coverage…) is a pure function of the node set,
/// which is what lets the artifact parser verify a snapshot's claimed
/// analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoNode {
    /// The node's id (the radio medium's `NodeId` value).
    pub id: u32,
    /// X coordinate in metres (longitudinal road position).
    pub x: f64,
    /// Y coordinate in metres (lane offset).
    pub y: f64,
    /// TX range in metres — the attacker's is its elevated sniff/TX
    /// range.
    pub range: f64,
    /// Whether this node is an attacker (elevated line-of-sight link
    /// rule, excluded from the relay subgraph).
    pub attacker: bool,
    /// Greedy-gradient health toward the snapshot destination.
    pub gradient: GradientHealth,
}

impl TopoNode {
    /// A node with an unevaluated gradient.
    #[must_use]
    pub fn new(id: u32, x: f64, y: f64, range: f64, attacker: bool) -> Self {
        TopoNode { id, x, y, range, attacker, gradient: GradientHealth::Unknown }
    }

    /// Sets the gradient classification (builder style).
    #[must_use]
    pub fn with_gradient(mut self, gradient: GradientHealth) -> Self {
        self.gradient = gradient;
        self
    }

    fn distance(&self, other: &TopoNode) -> f64 {
        let (dx, dy) = (self.x - other.x, self.y - other.y);
        (dx * dx + dy * dy).sqrt()
    }
}

/// The undirected link range between two nodes: two peers of the same
/// kind link within the smaller of their ranges (a bidirectional
/// unit-disk link); a legit–attacker pair links within the *attacker's*
/// range — the attacker both sniffs and transmits over its elevated
/// line-of-sight link, exactly the medium's special case.
fn link_range(a: &TopoNode, b: &TopoNode) -> f64 {
    if a.attacker == b.attacker {
        a.range.min(b.range)
    } else if a.attacker {
        a.range
    } else {
        b.range
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One attacker's coverage within a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackerCoverage {
    /// The attacker's node id.
    pub id: u32,
    /// Ids of the legit nodes within its sniff/TX range, ascending.
    pub covered: Vec<u32>,
    /// `covered.len()` over the number of legit nodes (0 when there are
    /// none).
    pub fraction: f64,
}

/// The radio adjacency graph at one simulation instant, with its
/// derived analytics. Build one with [`TopoSnapshot::build`]; the
/// derived fields are a pure function of `(at, dest, nodes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSnapshot {
    /// Simulation time of the sample.
    pub at: SimTime,
    /// The destination the gradient analytics point toward, if any.
    pub dest: Option<(f64, f64)>,
    /// The node set, ascending by id.
    pub nodes: Vec<TopoNode>,
    /// Undirected edges as `(low id, high id)` pairs, ascending.
    pub edges: Vec<(u32, u32)>,
    /// Connected components of the *legit* relay subgraph (the attacker
    /// never relays, so connectivity through it is illusory).
    pub partitions: usize,
    /// Fraction of legit nodes in the largest component (0 when there
    /// are no legit nodes).
    pub largest_fraction: f64,
    /// Articulation points of the legit relay subgraph, ascending.
    pub articulation: Vec<u32>,
    /// Bridges of the legit relay subgraph as `(low id, high id)`
    /// pairs, ascending.
    pub bridges: Vec<(u32, u32)>,
    /// Nodes that are greedy local maxima toward `dest`: no graph
    /// neighbour is strictly closer to the destination. Empty when
    /// `dest` is `None`.
    pub local_max: Vec<u32>,
    /// Per-attacker coverage, ascending by attacker id.
    pub coverage: Vec<AttackerCoverage>,
}

impl TopoSnapshot {
    /// Builds a snapshot and computes every derived analytic.
    ///
    /// # Panics
    ///
    /// Panics if two nodes share an id or a coordinate/range is not
    /// finite.
    #[must_use]
    pub fn build(at: SimTime, dest: Option<(f64, f64)>, mut nodes: Vec<TopoNode>) -> Self {
        nodes.sort_by_key(|n| n.id);
        for n in &nodes {
            assert!(
                n.x.is_finite() && n.y.is_finite() && n.range.is_finite(),
                "node {} has a non-finite coordinate or range",
                n.id
            );
        }
        assert!(nodes.windows(2).all(|w| w[0].id != w[1].id), "duplicate node id");
        if let Some((dx, dy)) = dest {
            assert!(dx.is_finite() && dy.is_finite(), "destination must be finite");
        }

        // Adjacency by index, O(n²) pairwise unit-disk test.
        let n = nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if nodes[i].distance(&nodes[j]) <= link_range(&nodes[i], &nodes[j]) {
                    adj[i].push(j);
                    adj[j].push(i);
                    edges.push((nodes[i].id, nodes[j].id));
                }
            }
        }

        // Components over the legit relay subgraph.
        let legit: Vec<usize> = (0..n).filter(|&i| !nodes[i].attacker).collect();
        let legit_adj = |i: usize| adj[i].iter().copied().filter(|&j| !nodes[j].attacker);
        let mut component = vec![usize::MAX; n];
        let mut partitions = 0usize;
        let mut largest = 0usize;
        for &start in &legit {
            if component[start] != usize::MAX {
                continue;
            }
            let mut size = 0usize;
            let mut queue = vec![start];
            component[start] = partitions;
            while let Some(v) = queue.pop() {
                size += 1;
                for w in legit_adj(v) {
                    if component[w] == usize::MAX {
                        component[w] = partitions;
                        queue.push(w);
                    }
                }
            }
            largest = largest.max(size);
            partitions += 1;
        }
        let largest_fraction =
            if legit.is_empty() { 0.0 } else { largest as f64 / legit.len() as f64 };

        let (articulation, bridges) = articulation_and_bridges(&nodes, &adj);

        // Greedy local maxima toward the destination, over the full
        // graph (the attacker is somebody's neighbour physically).
        let mut local_max = Vec::new();
        if let Some((dx, dy)) = dest {
            let dist_to_dest = |i: usize| {
                let (ex, ey) = (nodes[i].x - dx, nodes[i].y - dy);
                (ex * ex + ey * ey).sqrt()
            };
            for i in 0..n {
                let own = dist_to_dest(i);
                if adj[i].iter().all(|&j| dist_to_dest(j) >= own) {
                    local_max.push(nodes[i].id);
                }
            }
        }

        // Per-attacker coverage of legit nodes.
        let mut coverage = Vec::new();
        for i in 0..n {
            if !nodes[i].attacker {
                continue;
            }
            let covered: Vec<u32> = legit
                .iter()
                .filter(|&&j| nodes[i].distance(&nodes[j]) <= nodes[i].range)
                .map(|&j| nodes[j].id)
                .collect();
            let fraction =
                if legit.is_empty() { 0.0 } else { covered.len() as f64 / legit.len() as f64 };
            coverage.push(AttackerCoverage { id: nodes[i].id, covered, fraction });
        }

        TopoSnapshot {
            at,
            dest,
            nodes,
            edges,
            partitions,
            largest_fraction,
            articulation,
            bridges,
            local_max,
            coverage,
        }
    }

    /// The degree of node `id` (0 if absent).
    #[must_use]
    pub fn degree(&self, id: u32) -> usize {
        self.edges.iter().filter(|&&(a, b)| a == id || b == id).count()
    }

    /// The node with the given id, if present.
    #[must_use]
    pub fn node(&self, id: u32) -> Option<&TopoNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Ids of nodes whose gradient was classified `health`.
    #[must_use]
    pub fn nodes_with_gradient(&self, health: GradientHealth) -> Vec<u32> {
        self.nodes.iter().filter(|n| n.gradient == health).map(|n| n.id).collect()
    }

    /// Renders the snapshot as a Graphviz DOT graph: attackers are red
    /// boxes, articulation points orange, everything positioned at its
    /// road coordinates. Deterministic — nodes and edges in ascending
    /// order.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph topo {\n");
        let _ = writeln!(
            out,
            "  label=\"t={}us partitions={} largest={}\";",
            self.at.as_micros(),
            self.partitions,
            float(self.largest_fraction)
        );
        for n in &self.nodes {
            let mut attrs = format!("pos=\"{},{}!\"", float(n.x), float(n.y));
            if n.attacker {
                attrs.push_str(",shape=box,color=red");
            } else if self.articulation.contains(&n.id) {
                attrs.push_str(",color=orange");
            }
            if n.gradient != GradientHealth::Unknown {
                let _ = write!(attrs, ",grad={}", n.gradient.name());
            }
            let _ = writeln!(out, "  n{} [{attrs}];", n.id);
        }
        for &(a, b) in &self.edges {
            let _ = writeln!(out, "  n{a} -- n{b};");
        }
        out.push_str("}\n");
        out
    }
}

/// Articulation points and bridges of the legit relay subgraph, via an
/// iterative Tarjan low-link DFS (a 400-node road chain would overflow
/// the stack recursively).
fn articulation_and_bridges(nodes: &[TopoNode], adj: &[Vec<usize>]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = nodes.len();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut parent = vec![usize::MAX; n];
    let mut is_art = vec![false; n];
    let mut bridges = Vec::new();
    let mut timer = 0usize;
    for root in 0..n {
        if nodes[root].attacker || disc[root] != usize::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;
        // (vertex, next child index to visit)
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(top) = stack.last_mut() {
            let v = top.0;
            if top.1 < adj[v].len() {
                let to = adj[v][top.1];
                top.1 += 1;
                if nodes[to].attacker || to == parent[v] {
                    continue;
                }
                if disc[to] == usize::MAX {
                    parent[to] = v;
                    disc[to] = timer;
                    low[to] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((to, 0));
                } else {
                    low[v] = low[v].min(disc[to]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[v]);
                    if low[v] >= disc[p] && p != root {
                        is_art[p] = true;
                    }
                    if low[v] > disc[p] {
                        let (a, b) = (nodes[p].id, nodes[v].id);
                        bridges.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        if root_children > 1 {
            is_art[root] = true;
        }
    }
    let articulation: Vec<u32> = (0..n).filter(|&i| is_art[i]).map(|i| nodes[i].id).collect();
    bridges.sort_unstable();
    (articulation, bridges)
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

impl Sample for TopoSnapshot {
    const ITEMS: &'static str = "snapshots";

    fn at(&self) -> SimTime {
        self.at
    }

    fn write_item(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"t_us\":{},\"dest\":", self.at.as_micros());
        match self.dest {
            Some((x, y)) => {
                let _ = write!(out, "[{},{}]", float(x), float(y));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"x\":{},\"y\":{},\"range\":{},\"attacker\":{},\"grad\":\"{}\"}}",
                n.id,
                float(n.x),
                float(n.y),
                float(n.range),
                n.attacker,
                n.gradient.name()
            );
        }
        out.push_str("],\"derived\":");
        self.write_derived(out);
        out.push('}');
    }

    /// Decodes one snapshot from its `t_us`, `dest` and `nodes`,
    /// rebuilds every analytic from the node set and requires the
    /// claimed `derived` object to equal the rebuilt one's encoding
    /// (trust but verify, like the audit checkpoints' combined hashes).
    fn parse_item(value: &json::Value) -> Result<Self, String> {
        value.only_keys("snapshot", &["t_us", "dest", "nodes", "derived"])?;
        let at = SimTime::from_micros(value.get("t_us")?.as_u64("t_us")?);
        let dest = match value.get("dest")? {
            json::Value::Null => None,
            pair => match pair.as_array("dest")? {
                [x, y] => Some((x.as_f64("dest x")?, y.as_f64("dest y")?)),
                _ => return Err("dest is not an [x,y] pair".into()),
            },
        };
        let nodes = value.get("nodes")?.as_array("nodes")?.iter().map(parse_node);
        let rebuilt = TopoSnapshot::build(at, dest, nodes.collect::<Result<_, _>>()?);
        let claimed = value.get("derived")?;
        let mut encoded = String::new();
        rebuilt.write_derived(&mut encoded);
        let actual = json::parse(&encoded)?;
        if claimed != &actual {
            let keys = actual.as_object("derived")?.iter().chain(claimed.as_object("derived")?);
            let key = keys.map(|(k, _)| k).find(|k| claimed.field(k) != actual.field(k));
            return Err(format!(
                "snapshot at {} µs: derived {} does not match the recomputed analytics",
                at.as_micros(),
                key.map_or("key order".to_string(), |k| format!("{k:?}"))
            ));
        }
        Ok(rebuilt)
    }
}

impl TopoSnapshot {
    /// Appends the derived analytics as one JSON object.
    fn write_derived(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"partitions\":{},\"largest_fraction\":{},\"articulation\":",
            self.partitions,
            float(self.largest_fraction)
        );
        write_id_list(out, &self.articulation);
        out.push_str(",\"bridges\":[");
        for (i, &(a, b)) in self.bridges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{a},{b}]");
        }
        out.push_str("],\"local_max\":");
        write_id_list(out, &self.local_max);
        out.push_str(",\"coverage\":[");
        for (i, c) in self.coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "{{\"id\":{},\"fraction\":{},\"covered\":", c.id, float(c.fraction));
            write_id_list(out, &c.covered);
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// A shared snapshot timeline handed to a world via `set_topo_observer`.
pub type SharedTopo = SharedTimeline<TopoSnapshot>;

/// Creates a [`SharedTopo`] sampling every `interval`.
#[must_use]
pub fn shared_topo(interval: SimDuration) -> SharedTopo {
    shared_timeline(interval)
}

/// A snapshot timeline is its own `.topo.json` artifact: run metadata,
/// sampling interval and the snapshot sequence, written by
/// [`Timeline::to_json`]. Parsing recomputes every derived analytic
/// from each snapshot's node set and rejects snapshots whose claimed
/// analytics differ or are missing.
pub type TopoArtifact = Timeline<TopoSnapshot>;

fn write_id_list(out: &mut String, ids: &[u32]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
}

fn parse_node(value: &json::Value) -> Result<TopoNode, String> {
    value.only_keys("node", &["id", "x", "y", "range", "attacker", "grad"])?;
    let grad = value.get("grad")?.as_str("grad")?;
    Ok(TopoNode {
        id: value.get("id")?.as_int("node id")?,
        x: value.get("x")?.as_f64("node x")?,
        y: value.get("y")?.as_f64("node y")?,
        range: value.get("range")?.as_f64("node range")?,
        attacker: value.get("attacker")?.as_bool("attacker")?,
        gradient: GradientHealth::from_name(grad)
            .ok_or_else(|| format!("unknown gradient {grad:?}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A legit road node at `(x, 0)` with a 150 m range.
    fn road(id: u32, x: f64) -> TopoNode {
        TopoNode::new(id, x, 0.0, 150.0, false)
    }

    #[test]
    fn gradient_names_round_trip() {
        for g in GradientHealth::ALL {
            assert_eq!(GradientHealth::from_name(g.name()), Some(g));
        }
        assert_eq!(GradientHealth::from_name("bogus"), None);
    }

    #[test]
    fn chain_has_interior_articulation_points_and_all_bridges() {
        // 0 -- 1 -- 2 -- 3 (100 m spacing, 150 m range: only adjacent
        // nodes link).
        let s = TopoSnapshot::build(
            SimTime::from_secs(1),
            None,
            vec![road(0, 0.0), road(1, 100.0), road(2, 200.0), road(3, 300.0)],
        );
        assert_eq!(s.edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.partitions, 1);
        assert_eq!(s.largest_fraction, 1.0);
        assert_eq!(s.articulation, vec![1, 2]);
        assert_eq!(s.bridges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.degree(1), 2);
        assert_eq!(s.degree(0), 1);
    }

    #[test]
    fn triangle_has_no_articulation_or_bridges() {
        let s = TopoSnapshot::build(
            SimTime::from_secs(1),
            None,
            vec![road(0, 0.0), road(1, 100.0), TopoNode::new(2, 50.0, 50.0, 150.0, false)],
        );
        assert_eq!(s.partitions, 1);
        assert!(s.articulation.is_empty());
        assert!(s.bridges.is_empty());
    }

    #[test]
    fn gap_partitions_the_relay_graph() {
        // Two clusters 1000 m apart.
        let s = TopoSnapshot::build(
            SimTime::from_secs(1),
            None,
            vec![road(0, 0.0), road(1, 100.0), road(2, 1100.0), road(3, 1200.0), road(4, 1300.0)],
        );
        assert_eq!(s.partitions, 2);
        assert_eq!(s.largest_fraction, 3.0 / 5.0);
    }

    #[test]
    fn attacker_does_not_heal_a_partition_but_links_by_its_own_range() {
        // Legit nodes at 0 and 600 cannot reach each other (150 m), but
        // a 400 m attacker at 350 links to both — partitions must still
        // count 2 because the attacker never relays.
        let s = TopoSnapshot::build(
            SimTime::from_secs(1),
            None,
            vec![road(0, 0.0), road(1, 600.0), TopoNode::new(9, 350.0, 0.0, 400.0, true)],
        );
        assert_eq!(s.edges, vec![(0, 9), (1, 9)]);
        assert_eq!(s.partitions, 2);
        assert_eq!(s.coverage.len(), 1);
        assert_eq!(s.coverage[0].id, 9);
        assert_eq!(s.coverage[0].covered, vec![0, 1]);
        assert_eq!(s.coverage[0].fraction, 1.0);
    }

    #[test]
    fn legit_pair_links_within_the_smaller_range() {
        let a = TopoNode::new(0, 0.0, 0.0, 500.0, false);
        let b = TopoNode::new(1, 300.0, 0.0, 150.0, false);
        let s = TopoSnapshot::build(SimTime::from_secs(1), None, vec![a, b]);
        assert!(s.edges.is_empty(), "300 m > min(500, 150)");
    }

    #[test]
    fn local_maxima_point_toward_the_destination() {
        // Chain toward a destination far east: only the easternmost
        // node (and an isolated straggler) are local maxima.
        let s = TopoSnapshot::build(
            SimTime::from_secs(1),
            Some((4020.0, 0.0)),
            vec![road(0, 0.0), road(1, 100.0), road(2, 200.0), road(3, 2000.0)],
        );
        assert_eq!(s.local_max, vec![2, 3]);
        let no_dest =
            TopoSnapshot::build(SimTime::from_secs(1), None, vec![road(0, 0.0), road(1, 100.0)]);
        assert!(no_dest.local_max.is_empty());
    }

    #[test]
    fn empty_snapshot_is_well_defined() {
        let s = TopoSnapshot::build(SimTime::ZERO, None, Vec::new());
        assert_eq!(s.partitions, 0);
        assert_eq!(s.largest_fraction, 0.0);
        assert!(s.edges.is_empty());
    }

    fn artifact() -> TopoArtifact {
        let mut rec = Timeline::new(SimDuration::from_secs(1));
        rec.set_meta("seed", "42");
        rec.set_meta("scenario", "interception");
        rec.record(TopoSnapshot::build(
            SimTime::ZERO,
            Some((4020.0, 0.0)),
            vec![
                road(0, 0.0),
                road(1, 100.0),
                road(2, 200.0).with_gradient(GradientHealth::Poisoned),
                TopoNode::new(9, 350.0, -12.0, 400.0, true),
            ],
        ));
        rec.record(TopoSnapshot::build(
            SimTime::from_secs(1),
            Some((4020.0, 0.0)),
            vec![road(0, 30.0), road(1, 130.0).with_gradient(GradientHealth::Healthy)],
        ));
        rec
    }

    #[test]
    fn artifact_json_roundtrip() {
        let a = artifact();
        let text = a.to_json();
        let parsed = TopoArtifact::from_json(&text).expect("own output parses");
        assert_eq!(parsed, a);
        // Determinism of the encoding itself.
        assert_eq!(text, parsed.to_json());
    }

    #[test]
    fn artifact_rejects_tampered_analytics() {
        let text = artifact().to_json();
        let tampered = text.replacen("\"partitions\":1", "\"partitions\":2", 1);
        let err = TopoArtifact::from_json(&tampered).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
    }

    #[test]
    fn artifact_rejects_tampered_coverage() {
        let text = artifact().to_json();
        assert!(text.contains("\"coverage\":[{\"id\":9"), "fixture lost its attacker");
        let tampered = text.replacen("\"fraction\":1.0", "\"fraction\":0.5", 1);
        let err = TopoArtifact::from_json(&tampered).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
    }

    #[test]
    fn gradient_classification_survives_the_artifact() {
        let text = artifact().to_json();
        let parsed = TopoArtifact::from_json(&text).expect("parses");
        assert_eq!(parsed.samples()[0].nodes_with_gradient(GradientHealth::Poisoned), vec![2]);
    }

    #[test]
    fn artifact_rejects_missing_derived_fields() {
        let text = artifact().to_json();
        let first = text.find("\"derived\":{").expect("fixture has derived analytics");
        let end = first + text[first..].find("]}}").expect("derived ends the snapshot") + 2;
        let emptied = format!("{}\"derived\":{{}}{}", &text[..first], &text[end..]);
        let err = TopoArtifact::from_json(&emptied).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
        let no_articulation = text.replacen("\"articulation\":[1],", "", 1);
        assert_ne!(no_articulation, text, "fixture lost its articulation point");
        let err = TopoArtifact::from_json(&no_articulation).unwrap_err();
        assert!(err.contains("derived \"articulation\" does not match"), "got: {err}");
    }

    #[test]
    fn dot_export_is_deterministic_and_complete() {
        let a = artifact();
        let s = &a.samples()[0];
        let dot = s.to_dot();
        assert_eq!(dot, s.to_dot());
        assert!(dot.starts_with("graph topo {"));
        for n in &s.nodes {
            assert!(dot.contains(&format!("n{} [", n.id)), "missing node {} in {dot}", n.id);
        }
        for (a, b) in &s.edges {
            assert!(dot.contains(&format!("n{a} -- n{b};")));
        }
        assert!(dot.contains("shape=box,color=red"), "attacker not highlighted");
        assert!(dot.contains("grad=poisoned"));
    }
}
