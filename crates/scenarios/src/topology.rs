//! Topology-instrumented scenario runners.
//!
//! [`run`] wraps either family's workload ([`Family::drive`]) with the
//! full spatial observability stack: a
//! [`geonet_sim::topo`] recorder snapshotting the connectivity graph at
//! a fixed interval, a [`RoadHeatmap`] fed from the run's trace stream,
//! and per-packet fate tracking (origin, delivery, last forwarding
//! hop). An attacker-free/attacked pair of [`TopologyRun`]s correlates
//! into interception attribution ([`correlate_interception`]) and,
//! through [`crate::heatmap::BlastRadiusReport`], the attack's spatial
//! footprint.
//!
//! The trace stream is drained once per simulated second; node
//! positions for binning are resolved at drain time, so an event's
//! position is at most one second of vehicle movement (≈ 30 m) stale —
//! well inside the default 100 m bin.

use crate::campaign::{outcomes_to_bins, Family, PacketOutcome, Sent};
use crate::config::ScenarioConfig;
use crate::heatmap::RoadHeatmap;
use crate::world::World;
use geonet::PacketKey;
use geonet_geo::Position;
use geonet_radio::NodeId;
use geonet_sim::{
    shared_topo, SharedSink, SharedTopo, SimDuration, SimTime, TimeBins, Timeline, TopoArtifact,
    TraceEvent, VecSink,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The default connectivity-snapshot interval — one graph per paper
/// time bin.
pub const DEFAULT_SNAPSHOT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// A packet counts as delivered when it reached at least this fraction
/// of its audience: for an interception packet, its one destination; for
/// a blockage flood, the vehicles on the road at generation time.
const DELIVERED_THRESHOLD: f64 = 0.95;

/// One packet's spatial fate within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFate {
    /// The packet.
    pub key: PacketKey,
    /// Generation time.
    pub generated_at: SimTime,
    /// Longitudinal position of the source at generation time.
    pub origin_x: f64,
    /// Whether the packet reached at least 95 % of its audience
    /// (destination reception for interception runs).
    pub delivered: bool,
    /// Longitudinal position of the last node that made a forwarding
    /// decision for this packet (the origin, until someone forwards).
    pub last_hop_x: f64,
    /// When that last forwarding decision happened.
    pub last_hop_at: SimTime,
    /// Whether that node sat inside the attacker's coverage at the
    /// time (always `false` in attacker-free runs).
    pub last_hop_in_coverage: bool,
}

/// Everything one topology-instrumented run produces.
#[derive(Debug, Clone)]
pub struct TopologyRun {
    /// The scenario's usual 5 s reception bins.
    pub bins: TimeBins,
    /// The connectivity-snapshot timeline.
    pub topo: TopoArtifact,
    /// The road-binned outcome grid.
    pub heatmap: RoadHeatmap,
    /// Per-packet fates, in generation order.
    pub packets: Vec<PacketFate>,
}

/// Whether the attacker's coverage disk contains `pos` at time `at`
/// (accounts for the mobile-attacker extension).
fn attacker_covers(cfg: &ScenarioConfig, pos: Position, at: SimTime) -> bool {
    let ax = cfg.attacker_position.x + cfg.attacker_velocity * at.as_secs_f64();
    let dx = pos.x - ax;
    let dy = pos.y - cfg.attacker_position.y;
    (dx * dx + dy * dy).sqrt() <= cfg.attack_range
}

/// The instrumentation of one run: the trace stream drained
/// incrementally into the heatmap and the per-packet fates, plus the
/// connectivity-snapshot timeline.
struct Instrument {
    sink: Rc<RefCell<VecSink>>,
    topo: SharedTopo,
    heatmap: RoadHeatmap,
    attacker_addr: Option<u64>,
    attacked: bool,
    index: BTreeMap<(u64, u16), usize>,
    packets: Vec<PacketFate>,
}

impl Instrument {
    /// Attaches a trace sink and a snapshot timeline to `w`, both
    /// stamped with the run's parameters.
    fn attach(
        cfg: &ScenarioConfig,
        w: &mut World,
        scenario: &str,
        attacked: bool,
        seed: u64,
        interval: SimDuration,
    ) -> Self {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        w.set_trace_sink(sink.clone() as SharedSink);
        let topo = shared_topo(interval);
        w.set_topo_observer(topo.clone());
        let mut heatmap = RoadHeatmap::new(cfg.road.length, cfg.duration);
        let meta = [
            ("scenario", scenario.to_string()),
            ("seed", seed.to_string()),
            ("attacked", attacked.to_string()),
            ("attack_range_m", format!("{:.1}", cfg.attack_range)),
            ("v2v_range_m", format!("{:.1}", cfg.v2v_range)),
        ];
        for (key, value) in meta {
            topo.borrow_mut().set_meta(key, value.clone());
            heatmap.set_meta(key, value);
        }
        Instrument {
            sink,
            topo,
            heatmap,
            attacker_addr: w.attacker_address(),
            attacked,
            index: BTreeMap::new(),
            packets: Vec::new(),
        }
    }

    /// Starts tracking the packets sent since the last drain, then
    /// drains the trace stream: forwarding decisions move a packet's
    /// last hop, drops and CBF cancellations land in the heatmap.
    fn drain(&mut self, cfg: &ScenarioConfig, w: &World, sent: &[Sent]) {
        for &Sent { key, at, origin, .. } in &sent[self.packets.len()..] {
            self.index.insert((key.source.to_u64(), key.sn.0), self.packets.len());
            self.packets.push(PacketFate {
                key,
                generated_at: at,
                origin_x: origin.x,
                delivered: false,
                last_hop_x: origin.x,
                last_hop_at: at,
                last_hop_in_coverage: self.attacked && attacker_covers(cfg, origin, at),
            });
        }
        let records = self.sink.borrow_mut().drain();
        for rec in records {
            match &rec.event {
                TraceEvent::GfNextHop { packet, .. }
                | TraceEvent::CbfFired { packet }
                | TraceEvent::GfFallback { packet } => {
                    if let Some(&i) = self.index.get(&(packet.source, packet.sn)) {
                        let pos = w.node_position(NodeId(rec.node));
                        let p = &mut self.packets[i];
                        p.last_hop_x = pos.x;
                        p.last_hop_at = rec.at;
                        p.last_hop_in_coverage = self.attacked && attacker_covers(cfg, pos, rec.at);
                    }
                }
                TraceEvent::Dropped { .. } | TraceEvent::CbfCancelled { .. } => {
                    let x = w.node_position(NodeId(rec.node)).x;
                    self.heatmap.record_event(x, rec.at, &rec.event, self.attacker_addr);
                }
                _ => {}
            }
        }
    }

    /// Settles each tracked packet's delivery, in generation order, and
    /// collects the run's artifacts.
    fn finish(self, bins: TimeBins, delivered: impl Iterator<Item = bool>) -> TopologyRun {
        let Instrument { topo, mut heatmap, mut packets, .. } = self;
        for (p, delivered) in packets.iter_mut().zip(delivered) {
            p.delivered = delivered;
            heatmap.record_packet(p.origin_x, p.generated_at, delivered);
        }
        // The world still holds the recorder; leave it an empty one.
        let interval = topo.borrow().interval();
        let topo = topo.replace(Timeline::new(interval));
        TopologyRun { bins, topo, heatmap, packets }
    }
}

/// Runs one family's workload ([`Family::drive`]) with full topology
/// instrumentation. Interception snapshot gradients are graded toward
/// the east destination — the direction the paper's Figure 6 analysis
/// follows; a flood has no destination, so blockage snapshots carry
/// connectivity and coverage analytics only.
#[must_use]
pub fn run(
    family: Family,
    cfg: &ScenarioConfig,
    attacked: bool,
    seed: u64,
    interval: SimDuration,
) -> TopologyRun {
    let mut w = family.world(cfg, attacked, seed);
    let mut inst = Instrument::attach(cfg, &mut w, family.name(), attacked, seed, interval);
    if family == Family::Interception {
        w.set_topo_destination(Position::new(cfg.road.length + 20.0, 0.0));
    }
    let sent = family.drive(cfg, &mut w, |w, sent| inst.drain(cfg, w, sent));
    inst.drain(cfg, &w, &sent);
    let outcomes: Vec<PacketOutcome> = sent.iter().map(|s| s.outcome(&w)).collect();
    let bins = outcomes_to_bins(&outcomes, cfg.duration);
    inst.finish(bins, outcomes.iter().map(|o| o.rate() >= DELIVERED_THRESHOLD))
}

/// Correlates an attacker-free/attacked pair of same-seed runs into
/// interception attribution: a packet counts as *intercepted* when it
/// was delivered attacker-free but not under attack. Each intercepted
/// packet is recorded into the attacked heatmap at its last forwarding
/// hop, and the totals — alongside how many of those last hops sat
/// inside the attacker's coverage — are stamped into the attacked
/// heatmap's metadata (`intercepted_total`, `last_hop_in_coverage`) so
/// a serialized artifact carries them.
///
/// Returns `(intercepted, last_hop_in_coverage)`.
pub fn correlate_interception(af: &TopologyRun, atk: &mut TopologyRun) -> (u64, u64) {
    let delivered_af: BTreeSet<(u64, u16)> = af
        .packets
        .iter()
        .filter(|p| p.delivered)
        .map(|p| (p.key.source.to_u64(), p.key.sn.0))
        .collect();
    let mut intercepted = 0u64;
    let mut in_coverage = 0u64;
    for p in &atk.packets {
        if p.delivered || !delivered_af.contains(&(p.key.source.to_u64(), p.key.sn.0)) {
            continue;
        }
        intercepted += 1;
        atk.heatmap.record_intercepted(p.last_hop_x, p.last_hop_at);
        if p.last_hop_in_coverage {
            in_coverage += 1;
        }
    }
    atk.heatmap.set_meta("intercepted_total", intercepted.to_string());
    atk.heatmap.set_meta("last_hop_in_coverage", in_coverage.to_string());
    (intercepted, in_coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(range: f64) -> ScenarioConfig {
        ScenarioConfig::paper_dsrc_default()
            .with_attack_range(range)
            .with_duration(SimDuration::from_secs(30))
    }

    #[test]
    fn interarea_run_collects_all_artifacts() {
        let cfg = short(486.0);
        let run = run(Family::Interception, &cfg, true, 31, SimDuration::from_secs(5));
        assert!(!run.packets.is_empty());
        assert!(run.topo.samples().len() >= 5, "{} snapshots", run.topo.samples().len());
        assert_eq!(run.topo.meta().get("scenario").unwrap(), "interarea");
        assert!(run.heatmap.totals().generated > 0);
        // Forwarding moved at least one packet's last hop off its origin.
        assert!(run.packets.iter().any(|p| (p.last_hop_x - p.origin_x).abs() > 50.0));
        // Snapshots carry the attacker and graded gradients.
        let s = run.topo.samples().last().unwrap();
        assert_eq!(s.coverage.len(), 1);
        assert!(s.dest.is_some());
    }

    #[test]
    fn correlate_attributes_interception_to_coverage() {
        let cfg = short(486.0);
        let af = run(Family::Interception, &cfg, false, 33, SimDuration::from_secs(5));
        let mut atk = run(Family::Interception, &cfg, true, 33, SimDuration::from_secs(5));
        let (intercepted, in_cov) = correlate_interception(&af, &mut atk);
        assert!(intercepted > 0, "attack intercepted nothing");
        assert!(in_cov as f64 >= 0.9 * intercepted as f64, "{in_cov}/{intercepted} in coverage");
        assert_eq!(atk.heatmap.meta().get("intercepted_total").unwrap(), &intercepted.to_string());
        assert_eq!(atk.heatmap.totals().intercepted, intercepted);
    }

    #[test]
    fn blockage_run_localizes_suppression_at_the_attacker() {
        let cfg = short(500.0);
        let run = run(Family::Blockage, &cfg, true, 35, SimDuration::from_secs(5));
        assert!(!run.packets.is_empty());
        // The attacker-attributed CBF suppressions concentrate inside
        // its coverage around x = 2000.
        let mut best = (0u64, 0.0f64);
        for xi in 0..run.heatmap.x_bins() {
            let c = run.heatmap.column(xi);
            if c.cbf_by_attacker > best.0 {
                best = (c.cbf_by_attacker, run.heatmap.x_range(xi).0);
            }
        }
        assert!(best.0 > 0, "no suppression attributed to the attacker");
        assert!(
            (best.1 - cfg.attacker_position.x).abs() <= cfg.attack_range,
            "hottest suppression bin at {} m, attacker at {} m",
            best.1,
            cfg.attacker_position.x
        );
    }
}
