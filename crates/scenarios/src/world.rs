//! The deterministic discrete-event world binding all substrates.

use crate::ahead::{Ahead, MobilityStats};
use crate::beacon_log::{BeaconLog, BeaconLogStats, Fold, Key, LazyRouter, MAX_OFFSET_US};
use crate::config::{AttackerSetup, ScenarioConfig};
use geonet::wire::Extended;
use geonet::{
    CertificateAuthority, Frame, GfDecision, GnAddress, GnRouter, OnAir, PacketKey, RouterAction,
};
use geonet_attack::{Attacker, Strategy};
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_radio::{delay_us, DelayTable, Medium, NodeId};
use geonet_sim::{
    Checkpoint, GradientHealth, Kernel, PacketRef, SharedAuditor, SharedRegistry, SharedSink,
    SharedTopo, SimDuration, SimRng, SimTime, StateHasher, Telemetry, TopoNode, TopoSnapshot,
    TraceEvent, Tracer, UnorderedDigest,
};
use geonet_traffic::{Direction, StepOutput, TrafficSim, VehicleId};
use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::OnceLock;

/// What a radio node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A vehicle driven by the traffic simulation.
    Vehicle(VehicleId),
    /// A legitimate node outside the traffic simulation (destination
    /// receiver, roadside unit): it stays where it was added unless the
    /// driver moves it with [`World::set_node_position`].
    Static,
    /// The attacker's sniffer/transmitter.
    Attacker,
}

/// Events driving the world.
///
/// Kept small (at most 40 bytes) because the kernel's heap moves events
/// on every push and pop: a frame travels as one shared [`Transmission`],
/// or boxed while the attacker holds it.
#[derive(Debug, Clone)]
enum Ev {
    /// Advance the traffic simulation one step.
    TrafficStep,
    /// A node's beacon is due.
    Beacon(NodeId),
    /// A transmission reaches every receiver whose arrival time is now.
    Deliver(Rc<Transmission>),
    /// A CBF contention timer fires.
    CbfTimer { node: NodeId, key: PacketKey, generation: u64 },
    /// The attacker's replay leaves its transmitter.
    AttackerTx { frame: Box<Frame>, cap: Option<f64> },
    /// A greedy unicast's link-layer acknowledgement window elapsed
    /// without an ACK (only with the link-ack extension).
    AckTimeout { node: NodeId, key: PacketKey },
    /// A forwarding-buffer recheck is due (buffer-retry policy).
    GfRetry { node: NodeId, key: PacketKey },
}

/// One frame on the air and everyone it reaches as events: a data frame's
/// receivers, the attacker hearing a beacon, and every receiver of a
/// beacon whose range is too long for the beacon log.
///
/// A transmission with `n` receivers reserves `n` consecutive kernel
/// sequence numbers, `first_seq + i` for `arrivals[i]`, exactly the
/// numbers `n` back-to-back per-receiver pushes would have taken. It then
/// queues one [`Ev::Deliver`] per distinct arrival time, under the number
/// of that time's first receiver. No other event holds a number inside the
/// block, so each batch pops where its first receiver's delivery would
/// have, and the rest of that microsecond's receivers would have followed
/// it immediately: delivering them in one loop keeps the history intact.
#[derive(Debug)]
struct Transmission {
    on_air: OnAir,
    first_seq: u64,
    /// Receivers in sequence-number order, with their arrival times.
    arrivals: Vec<(NodeId, SimTime)>,
}

impl Transmission {
    /// The receivers arriving at `at`, with their sequence numbers.
    fn arriving_at(&self, at: SimTime) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        (self.first_seq..)
            .zip(&self.arrivals)
            .filter(move |&(_, &(_, t))| t == at)
            .map(|(seq, &(node, _))| (node, seq))
    }
}

/// The simulation world: traffic, radio medium, per-node GeoNetworking
/// routers and (optionally) an attacker, driven by one deterministic event
/// loop.
///
/// A world is a pure function of `(config, attacker setup, seed)`: two
/// worlds built identically produce identical histories.
///
/// Beacons take the logged path (DESIGN.md §8, "Beacon log"): their
/// legitimate receivers get inbox entries instead of delivery events, and
/// a router applies its inbox only before its state is read. Every read —
/// the event loop's own, [`World::router`], [`World::audit_checkpoint`],
/// [`World::aggregate_stats`] and the rest — sees exactly the state that
/// delivering each beacon as an event of its own would leave. A world
/// with a trace sink attached also traces each logged reception in event
/// order, where it happened; its routers fold like any other world's.
///
/// When a core is spare, a helper thread steps the traffic a few steps
/// ahead of the world (DESIGN.md, "Mobility plane ahead"); the world
/// applies each finished step, so [`World::traffic`] is always the state
/// at the world's clock.
pub struct World {
    cfg: ScenarioConfig,
    kernel: Kernel<Ev>,
    medium: Medium,
    traffic: TrafficSim,
    reference: GeoReference,
    ca: CertificateAuthority,
    /// Each legitimate node's router and beacon inbox; `None` for the
    /// attacker. A cell, so that reads through `&self` can fold an inbox.
    routers: Vec<Option<RefCell<LazyRouter>>>,
    kinds: Vec<NodeKind>,
    rngs: Vec<SimRng>,
    vehicle_nodes: Vec<NodeId>,
    /// The radio nodes of the vehicles on the road, ascending: where a
    /// traffic step's positions land ([`StepOutput::positions`]).
    active_nodes: Vec<NodeId>,
    /// The record of the last traffic step stepped inline.
    landing: StepOutput,
    /// The attacker's radio node and the attacker itself, if mounted.
    attacker: Option<(NodeId, Attacker)>,
    workload_rng: SimRng,
    loss_rng: SimRng,
    received: BTreeMap<PacketKey, BTreeSet<NodeId>>,
    root_rng: SimRng,
    next_static_mid: u64,
    addr_index: BTreeMap<GnAddress, NodeId>,
    unicasts_sent: u64,
    unicasts_lost: u64,
    frames_on_air: u64,
    bytes_on_air: u64,
    tracer: Tracer,
    telemetry: Telemetry,
    auditor: Option<SharedAuditor>,
    topo: Option<SharedTopo>,
    /// The destination the topology observer grades gradients against
    /// (the packet sink of the running scenario, when it has one).
    topo_dest: Option<Position>,
    /// Traffic steps seen since telemetry was attached (drives the
    /// periodic state-depth sampling cadence).
    telemetry_steps: u32,
    /// Receiver scratch buffer reused across broadcasts.
    rx_buf: Vec<NodeId>,
    /// Deliveries dispatched after the first of their batch: the kernel
    /// counts one event per batch, the history one per delivery.
    batched_deliveries: u64,
    /// Logged beacon transmissions (see `beacon_log`).
    log: BeaconLog,
    /// The key of the event being dispatched, or, between runs, a key
    /// above every event that has happened and below every one queued
    /// since: logged deliveries below it have happened.
    barrier: Key,
    /// The helper stepping the traffic ahead, while one runs.
    ahead: Option<Ahead>,
    /// Whether the next traffic step may start a helper: the first step,
    /// and the first after a mutation stopped one.
    start_ahead: bool,
    mobility: MobilityStats,
}

impl World {
    /// Builds a world. `attacker` chooses the attack mounted (or `None`
    /// for the A-side of an A/B pair — the attacker's radio is absent
    /// entirely).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: ScenarioConfig, attacker: Option<AttackerSetup>, seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid scenario config: {e}"));
        let root_rng = SimRng::seed(seed);
        let mut world = World {
            kernel: Kernel::with_horizon(SimTime::ZERO + cfg.duration),
            medium: Medium::new(),
            traffic: TrafficSim::new(cfg.road),
            reference: GeoReference::default(),
            ca: CertificateAuthority::new(seed ^ 0xC0FF_EE00),
            routers: Vec::new(),
            kinds: Vec::new(),
            rngs: Vec::new(),
            vehicle_nodes: Vec::new(),
            active_nodes: Vec::new(),
            landing: StepOutput::default(),
            attacker: None,
            workload_rng: root_rng.split(0xAAAA),
            loss_rng: root_rng.split(0x1055),
            received: BTreeMap::new(),
            root_rng,
            next_static_mid: 0x5057_0000,
            addr_index: BTreeMap::new(),
            unicasts_sent: 0,
            unicasts_lost: 0,
            frames_on_air: 0,
            bytes_on_air: 0,
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
            auditor: None,
            topo: None,
            topo_dest: None,
            telemetry_steps: 0,
            rx_buf: Vec::new(),
            batched_deliveries: 0,
            log: BeaconLog::new(cfg.gn),
            barrier: (SimTime::ZERO, 0),
            ahead: None,
            start_ahead: true,
            mobility: MobilityStats::default(),
            cfg,
        };
        // Register the pre-filled vehicles.
        let initial: Vec<VehicleId> = world.traffic.active_vehicles().map(|v| v.id).collect();
        for vid in initial {
            world.register_vehicle(vid);
        }
        // The attacker.
        if let Some(setup) = attacker {
            let node = world.medium.register(cfg.attacker_position, cfg.attack_range);
            world.routers.push(None);
            world.kinds.push(NodeKind::Attacker);
            world.rngs.push(world.root_rng.split(0xA77A));
            let attacker = match setup {
                AttackerSetup::InterArea => Attacker::interception(cfg.attacker_position),
                AttackerSetup::IntraArea(mode) => Attacker::blockage(cfg.attacker_position, mode),
            };
            world.attacker = Some((node, attacker));
        }
        // Start the clocks.
        world.kernel.schedule_at(SimTime::from_secs_f64(cfg.traffic_dt), Ev::TrafficStep);
        world
    }

    fn register_vehicle(&mut self, vid: VehicleId) {
        let pos = self.traffic.position(vid);
        let node = self.medium.register(pos, self.cfg.v2v_range);
        debug_assert_eq!(self.routers.len(), node.index());
        let addr = GnAddress::vehicle(0x1000_0000 + u64::from(vid.0));
        self.addr_index.insert(addr, node);
        let mut router =
            GnRouter::new(self.ca.enroll(addr), self.ca.verifier(), self.cfg.gn, self.reference);
        router.set_tracer(self.tracer.for_node(node.0));
        router.set_telemetry(self.telemetry.clone());
        self.routers.push(Some(RefCell::new(LazyRouter::new(router))));
        self.kinds.push(NodeKind::Vehicle(vid));
        let mut rng = self.root_rng.split(0x1000 + u64::from(node.0));
        // Desynchronised first beacon within one period.
        let offset =
            SimDuration::from_secs_f64(rng.uniform(0.0, self.cfg.gn.beacon_interval.as_secs_f64()));
        self.rngs.push(rng);
        self.vehicle_nodes.push(node);
        self.active_nodes.push(node);
        debug_assert_eq!(self.vehicle_nodes.len() - 1, vid.index());
        self.kernel.schedule_in(offset, Ev::Beacon(node));
    }

    /// Adds a stationary legitimate node (destination receiver, RSU) with
    /// the given radio range. It beacons like any other node.
    pub fn add_static_node(&mut self, position: Position, range: f64) -> NodeId {
        let node = self.medium.register(position, range);
        let addr = GnAddress::roadside(self.next_static_mid);
        self.next_static_mid += 1;
        self.addr_index.insert(addr, node);
        let mut router =
            GnRouter::new(self.ca.enroll(addr), self.ca.verifier(), self.cfg.gn, self.reference);
        router.set_tracer(self.tracer.for_node(node.0));
        router.set_telemetry(self.telemetry.clone());
        self.routers.push(Some(RefCell::new(LazyRouter::new(router))));
        self.kinds.push(NodeKind::Static);
        let mut rng = self.root_rng.split(0x2000 + u64::from(node.0));
        let offset =
            SimDuration::from_secs_f64(rng.uniform(0.0, self.cfg.gn.beacon_interval.as_secs_f64()));
        self.rngs.push(rng);
        self.kernel.schedule_in(offset, Ev::Beacon(node));
        node
    }

    /// Moves a static node. A driver that scripts its own motion calls
    /// this each step; vehicles follow the traffic simulation instead.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a static node.
    pub fn set_node_position(&mut self, node: NodeId, position: Position) {
        assert_eq!(self.kinds[node.index()], NodeKind::Static, "moving non-static node {node}");
        self.medium.set_position(node, position);
    }

    /// Attaches a trace sink; every node (router, attacker, and the radio
    /// layer itself) and the traffic's hazards and collisions start
    /// emitting [`TraceEvent`]s through it, and each logged beacon
    /// reception is traced where it happens. Call right after
    /// [`World::new`] — events from before the attach are not replayed.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.tracer = Tracer::attached(sink);
        for (i, router) in self.routers.iter_mut().enumerate() {
            if let Some(r) = router {
                r.get_mut().router.set_tracer(self.tracer.for_node(i as u32));
            }
        }
        if let Some((node, attacker)) = &mut self.attacker {
            attacker.set_tracer(self.tracer.for_node(node.0));
        }
    }

    /// Attaches a metrics registry; the hot paths (event dispatch, frame
    /// handling, radio delivery, traffic stepping) are wall-clock timed
    /// and internal state depths are sampled periodically from now on.
    /// Like [`World::set_trace_sink`], the handle fans out to every
    /// existing router and to vehicles registered later. Beacons stay on
    /// the log and are folded when read, so `router_handle_frame_ns` times
    /// the frames delivered as events. The traffic steps on the world's
    /// thread from then on, so that each step is timed.
    pub fn set_telemetry(&mut self, registry: SharedRegistry) {
        self.telemetry = Telemetry::attached(registry);
        for cell in self.routers.iter_mut().flatten() {
            cell.get_mut().router.set_telemetry(self.telemetry.clone());
        }
        self.medium.set_telemetry(self.telemetry.clone());
        self.ahead = None;
    }

    /// Attaches an audit recorder; the world samples a state-digest
    /// checkpoint into it whenever one falls due (checked once per
    /// traffic step against the recorder's sim-time interval). Detached
    /// by default — the per-step check is then a single branch and no
    /// state is ever digested.
    pub fn set_auditor(&mut self, recorder: SharedAuditor) {
        self.auditor = Some(recorder);
    }

    /// Attaches a topology recorder; the world samples a connectivity
    /// snapshot into it whenever one falls due (checked once per traffic
    /// step against the recorder's sim-time interval). Disabled by
    /// default — the per-step check is then a single branch and no graph
    /// is ever built.
    pub fn set_topo_observer(&mut self, recorder: SharedTopo) {
        self.topo = Some(recorder);
    }

    /// Sets the destination against which snapshot gradients are graded
    /// (see [`GradientHealth`]). Without one, every node's gradient
    /// stays [`GradientHealth::Unknown`] and no router is probed.
    pub fn set_topo_destination(&mut self, dest: Position) {
        self.topo_dest = Some(dest);
    }

    /// Builds a connectivity snapshot of every active radio node at the
    /// current simulation time: positions and ranges straight from the
    /// medium, the attacker flagged, and — when a topology destination
    /// is set — each router's greedy gradient graded by probing its
    /// location table without mutating it. Expensive (O(n²) adjacency);
    /// the snapshot cadence, not the event loop, decides when to call
    /// this.
    ///
    /// Gradient grading mirrors the attack mechanics: a router whose
    /// greedy choice is *physically unreachable* holds a poisoned
    /// gradient (the replayed beacon planted a phantom neighbour), while
    /// one with no forward progress at all is stuck at a local maximum.
    #[must_use]
    pub fn topo_snapshot(&self) -> TopoSnapshot {
        let now = self.kernel.now();
        let mut nodes = Vec::with_capacity(self.medium.len());
        for node in self.medium.nodes() {
            if !self.medium.is_active(node) {
                continue;
            }
            let pos = self.medium.position(node);
            let attacker = self.kinds[node.index()] == NodeKind::Attacker;
            let mut tn = TopoNode::new(node.0, pos.x, pos.y, self.medium.tx_range(node), attacker);
            if let (Some(dest), Some(cell)) = (self.topo_dest, &self.routers[node.index()]) {
                let router = self.read(cell, Fold::Read);
                let health = match router.gradient_query(pos, dest, now) {
                    GfDecision::NoProgress => GradientHealth::Stuck,
                    GfDecision::NextHop { addr, .. } => {
                        let reachable = self
                            .addr_index
                            .get(&addr)
                            .is_some_and(|&hop| self.medium.reaches(node, hop));
                        if reachable {
                            GradientHealth::Healthy
                        } else {
                            GradientHealth::Poisoned
                        }
                    }
                };
                tn = tn.with_gradient(health);
            }
            nodes.push(tn);
        }
        TopoSnapshot::build(now, self.topo_dest.map(|p| (p.x, p.y)), nodes)
    }

    /// Digests the world's complete canonical state into one checkpoint:
    /// the event queue, every RNG stream position, every router's
    /// forwarding state, the radio medium, the traffic simulation and
    /// the delivery ledger. Expensive — the auditing cadence, not the
    /// event loop, decides when to call this.
    #[must_use]
    pub fn audit_checkpoint(&self) -> Checkpoint {
        let mut b = Checkpoint::builder(self.kernel.now());

        // Pending events live in a heap whose layout is unspecified, so
        // their (time, seq) keys go through an order-independent combiner.
        // A delivery batch contributes one key per receiver it stands for.
        let mut h = StateHasher::new();
        h.write_u64(self.events_processed());
        let mut q = UnorderedDigest::new();
        let mut absorb = |t: SimTime, seq: u64| {
            let mut eh = StateHasher::new();
            eh.write_u64(t.as_micros());
            eh.write_u64(seq);
            q.absorb(eh.finish());
        };
        for (t, seq, ev) in self.kernel.pending_events() {
            match ev {
                Ev::Deliver(tx) => tx.arriving_at(t).for_each(|(_, seq)| absorb(t, seq)),
                _ => absorb(t, seq),
            }
        }
        for (t, seq) in self.log.pending(self.barrier) {
            absorb(t, seq);
        }
        q.fold_into(&mut h);
        b.push("event_queue", h.finish());

        let mut h = StateHasher::new();
        h.write_u64(self.rngs.len() as u64);
        for rng in &self.rngs {
            h.write_u64(rng.draw_count());
        }
        h.write_u64(self.workload_rng.draw_count());
        h.write_u64(self.loss_rng.draw_count());
        h.write_u64(self.root_rng.draw_count());
        b.push("rng", h.finish());

        let mut h = StateHasher::new();
        h.write_u64(self.routers.len() as u64);
        for router in &self.routers {
            match router {
                Some(cell) => {
                    h.write_bool(true);
                    self.read(cell, Fold::Audit).digest_into(&mut h);
                }
                None => h.write_bool(false),
            }
        }
        b.push("routers", h.finish());

        let mut h = StateHasher::new();
        self.medium.digest_into(&mut h);
        b.push("medium", h.finish());

        let mut h = StateHasher::new();
        self.traffic.digest_into(&mut h);
        b.push("traffic", h.finish());

        let mut h = StateHasher::new();
        h.write_u64(self.received.len() as u64);
        for (key, nodes) in &self.received {
            h.write_u64(key.source.to_u64());
            h.write_u64(u64::from(key.sn.0));
            h.write_u64(nodes.len() as u64);
            for n in nodes {
                h.write_u64(u64::from(n.0));
            }
        }
        b.push("delivery", h.finish());

        b.finish()
    }

    /// Total events dispatched, counting each delivery of a batch and
    /// each logged beacon delivery that has happened — the numerator of
    /// the sim-events/sec throughput metric.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed() + self.batched_deliveries + self.log.delivered(self.barrier)
    }

    /// Counters of the beacon log: transmissions logged and retired,
    /// inbox entries, and inbox folds by what triggered them. Attaching
    /// a trace sink or a telemetry registry changes none of them.
    #[must_use]
    pub fn beacon_log_stats(&self) -> BeaconLogStats {
        self.log.stats()
    }

    /// The router in `cell`, with its inbox folded up to the barrier
    /// first if anything in it has arrived — a read through `&self`.
    fn read<'a>(&'a self, cell: &'a RefCell<LazyRouter>, trigger: Fold) -> Ref<'a, GnRouter> {
        if self.log.has_due(&cell.borrow(), self.barrier) {
            self.log.fold(&mut cell.borrow_mut(), self.barrier, trigger);
        }
        Ref::map(cell.borrow(), |lazy| &lazy.router)
    }

    /// The router of `node`, with its inbox folded up to the barrier: the
    /// access of every event that reads or changes the router's state.
    fn router_mut(&mut self, node: NodeId) -> &mut GnRouter {
        let lazy = self.routers[node.index()].as_mut().expect("legitimate node").get_mut();
        self.log.fold(lazy, self.barrier, Fold::Read);
        &mut lazy.router
    }

    fn packet_ref(key: PacketKey) -> PacketRef {
        PacketRef::new(key.source.to_u64(), key.sn.0)
    }

    /// The link-layer address bits the attacker transmits under, if an
    /// attacker is mounted: the blockage attacker's pseudonym, or the
    /// replayed beacons' original sources for the interception attacker
    /// (which never transmits under its own name — `None`).
    ///
    /// Feed this to
    /// [`AttributionReport::build`](crate::forensics::AttributionReport::build)
    /// to attribute CBF cancellations to the attacker.
    #[must_use]
    pub fn attacker_address(&self) -> Option<u64> {
        self.attacker().and_then(Attacker::pseudonym).map(GnAddress::to_u64)
    }

    /// The scenario configuration.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The traffic simulation (read access).
    #[must_use]
    pub fn traffic(&self) -> &TrafficSim {
        &self.traffic
    }

    /// The WGS-84 reference frame shared by all nodes.
    #[must_use]
    pub fn reference(&self) -> &GeoReference {
        &self.reference
    }

    /// The radio node of a vehicle.
    ///
    /// # Panics
    ///
    /// Panics if the vehicle was never registered.
    #[must_use]
    pub fn vehicle_node(&self, vid: VehicleId) -> NodeId {
        self.vehicle_nodes[vid.index()]
    }

    /// Current position of a node.
    #[must_use]
    pub fn node_position(&self, node: NodeId) -> Position {
        self.medium.position(node)
    }

    /// What a node is.
    #[must_use]
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// The router of a legitimate node (read access, e.g. for stats),
    /// with every beacon that has arrived applied.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the attacker.
    #[must_use]
    pub fn router(&self, node: NodeId) -> Ref<'_, GnRouter> {
        self.read(self.routers[node.index()].as_ref().expect("attacker has no router"), Fold::Read)
    }

    /// The attacker, if mounted.
    #[must_use]
    pub fn attacker(&self) -> Option<&Attacker> {
        self.attacker.as_ref().map(|(_, a)| a)
    }

    /// The interception attacker's state, if that attack is mounted.
    #[must_use]
    pub fn inter_attacker(&self) -> Option<&geonet_attack::InterAreaAttacker> {
        match self.attacker()?.strategy() {
            Strategy::Interception(s) => Some(s),
            Strategy::Blockage(_) => None,
        }
    }

    /// The blockage attacker's state, if that attack is mounted.
    #[must_use]
    pub fn intra_attacker(&self) -> Option<&geonet_attack::IntraAreaAttacker> {
        match self.attacker()?.strategy() {
            Strategy::Blockage(s) => Some(s),
            Strategy::Interception(_) => None,
        }
    }

    /// Overrides the attacker's capture-to-replay processing delay
    /// (default 1 ms) — used by the attacker-latency ablation.
    pub fn set_attacker_delay(&mut self, delay: SimDuration) {
        if let Some((node, attacker)) = self.attacker.take() {
            self.attacker = Some((node, attacker.with_processing_delay(delay)));
        }
    }

    /// Nodes (IDs) of vehicles currently on the road segment proper.
    #[must_use]
    pub fn on_road_nodes(&self) -> Vec<NodeId> {
        self.traffic.on_segment_vehicles().map(|v| self.vehicle_nodes[v.id.index()]).collect()
    }

    /// Sums the router statistics over every legitimate node (including
    /// exited vehicles) — the run-level view of protocol activity. The
    /// beacons in an inbox are counted, not folded: nothing reads the
    /// location tables here.
    #[must_use]
    pub fn aggregate_stats(&self) -> geonet::RouterStats {
        let mut agg = geonet::RouterStats::default();
        for cell in self.routers.iter().flatten() {
            agg.merge(&self.log.counted(&cell.borrow(), self.barrier));
        }
        agg
    }

    /// All legitimate (router-bearing) nodes, including exited vehicles.
    #[must_use]
    pub fn legit_nodes(&self) -> Vec<NodeId> {
        (0..self.routers.len() as u32)
            .map(NodeId)
            .filter(|n| self.routers[n.index()].is_some())
            .collect()
    }

    /// Total frames put on the air (all senders, including the attacker
    /// and retries) — the channel-load side of any mitigation trade-off.
    #[must_use]
    pub fn frames_on_air(&self) -> u64 {
        self.frames_on_air
    }

    /// Total wire bytes put on the air.
    #[must_use]
    pub fn bytes_on_air(&self) -> u64 {
        self.bytes_on_air
    }

    /// Link-layer unicasts transmitted so far.
    #[must_use]
    pub fn unicasts_sent(&self) -> u64 {
        self.unicasts_sent
    }

    /// Unicasts whose addressee was not among the physical receivers —
    /// the silent greedy-forwarding losses the paper's attack weaponises.
    #[must_use]
    pub fn unicasts_lost(&self) -> u64 {
        self.unicasts_lost
    }

    /// A fair coin from the workload stream (used to pick a packet
    /// direction for sources inside the fully covered area).
    pub fn workload_coin(&mut self) -> bool {
        self.workload_rng.chance(0.5)
    }

    /// Picks a uniformly random on-road vehicle (workload generation).
    pub fn random_on_road_vehicle(&mut self) -> Option<VehicleId> {
        let n = self.traffic.on_segment_vehicles().count();
        if n == 0 {
            return None;
        }
        let pick = self.workload_rng.below(n);
        self.traffic.on_segment_vehicles().nth(pick).map(|v| v.id)
    }

    /// The set of nodes that received (delivered) packet `key` so far.
    #[must_use]
    pub fn received_by(&self, key: PacketKey) -> Option<&BTreeSet<NodeId>> {
        self.received.get(&key)
    }

    /// Whether `node` received packet `key`.
    #[must_use]
    pub fn was_received(&self, key: PacketKey, node: NodeId) -> bool {
        self.received.get(&key).is_some_and(|s| s.contains(&node))
    }

    /// Counters of the mobility plane: traffic steps applied from a
    /// helper, steps computed inline and helper restarts.
    #[must_use]
    pub fn mobility_stats(&self) -> MobilityStats {
        self.mobility
    }

    /// Opens/closes a direction's entry gate (Figure 12 scenarios).
    pub fn set_entry_open(&mut self, direction: Direction, open: bool) {
        self.stop_ahead();
        self.traffic.set_entry_open(direction, open);
    }

    /// Places a hazard blocking `direction` at longitudinal position `s`.
    pub fn add_hazard(&mut self, direction: Direction, s: f64) {
        self.stop_ahead();
        self.traffic.add_hazard(direction, s);
        let at = SimTime::from_secs_f64(self.traffic.elapsed());
        self.tracer.emit(at, || TraceEvent::HazardOnset { x: s });
    }

    /// The helper stepping the traffic ahead, while one runs.
    #[cfg(test)]
    pub(crate) fn ahead(&self) -> Option<&Ahead> {
        self.ahead.as_ref()
    }

    /// Stops and joins the helper before the traffic is changed: the
    /// steps it ran ahead are of the old traffic. The next step starts a
    /// helper from the changed traffic.
    fn stop_ahead(&mut self) {
        if self.ahead.take().is_some() {
            self.mobility.restarts += 1;
            self.start_ahead = true;
        }
    }

    /// Originates a GeoBroadcast from a node into `area` at the current
    /// time, returning the packet key. The source itself counts as having
    /// received the packet.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the attacker or an exited vehicle.
    pub fn originate_from(&mut self, node: NodeId, area: &Area, payload: Vec<u8>) -> PacketKey {
        assert!(self.medium.is_active(node), "originating from inactive node {node}");
        let now = self.kernel.now();
        let position = self.medium.position(node);
        let (speed, heading) = self.node_kinematics(node);
        let router = self.router_mut(node);
        let (key, actions) = router.originate(area, payload, now, position, speed, heading);
        self.received.entry(key).or_default().insert(node);
        self.execute(node, actions);
        key
    }

    fn node_kinematics(&self, node: NodeId) -> (f64, Heading) {
        match self.kinds[node.index()] {
            NodeKind::Vehicle(vid) => {
                let v = self.traffic.vehicle(vid);
                (v.v, v.heading())
            }
            NodeKind::Static | NodeKind::Attacker => (0.0, Heading::NORTH),
        }
    }

    /// Runs the event loop until simulation time `t` (inclusive) or the
    /// horizon, whichever is earlier.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            match self.kernel.peek_time() {
                Some(next) if next <= t => {
                    let Some((_, ev)) = self.kernel.pop() else { break };
                    self.advance_barrier(self.kernel.last_key().expect("an event just popped"));
                    self.dispatch(ev);
                }
                _ => break,
            }
        }
        // Logged deliveries are events too: every one due by `t` (and by
        // the horizon) has now happened, and the clock stops where it
        // would had they been queued — at the horizon if one arrives past
        // it but by `t`, else at the latest event that happened.
        let horizon = self.kernel.horizon().expect("worlds run to a horizon");
        self.advance_barrier(self.barrier.max((t.min(horizon), self.kernel.next_seq())));
        let now = if self.log.arrives_within(horizon, t) {
            horizon
        } else {
            self.log
                .latest_before(self.barrier)
                .map_or(self.kernel.now(), |at| at.max(self.kernel.now()))
        };
        self.kernel.advance_to(now);
    }

    /// Moves the barrier to `to`. A traced world then traces the logged
    /// beacons that arrived in between in event order, as their delivery
    /// events would have (none to exited vehicles).
    fn advance_barrier(&mut self, to: Key) {
        let from = std::mem::replace(&mut self.barrier, to);
        if self.tracer.is_enabled() {
            for ((at, _), rx, id) in self.log.due(from, to) {
                if self.medium.is_active(NodeId(rx)) {
                    let lazy = self.routers[rx as usize].as_ref().expect("legitimate").borrow();
                    self.log.trace(&lazy.router, id, at, &self.tracer.for_node(rx));
                }
            }
        }
    }

    /// Runs to the configured horizon.
    pub fn run_to_end(&mut self) {
        let end = SimTime::ZERO + self.cfg.duration;
        self.run_until(end);
    }

    fn dispatch(&mut self, ev: Ev) {
        let _span = self.telemetry.time("world_dispatch_ns");
        match ev {
            Ev::TrafficStep => self.on_traffic_step(),
            Ev::Beacon(node) => self.on_beacon(node),
            Ev::Deliver(tx) => {
                let now = self.kernel.now();
                let mut delivered = 0;
                for (to, _) in tx.arriving_at(now) {
                    self.on_deliver(to, &tx.on_air);
                    delivered += 1;
                }
                self.batched_deliveries += delivered - 1;
            }
            Ev::CbfTimer { node, key, generation } => {
                let now = self.kernel.now();
                if !self.medium.is_active(node) {
                    return;
                }
                let position = self.medium.position(node);
                let actions =
                    self.router_mut(node).handle_cbf_timer(key, generation, position, now);
                self.execute(node, actions);
            }
            Ev::AttackerTx { frame, cap } => {
                if let Some(&(node, _)) = self.attacker.as_ref() {
                    self.transmit(node, *frame, cap);
                }
            }
            Ev::GfRetry { node, key } => {
                if !self.medium.is_active(node) {
                    return;
                }
                let now = self.kernel.now();
                let position = self.medium.position(node);
                let actions = self.router_mut(node).handle_gf_retry(key, position, now);
                self.execute(node, actions);
            }
            Ev::AckTimeout { node, key } => {
                if !self.medium.is_active(node) {
                    return;
                }
                let now = self.kernel.now();
                let position = self.medium.position(node);
                let actions = self.router_mut(node).handle_ack_failure(key, position, now);
                self.execute(node, actions);
            }
        }
    }

    fn on_traffic_step(&mut self) {
        self.step_traffic();
        // Mobile-attacker extension: the attacker drives along the road.
        if self.cfg.attacker_velocity != 0.0 {
            if let Some((node, attacker)) = &mut self.attacker {
                let mut pos = self.medium.position(*node);
                pos.x += self.cfg.attacker_velocity * self.cfg.traffic_dt;
                self.medium.set_position(*node, pos);
                attacker.set_position(pos);
            }
        }
        self.kernel.schedule_in(SimDuration::from_secs_f64(self.cfg.traffic_dt), Ev::TrafficStep);
        self.retire_beacons();
        self.sample_telemetry();
        // Attached timelines sample when due; detached, one branch each.
        let now = self.kernel.now();
        if let Some(rec) = self.auditor.as_ref().filter(|r| r.borrow().due(now)) {
            let checkpoint = self.audit_checkpoint();
            rec.borrow_mut().record(checkpoint);
        }
        if let Some(rec) = self.topo.as_ref().filter(|r| r.borrow().due(now)) {
            let snapshot = self.topo_snapshot();
            rec.borrow_mut().record(snapshot);
        }
    }

    /// Advances the traffic one step and lands it in the medium: applies
    /// the helper's next step, or steps inline and then, at the first step
    /// and after a mutation, hands a clone to a helper if a core is spare.
    /// A world with a registry attached keeps stepping inline, where each
    /// step is timed. Both paths land the same record.
    fn step_traffic(&mut self) {
        let dt = self.cfg.traffic_dt;
        let cells = self.medium.cells();
        if self.ahead.as_ref().is_some_and(|ahead| ahead.cells() != cells) {
            // The grid grew: the helper's crossings are of the old cells.
            self.stop_ahead();
        }
        if let Some(mut ahead) = self.ahead.take() {
            ahead.next(|out| {
                self.traffic.apply(out);
                self.land(out);
            });
            self.ahead = Some(ahead);
            self.mobility.ahead_steps += 1;
        } else {
            let mut out = std::mem::take(&mut self.landing);
            {
                let _span = self.telemetry.time("traffic_step_ns");
                self.traffic.step_landing(dt, cells, &mut out);
            }
            self.mobility.inline_steps += 1;
            self.land(&out);
            self.landing = out;
        }
        if std::mem::take(&mut self.start_ahead) {
            let eligible = !self.telemetry.is_enabled();
            self.ahead = Ahead::start(&self.traffic, dt, self.medium.cells(), eligible);
        }
    }

    /// Brings the rest of the world to the traffic step just taken, whose
    /// record is `out`: traces its collisions, registers the vehicles that
    /// entered, deactivates the ones that exited (their last position
    /// stays on record) and loads every other vehicle's position. An
    /// exited router gets the beacons that reached it before this step,
    /// not the later ones.
    fn land(&mut self, out: &StepOutput) {
        let at = SimTime::from_secs_f64(self.traffic.elapsed());
        for &x in self.traffic.collisions_last_step() {
            self.tracer.emit(at, || TraceEvent::Collision { x });
        }
        while self.vehicle_nodes.len() < self.traffic.all_vehicles().len() {
            let vid = VehicleId(self.vehicle_nodes.len() as u32);
            self.register_vehicle(vid);
        }
        let exits = self.traffic.exited_last_step();
        for vid in exits {
            let node = self.vehicle_nodes[vid.index()];
            self.medium.set_active(node, false);
            let lazy = self.routers[node.index()].as_mut().expect("vehicle router").get_mut();
            self.log.close(lazy, self.barrier);
        }
        if !exits.is_empty() {
            // Both lists ascend, and vehicle nodes ascend with vehicle ids.
            let mut exited = exits.iter().map(|vid| self.vehicle_nodes[vid.index()]).peekable();
            self.active_nodes.retain(|&node| exited.next_if_eq(&node).is_none());
        }
        self.medium.load_positions(
            &self.active_nodes,
            out.positions(),
            out.crossers(),
            out.cells(),
        );
    }

    /// Bounds the beacon log by the LocT TTL: once the oldest chunk of
    /// records is a TTL old, folds every inbox whose oldest entry is a TTL
    /// old and retires the records older than that, which no inbox
    /// references any more.
    fn retire_beacons(&mut self) {
        let now = self.kernel.now();
        let ttl = self.cfg.gn.loct_ttl;
        if self.log.oldest_chunk_end().is_none_or(|sent| sent + ttl >= now) {
            return;
        }
        let cutoff = now - ttl;
        for cell in self.routers.iter_mut().flatten() {
            let lazy = cell.get_mut();
            if lazy.inbox.first().is_some_and(|&e| self.log.sent(e) < cutoff) {
                self.log.fold(lazy, self.barrier, Fold::Ttl);
            }
        }
        self.log.retire_before(cutoff);
    }

    /// Samples internal state depths into the attached registry: the
    /// event-queue length every traffic step, and the per-node LocT /
    /// CBF-contention-buffer / duplicate-cache sizes (plus their fleet
    /// totals) of every active router node every 10th step (once per
    /// simulated second at the default 100 ms timestep). Exited vehicles
    /// keep their frozen routers for the run-level statistics, but they
    /// are off the air, so they stay out of the depth samples.
    fn sample_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.gauge("event_queue_len", self.kernel.pending() as f64);
        self.telemetry_steps += 1;
        if !self.telemetry_steps.is_multiple_of(10) {
            return;
        }
        let now = self.kernel.now();
        let (mut loct_total, mut cbf_total, mut dup_total) = (0u64, 0u64, 0u64);
        let active = self
            .routers
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| self.medium.is_active(NodeId(i as u32)))
            .filter_map(|(_, r)| r.as_mut());
        for cell in active {
            // The depth samples read the location table.
            let lazy = cell.get_mut();
            self.log.fold(lazy, self.barrier, Fold::Read);
            let router = &lazy.router;
            let loct = router.loct().live_count(now) as u64;
            let cbf = router.cbf_buffered_count() as u64;
            let dup = router.duplicate_cache_size() as u64;
            self.telemetry.observe("loct_size_per_node", loct);
            self.telemetry.observe("cbf_buffer_per_node", cbf);
            self.telemetry.observe("dup_cache_per_node", dup);
            loct_total += loct;
            cbf_total += cbf;
            dup_total += dup;
        }
        self.telemetry.gauge("loct_size_total", loct_total as f64);
        self.telemetry.gauge("cbf_buffer_total", cbf_total as f64);
        self.telemetry.gauge("dup_cache_total", dup_total as f64);
        self.telemetry.gauge("vehicles_on_road", self.traffic.count_on_road() as f64);
    }

    fn on_beacon(&mut self, node: NodeId) {
        if !self.medium.is_active(node) {
            return; // exited vehicle: beaconing stops for good
        }
        let now = self.kernel.now();
        let position = self.medium.position(node);
        let (speed, heading) = self.node_kinematics(node);
        // Neither call reads what beacons change, so no fold.
        let lazy = self.routers[node.index()].as_mut().expect("beacons from routers").get_mut();
        let frame = lazy.router.make_beacon(now, position, speed, heading);
        self.transmit(node, frame, None);
        let lazy = self.routers[node.index()].as_mut().expect("router").get_mut();
        let delay = lazy.router.next_beacon_delay(&mut self.rngs[node.index()]);
        self.kernel.schedule_in(delay, Ev::Beacon(node));
    }

    fn on_deliver(&mut self, to: NodeId, on_air: &OnAir) {
        let now = self.kernel.now();
        let frame = on_air.frame();
        // Only exited vehicles go inactive, never the attacker.
        if !self.medium.is_active(to) {
            return;
        }
        let key = PacketKey::of(&frame.msg);
        self.tracer.for_node(to.0).emit(now, || TraceEvent::FrameRx {
            packet: key.map(World::packet_ref),
            from: frame.src.to_u64(),
            beacon: key.is_none(),
        });
        if let Some((_, attacker)) = self.attacker.as_mut().filter(|(node, _)| *node == to) {
            if let Some(order) = attacker.on_sniff(frame, now) {
                self.kernel.schedule_in(
                    order.delay,
                    Ev::AttackerTx { frame: Box::new(order.frame), cap: order.range_cap },
                );
            }
            return;
        }
        let position = self.medium.position(to);
        // A unicast for someone else stops at the address filter, which
        // reads nothing a beacon changes: the overhearing router is not
        // folded.
        let lazy = self.routers[to.index()].as_mut().expect("legitimate node").get_mut();
        if frame.addressed_to(lazy.router.addr()) {
            self.log.fold(lazy, self.barrier, Fold::Read);
        }
        let actions = lazy.router.receive(on_air, position, now);
        self.execute(to, actions);
    }

    fn execute(&mut self, node: NodeId, actions: Vec<RouterAction>) {
        for action in actions {
            match action {
                RouterAction::Transmit(frame) => self.transmit(node, frame, None),
                RouterAction::Deliver { key, .. } => {
                    self.received.entry(key).or_default().insert(node);
                }
                RouterAction::CbfTimer { key, generation, delay } => {
                    self.kernel.schedule_in(delay, Ev::CbfTimer { node, key, generation });
                }
                RouterAction::GfRetry { key, delay } => {
                    self.kernel.schedule_in(delay, Ev::GfRetry { node, key });
                }
            }
        }
    }

    /// Puts a frame on the air from `node`, delivering it to every active
    /// node within range (optionally power-capped) after the propagation
    /// delay. The receivers share one [`Transmission`]: the frame is
    /// neither copied nor re-verified per receiver, and the kernel holds
    /// one event per distinct arrival time, not one per receiver.
    ///
    /// The attacker↔vehicle link is special-cased: the paper's attacker
    /// sits elevated at the roadside with line of sight ("at street light
    /// poles ... to make LoS communication with more on-road vehicles"),
    /// so it hears — and is heard by — nodes within the *attack range*,
    /// independent of the vehicles' NLoS range.
    fn transmit(&mut self, from: NodeId, frame: Frame, cap: Option<f64>) {
        let _span = self.telemetry.time("radio_broadcast_ns");
        self.frames_on_air += 1;
        let wire_bytes = frame.msg.packet.encoded_len() as u64;
        self.bytes_on_air += wire_bytes;
        self.telemetry.add("frames_on_air_total", 1);
        self.telemetry.add("bytes_on_air_total", wire_bytes);
        let cap = cap.unwrap_or_else(|| self.medium.tx_range(from));
        let now = self.kernel.now();
        let key = PacketKey::of(&frame.msg);
        self.tracer.for_node(from.0).emit(now, || TraceEvent::FrameTx {
            packet: key.map(World::packet_ref),
            dst: frame.dst.map(GnAddress::to_u64),
            beacon: key.is_none(),
        });
        // A beacon goes to the log if every receiver's arrival offset
        // fits an inbox entry.
        let range = self.medium.tx_range(from).min(cap);
        if matches!(frame.msg.packet.extended, Extended::Beacon { .. })
            && frame.dst.is_none()
            && delay_us(range * range) <= MAX_OFFSET_US
        {
            self.log_beacon(from, frame, cap);
            return;
        }
        let mut receivers = std::mem::take(&mut self.rx_buf);
        self.medium.receivers_into(from, cap, &mut receivers);
        if let Some(&(atk, _)) = self.attacker.as_ref() {
            if from != atk {
                // The LoS sniffer link replaces the unit-disk rule for
                // frames arriving at the attacker.
                receivers.retain(|&n| n != atk);
                if self.attacker_hears(from) {
                    receivers.push(atk);
                }
            }
        }
        // Frame-loss extension: each individual delivery may be lost.
        // Filtered in place so the scratch buffer is the only receiver
        // storage on this path.
        if self.cfg.frame_loss_rate > 0.0 {
            receivers.retain(|&rx| !self.lost(rx, &frame));
        }
        if let Some(dst) = frame.dst {
            self.unicasts_sent += 1;
            let reached = self.addr_index.get(&dst).is_some_and(|n| receivers.contains(n));
            if !reached {
                self.unicasts_lost += 1;
            }
            // Link-acknowledgement extension: tell the sender whether its
            // greedy unicast got through (the MAC ACK), so it can retry
            // towards another neighbour.
            if let Some(ack) = self.cfg.gn.link_ack {
                if let Some(key) = key {
                    if let Some(cell) = self.routers[from.index()].as_mut() {
                        let router = &mut cell.get_mut().router;
                        if reached {
                            router.handle_ack_success(key);
                        } else {
                            self.kernel
                                .schedule_in(ack.timeout, Ev::AckTimeout { node: from, key });
                        }
                    }
                }
            }
        }
        if receivers.is_empty() {
            self.rx_buf = receivers;
            return;
        }
        let first_seq = self.kernel.reserve(receivers.len() as u64);
        let on_air = OnAir::new(frame, &self.ca.verifier());
        let arrivals = receivers
            .iter()
            .map(|&rx| (rx, now + self.medium.propagation_delay(from, rx)))
            .collect();
        self.schedule_deliveries(Transmission { on_air, first_seq, arrivals });
        receivers.clear();
        self.rx_buf = receivers;
    }

    /// Draws whether the delivery of `frame` to `rx` is lost (frame-loss
    /// extension), and traces a loss at send time.
    fn lost(&mut self, rx: NodeId, frame: &Frame) -> bool {
        let lost = self.loss_rng.chance(self.cfg.frame_loss_rate);
        if lost {
            self.tracer.for_node(rx.0).emit(self.kernel.now(), || TraceEvent::FrameLost {
                packet: PacketKey::of(&frame.msg).map(World::packet_ref),
                from: frame.src.to_u64(),
            });
        }
        lost
    }

    /// Whether the attacker's sniffer hears a frame from `from`: the LoS
    /// link of the attack range, not the sender's range.
    fn attacker_hears(&self, from: NodeId) -> bool {
        self.attacker.as_ref().is_some_and(|&(atk, _)| {
            atk != from
                && self.medium.position(from).distance(self.medium.position(atk))
                    <= self.cfg.attack_range
        })
    }

    /// Puts a beacon on the air in one pass over the radio's fan-out (see
    /// `beacon_log`): each legitimate receiver gets its inbox entry as the
    /// walk finds it, with the arrival offset looked up from the squared
    /// distance of the range test, in no particular order; frame loss is
    /// drawn in id order, as for an eager frame. The attacker, which ranks
    /// last, is delivered as an event.
    fn log_beacon(&mut self, from: NodeId, frame: Frame, cap: f64) {
        static DELAYS: OnceLock<DelayTable<{ MAX_OFFSET_US as usize }>> = OnceLock::new();
        let delays = DELAYS.get_or_init(DelayTable::new);
        let on_air = OnAir::new(frame, &self.ca.verifier());
        let frame = on_air.frame();
        let pv = *frame.msg.packet.so_pv();
        debug_assert_eq!(frame.src, pv.addr, "a beacon names its sender");
        let first_seq = self.kernel.next_seq();
        let authentic = on_air.authentic_under(&self.ca.verifier());
        self.log.begin(pv, authentic, self.kernel.now(), first_seq, self.barrier);
        let atk = self.attacker.as_ref().map(|&(node, _)| node);
        if self.cfg.frame_loss_rate > 0.0 {
            let mut receivers = std::mem::take(&mut self.rx_buf);
            self.medium.receivers_into(from, cap, &mut receivers);
            for &rx in &receivers {
                if Some(rx) != atk && !self.lost(rx, frame) {
                    let us = self.medium.propagation_delay(from, rx).as_micros();
                    let lazy = self.routers[rx.index()].as_mut().expect("legitimate").get_mut();
                    self.log.append(lazy, rx.0, us, self.barrier);
                }
            }
            receivers.clear();
            self.rx_buf = receivers;
        } else {
            let (log, routers, barrier) = (&mut self.log, &mut self.routers, self.barrier);
            self.medium.fan_out(from, cap, |rx, d2| {
                if Some(rx) != atk {
                    let lazy = routers[rx.index()].as_mut().expect("legitimate node").get_mut();
                    log.append(lazy, rx.0, delays.delay_us(d2), barrier);
                }
            });
        }
        let legit = self.log.finish();
        let atk = atk
            .filter(|_| self.attacker_hears(from))
            .filter(|&atk| self.cfg.frame_loss_rate == 0.0 || !self.lost(atk, frame));
        let reserved = legit + u64::from(atk.is_some());
        if reserved > 0 {
            let first = self.kernel.reserve(reserved);
            debug_assert_eq!(first, first_seq, "nothing took a number during the fan-out");
        }
        if let Some(atk) = atk {
            let at = self.kernel.now() + self.medium.propagation_delay(from, atk);
            self.schedule_deliveries(Transmission {
                on_air,
                first_seq: first_seq + legit,
                arrivals: vec![(atk, at)],
            });
        }
    }

    /// Queues the deliveries of `tx`: one batch per arrival microsecond,
    /// under its first receiver's number.
    fn schedule_deliveries(&mut self, tx: Transmission) {
        let (Some(first), Some(last)) =
            (tx.arrivals.iter().map(|&(_, t)| t).min(), tx.arrivals.iter().map(|&(_, t)| t).max())
        else {
            return;
        };
        let first_seq = tx.first_seq;
        let tx = Rc::new(tx);
        // Arrival times span a few µs, so the scan is short.
        let mut at = first;
        while at <= last {
            if let Some(i) = tx.arrivals.iter().position(|&(_, t)| t == at) {
                self.kernel.schedule_reserved(
                    at,
                    first_seq + i as u64,
                    Ev::Deliver(Rc::clone(&tx)),
                );
            }
            at += SimDuration::from_micros(1);
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.kernel.now())
            .field("nodes", &self.medium.len())
            .field("on_road", &self.traffic.count_on_road())
            .field("events", &self.events_processed())
            .field("attacker", &self.attacker.as_ref().map(|(node, _)| node))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_attack::BlockageMode;

    fn short_cfg() -> ScenarioConfig {
        ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(20))
    }

    fn road_area() -> Area {
        Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0)
    }

    #[test]
    fn world_builds_and_runs_attacker_free() {
        let mut w = World::new(short_cfg(), None, 1);
        assert!(w.traffic().count_on_road() > 100);
        w.run_until(SimTime::from_secs(5));
        assert!(w.now() >= SimTime::from_secs(4));
        // Beacons have populated location tables.
        let node = w.on_road_nodes()[10];
        assert!(w.router(node).loct().live_count(w.now()) > 0, "LocT empty after 5 s");
    }

    #[test]
    fn cbf_floods_whole_road_attacker_free() {
        let mut w = World::new(short_cfg(), None, 2);
        w.run_until(SimTime::from_secs(4)); // let beacons settle
        let src = w.random_on_road_vehicle().unwrap();
        let src_node = w.vehicle_node(src);
        let on_road_before: Vec<NodeId> = w.on_road_nodes();
        let key = w.originate_from(src_node, &road_area(), vec![0xAB]);
        w.run_until(SimTime::from_secs(8));
        let received = w.received_by(key).unwrap();
        let got = on_road_before.iter().filter(|n| received.contains(n)).count();
        let rate = got as f64 / on_road_before.len() as f64;
        assert!(rate > 0.95, "CBF reached only {rate:.2} of the road");
    }

    #[test]
    fn intra_area_attacker_blocks_part_of_road() {
        let cfg = short_cfg().with_attack_range(500.0);
        let mut a = World::new(cfg, None, 3);
        let mut b = World::new(cfg, Some(AttackerSetup::IntraArea(BlockageMode::ClampRhl)), 3);
        for w in [&mut a, &mut b] {
            w.run_until(SimTime::from_secs(4));
        }
        // Same seed ⇒ same traffic ⇒ same source vehicle.
        let src_a = a.random_on_road_vehicle().unwrap();
        let src_b = b.random_on_road_vehicle().unwrap();
        assert_eq!(src_a, src_b);
        let ka = a.originate_from(a.vehicle_node(src_a), &road_area(), vec![1]);
        let kb = b.originate_from(b.vehicle_node(src_b), &road_area(), vec![1]);
        let nodes_a = a.on_road_nodes();
        let nodes_b = b.on_road_nodes();
        a.run_until(SimTime::from_secs(8));
        b.run_until(SimTime::from_secs(8));
        let rate = |w: &World, k, nodes: &[NodeId]| {
            let r = w.received_by(k).unwrap();
            nodes.iter().filter(|n| r.contains(n)).count() as f64 / nodes.len() as f64
        };
        let ra = rate(&a, ka, &nodes_a);
        let rb = rate(&b, kb, &nodes_b);
        assert!(ra > 0.95, "baseline flood broken: {ra:.2}");
        assert!(rb < ra - 0.1, "attack had no effect: af {ra:.2} atk {rb:.2}");
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed| {
            let mut w = World::new(short_cfg(), Some(AttackerSetup::InterArea), seed);
            w.run_until(SimTime::from_secs(6));
            let src = w.random_on_road_vehicle().unwrap();
            let key = w.originate_from(
                w.vehicle_node(src),
                &Area::circle(Position::new(4_020.0, 0.0), 40.0),
                vec![9],
            );
            w.run_until(SimTime::from_secs(10));
            (
                w.traffic().count_on_road(),
                w.received_by(key).map(|s| s.len()).unwrap_or(0),
                w.inter_attacker().unwrap().beacons_replayed(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn static_nodes_beacon_and_receive() {
        let mut w = World::new(short_cfg(), None, 4);
        let dest = w.add_static_node(Position::new(4_020.0, 2.5), 486.0);
        w.run_until(SimTime::from_secs(4));
        // A vehicle near the east end knows the destination from beacons.
        let near = w
            .on_road_nodes()
            .into_iter()
            .find(|&n| w.node_position(n).x > 3_700.0)
            .expect("vehicle near east end");
        assert!(
            w.router(near).loct().get(w.router(dest).addr(), w.now()).is_some(),
            "destination beacon not heard"
        );
    }

    #[test]
    fn inter_area_attacker_replays_beacons() {
        let mut w = World::new(short_cfg(), Some(AttackerSetup::InterArea), 5);
        w.run_until(SimTime::from_secs(6));
        let replayed = w.inter_attacker().unwrap().beacons_replayed();
        assert!(replayed > 10, "attacker idle: {}", w.attacker().unwrap());
    }

    #[test]
    fn attacker_delay_applies_to_either_strategy() {
        use geonet_sim::{AttackKind, TraceEvent};
        let delay = SimDuration::from_millis(3);
        let setups = [AttackerSetup::InterArea, AttackerSetup::IntraArea(BlockageMode::ClampRhl)];
        for setup in setups {
            let sink = geonet_sim::shared(geonet_sim::VecSink::new());
            let mut w = World::new(short_cfg().with_attack_range(500.0), Some(setup), 14);
            w.set_trace_sink(sink.clone());
            w.set_attacker_delay(delay);
            w.run_until(SimTime::from_secs(4));
            let src = w.random_on_road_vehicle().unwrap();
            w.originate_from(w.vehicle_node(src), &road_area(), vec![1]);
            w.run_until(SimTime::from_secs(6));
            let (node, _) = w.attacker.as_ref().unwrap();
            let records = sink.borrow().records().to_vec();
            let answered: Vec<SimTime> = records
                .iter()
                .filter(|r| {
                    matches!(
                        r.event,
                        TraceEvent::AttackAction {
                            kind: AttackKind::InterceptionCapture | AttackKind::BlockageReplay,
                            ..
                        }
                    )
                })
                .map(|r| r.at + delay)
                .collect();
            let sent: Vec<SimTime> = records
                .iter()
                .filter(|r| r.node == node.0 && matches!(r.event, TraceEvent::FrameTx { .. }))
                .map(|r| r.at)
                .collect();
            assert!(!sent.is_empty(), "{setup:?}: the attacker never replayed");
            // Captures after the horizon minus the delay are still queued.
            assert_eq!(sent, answered[..sent.len()], "{setup:?}");
            assert!(answered[sent.len()..].iter().all(|&t| t > w.now()), "{setup:?}");
        }
    }

    #[test]
    fn exited_vehicles_go_silent() {
        // Vehicles clear the 600 m off-road margin ≈ 20 s after passing
        // the 4 km mark; use a horizon long enough for that.
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(40));
        let mut w = World::new(cfg, None, 6);
        w.run_until(SimTime::from_secs(35));
        let exited: Vec<VehicleId> =
            w.traffic().all_vehicles().iter().filter(|v| v.exited).map(|v| v.id).collect();
        assert!(!exited.is_empty(), "nobody exited in 35 s");
        for vid in exited {
            let node = w.vehicle_node(vid);
            assert!(!w.medium.is_active(node));
        }
    }

    #[test]
    fn depth_gauges_sample_only_active_routers() {
        // By 35 s vehicles have exited; their frozen routers must not be
        // sampled. Step one traffic step at a time: each per-node sample
        // covers exactly the routers whose node is on the air.
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(40));
        let mut w = World::new(cfg, None, 6);
        w.run_until(SimTime::from_secs(35));
        let registry = geonet_sim::shared_registry();
        w.set_telemetry(registry.clone());
        let active_routers = |w: &World| {
            w.legit_nodes().into_iter().filter(|&n| w.medium.is_active(n)).count() as u64
        };
        assert!(active_routers(&w) < w.legit_nodes().len() as u64, "nobody exited in 35 s");
        let count = |name: &str| registry.borrow().histogram(name).map_or(0, |h| h.count());
        let mut samples = 0;
        for step in 1..=20 {
            let before = count("loct_size_per_node");
            w.run_until(SimTime::from_secs(35) + SimDuration::from_millis(100 * step));
            let taken = count("loct_size_per_node") - before;
            if taken > 0 {
                samples += 1;
                assert_eq!(taken, active_routers(&w), "at step {step}");
            }
        }
        assert!(samples >= 2, "sampled {samples} times in 2 s");
        let total = count("loct_size_per_node");
        assert_eq!(count("cbf_buffer_per_node"), total);
        assert_eq!(count("dup_cache_per_node"), total);
    }

    #[test]
    fn frame_loss_is_deterministic_and_lossy() {
        let cfg = short_cfg().with_frame_loss(0.3);
        let run = |seed| {
            let mut w = World::new(cfg, None, seed);
            w.run_until(SimTime::from_secs(10));
            (w.frames_on_air(), w.aggregate_stats().beacons_accepted)
        };
        let (frames_a, accepted_a) = run(5);
        assert_eq!((frames_a, accepted_a), run(5), "loss must be seeded");
        // Compare against the lossless world: same frames transmitted,
        // fewer accepted.
        let mut lossless = World::new(short_cfg(), None, 5);
        lossless.run_until(SimTime::from_secs(10));
        let accepted_lossless = lossless.aggregate_stats().beacons_accepted;
        assert!(
            accepted_a < accepted_lossless * 8 / 10,
            "30% loss dropped too little: {accepted_a} vs {accepted_lossless}"
        );
    }

    #[test]
    fn link_ack_retries_appear_in_world_stats() {
        let mut cfg = short_cfg();
        cfg.gn = cfg.gn.with_link_ack(geonet::config::LinkAckConfig::default());
        let mut w = World::new(cfg, Some(AttackerSetup::InterArea), 7);
        w.run_until(SimTime::from_secs(6));
        // Keep originating packets (whose first choice may be poisoned)
        // until one of them needs an ack retry; how soon that happens
        // depends on which random senders sit near the phantom entry.
        for t in 7..=19 {
            if let Some(vid) = w.random_on_road_vehicle() {
                let node = w.vehicle_node(vid);
                let _ = w.originate_from(
                    node,
                    &Area::circle(Position::new(4_020.0, 0.0), 40.0),
                    vec![1],
                );
            }
            w.run_until(SimTime::from_secs(t));
            if w.aggregate_stats().gf_ack_retries > 0 {
                break;
            }
        }
        let agg = w.aggregate_stats();
        assert!(agg.gf_ack_retries > 0, "no retries despite poisoning: {agg:?}");
    }

    #[test]
    fn mobile_attacker_moves_with_the_clock() {
        let cfg = short_cfg().with_attacker_velocity(30.0);
        let mut w = World::new(cfg, Some(AttackerSetup::InterArea), 8);
        w.run_until(SimTime::from_secs(10));
        let atk = w.attacker().unwrap();
        let expected_x = cfg.attacker_position.x + 30.0 * 10.0;
        assert!(
            (atk.position().x - expected_x).abs() < 5.0,
            "attacker at {} after 10 s, expected ≈{expected_x}",
            atk.position().x
        );
    }

    #[test]
    fn topo_observer_samples_and_grades_gradients() {
        use geonet_sim::shared_topo;
        let recorder = shared_topo(SimDuration::from_secs(2));
        let mut w = World::new(short_cfg(), Some(AttackerSetup::InterArea), 11);
        w.set_topo_observer(recorder.clone());
        w.set_topo_destination(Position::new(4_020.0, 0.0));
        w.run_until(SimTime::from_secs(9));
        let rec = recorder.borrow();
        // 20 s horizon sampled every 2 s of the first 9: t≈0.1,2,4,6,8.
        assert!(rec.samples().len() >= 4, "only {} snapshots", rec.samples().len());
        let last = rec.samples().last().unwrap();
        // The attacker is present, flagged and covering vehicles.
        assert_eq!(last.coverage.len(), 1);
        assert!(last.coverage[0].fraction > 0.0, "attacker covers nobody");
        // After 8 s of replayed beacons, some routers inside coverage
        // hold gradients towards phantom (unreachable) neighbours.
        assert!(
            !last.nodes_with_gradient(GradientHealth::Poisoned).is_empty(),
            "no poisoned gradients despite interception attack"
        );
        // The healthy majority still exists.
        assert!(!last.nodes_with_gradient(GradientHealth::Healthy).is_empty());
    }

    #[test]
    fn topo_snapshot_detached_world_matches_attached() {
        // topo_snapshot is a pure read: attaching the observer must not
        // perturb the simulation history.
        let run = |attach: bool| {
            let mut w = World::new(short_cfg(), Some(AttackerSetup::InterArea), 12);
            if attach {
                w.set_topo_observer(geonet_sim::shared_topo(SimDuration::from_secs(1)));
                w.set_topo_destination(Position::new(4_020.0, 0.0));
            }
            w.run_until(SimTime::from_secs(6));
            (w.events_processed(), w.frames_on_air(), w.audit_checkpoint().combined)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn audit_checkpoint_detached_world_matches_attached() {
        // audit_checkpoint is a pure read too: attaching the auditor
        // samples the timeline without perturbing the history.
        let run = |attach: bool| {
            let mut w = World::new(short_cfg(), Some(AttackerSetup::InterArea), 12);
            let auditor = geonet_sim::shared_auditor(SimDuration::from_secs(1));
            if attach {
                w.set_auditor(auditor.clone());
            }
            w.run_until(SimTime::from_secs(6));
            let sampled = auditor.borrow().samples().len();
            (sampled > 0, (w.events_processed(), w.frames_on_air(), w.audit_checkpoint().combined))
        };
        let (detached_sampled, detached) = run(false);
        let (attached_sampled, attached) = run(true);
        assert!(!detached_sampled && attached_sampled);
        assert_eq!(detached, attached);
    }

    #[test]
    fn aggregate_stats_sums_every_router_counter() {
        // Buffer-retry makes greedy forwarding buffer packets it cannot
        // advance; a destination past the east end of the road
        // guarantees that at the easternmost forwarder.
        let mut cfg = short_cfg();
        cfg.gn = cfg.gn.with_no_progress(geonet::config::NoProgressPolicy::BufferRetry {
            delay: SimDuration::from_millis(500),
            max_attempts: 2,
        });
        let sink = geonet_sim::shared(geonet_sim::VecSink::new());
        let mut w = World::new(cfg, Some(AttackerSetup::InterArea), 13);
        w.set_trace_sink(sink.clone());
        let far_east = Area::circle(Position::new(6_000.0, 0.0), 40.0);
        for t in 4..=10 {
            w.run_until(SimTime::from_secs(t));
            if let Some(vid) = w.random_on_road_vehicle() {
                let _ = w.originate_from(w.vehicle_node(vid), &far_east, vec![1]);
            }
        }
        w.run_until(SimTime::from_secs(14));
        let agg = w.aggregate_stats();
        assert!(agg.gf_buffered > 0 && agg.gf_dropped > 0, "no buffering exercised: {agg:?}");
        // Every router's counters are the fold of its own trace events,
        // so folding the legit nodes' events is the field-wise sum.
        let legit: BTreeSet<u32> = w.legit_nodes().iter().map(|n| n.0).collect();
        let mut sum = geonet::RouterStats::default();
        for r in sink.borrow().records().iter().filter(|r| legit.contains(&r.node)) {
            sum.record(&r.event);
        }
        assert_eq!(agg, sum);
    }

    #[test]
    fn events_stay_small() {
        // Inlining a `Frame` into an event would put ~200 bytes back on
        // every heap move; frames ride in an `Rc<OnAir>` or a `Box`.
        assert!(std::mem::size_of::<Ev>() <= 40, "Ev is {} bytes", std::mem::size_of::<Ev>());
    }

    #[test]
    fn debug_is_informative() {
        let w = World::new(short_cfg(), None, 9);
        let s = format!("{w:?}");
        assert!(s.contains("on_road"), "{s}");
    }
}
