//! Oracle for the beacon log. Every world logs its beacons, and a router
//! folds its inbox only when it is read; what is attached changes what is
//! recorded, never what is logged or folded. A world with a trace sink
//! traces each logged reception in event order; a bare world has nothing
//! attached; a world with a telemetry registry times its hot paths and
//! steps its traffic inline. All three must agree on everything
//! observable at every checkpoint: event count, clock, audit digest,
//! aggregate router counters, the location tables themselves, and the
//! beacon log's records and inbox entries.
//!
//! The folds are also checked against a reference read from the traced
//! world's records alone ([`Reference`]): each router's counters are
//! the fold of its node's records, as `RouterStats::record` defines them,
//! and each live location-table entry expires a TTL after the last beacon
//! the node accepted from that address. The record stream itself is
//! pinned, as recorded when every beacon was a delivery event of its own
//! through `GnRouter::receive`, by `golden_traces_are_pinned` in
//! `audit.rs`.

use geonet::config::LinkAckConfig;
use geonet::RouterStats;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::NodeId;
use geonet_scenarios::{AttackerSetup, NodeKind, ScenarioConfig, World};
use geonet_sim::{
    shared, shared_registry, AttackKind, SimDuration, SimTime, TraceEvent, TraceRecord, VecSink,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The same world three times: `traced` with a trace sink, `bare` with
/// nothing attached and `timed` with a telemetry registry.
struct Worlds {
    traced: World,
    bare: World,
    timed: World,
    sink: Rc<RefCell<VecSink>>,
    reference: RefCell<Reference>,
}

impl Worlds {
    fn new(cfg: ScenarioConfig, setup: Option<AttackerSetup>, seed: u64) -> Self {
        let sink = shared(VecSink::new());
        let mut traced = World::new(cfg, setup, seed);
        traced.set_trace_sink(sink.clone());
        let bare = World::new(cfg, setup, seed);
        let mut timed = World::new(cfg, setup, seed);
        timed.set_telemetry(shared_registry());
        Worlds { traced, bare, timed, sink, reference: RefCell::default() }
    }

    fn all(&mut self, mut f: impl FnMut(&mut World)) {
        f(&mut self.traced);
        f(&mut self.bare);
        f(&mut self.timed);
    }

    fn run_until(&mut self, t: SimTime) {
        self.all(|w| w.run_until(t));
    }

    fn add_destinations(&mut self) {
        self.all(|w| {
            add_destinations(w);
        });
    }

    fn originate(&mut self) {
        self.all(originate);
    }

    /// Asserts that the traced and the timed world agree with the bare
    /// one on everything observable, and the bare one with the reference
    /// read from the trace.
    fn assert_same(&self, context: &str) {
        assert_agree(&self.traced, &self.bare, &format!("{context}, traced"));
        assert_agree(&self.timed, &self.bare, &format!("{context}, timed"));
        let mut reference = self.reference.borrow_mut();
        reference.read(self.sink.borrow().records());
        reference.assert_matches(&self.bare, context);
    }
}

/// Asserts that `w` agrees with `b` on everything observable.
fn assert_agree(w: &World, b: &World, context: &str) {
    assert_eq!(w.now(), b.now(), "{context}: clock");
    assert_eq!(w.events_processed(), b.events_processed(), "{context}: events");
    assert_eq!(w.aggregate_stats(), b.aggregate_stats(), "{context}: router counters");
    for node in b.legit_nodes().into_iter().step_by(5) {
        assert_eq!(loct(w, node), loct(b, node), "{context}: LocT of {node}");
        assert_eq!(w.router(node).stats(), b.router(node).stats(), "{context}: {node}");
    }
    assert_eq!(w.audit_checkpoint().combined, b.audit_checkpoint().combined, "{context}: audit");
    let (ws, bs) = (w.beacon_log_stats(), b.beacon_log_stats());
    assert_eq!(ws.records_logged, bs.records_logged, "{context}: records logged");
    assert_eq!(ws.inbox_entries, bs.inbox_entries, "{context}: inbox entries");
}

/// What a traced world's records say each router holds, read from the
/// records alone: its counters, and when it last accepted a beacon from
/// each address.
#[derive(Default)]
struct Reference {
    /// Records read so far.
    read: usize,
    stats: HashMap<u32, RouterStats>,
    accepted: HashMap<u32, BTreeMap<u64, SimTime>>,
}

impl Reference {
    /// Reads the records added since the last call.
    fn read(&mut self, records: &[TraceRecord]) {
        for r in &records[self.read..] {
            self.stats.entry(r.node).or_default().record(&r.event);
            if let TraceEvent::BeaconAccepted { from } = r.event {
                self.accepted.entry(r.node).or_default().insert(from, r.at);
            }
        }
        self.read = records.len();
    }

    /// Asserts that every router of `w` has the reference's counters, and
    /// every fifth one a live location-table entry, with the reference's
    /// expiry, for exactly the addresses it accepted a beacon from within
    /// a TTL.
    fn assert_matches(&self, w: &World, context: &str) {
        let ttl = w.config().gn.loct_ttl;
        for node in w.legit_nodes() {
            let stats = self.stats.get(&node.0).copied().unwrap_or_default();
            assert_eq!(w.router(node).stats(), stats, "{context}: reference counters of {node}");
        }
        for node in w.legit_nodes().into_iter().step_by(5) {
            let live: Vec<(u64, SimTime)> =
                loct(w, node).into_iter().map(|(addr, e)| (addr, e.expires)).collect();
            let expected: Vec<(u64, SimTime)> = self
                .accepted
                .get(&node.0)
                .into_iter()
                .flatten()
                .map(|(&addr, &at)| (addr, at + ttl))
                .filter(|&(_, expires)| expires > w.now())
                .collect();
            assert_eq!(live, expected, "{context}: reference LocT of {node}");
        }
    }
}

/// The destination areas 20 m past each road end, like the interception
/// workload's.
fn destinations(w: &World) -> [Area; 2] {
    let length = w.config().road.length;
    [length + 20.0, -20.0].map(|x| Area::circle(Position::new(x, 0.0), 40.0))
}

/// Adds static nodes at the destinations.
fn add_destinations(w: &mut World) {
    let range = w.config().v2v_range;
    for area in destinations(w) {
        w.add_static_node(area.center(), range);
    }
}

/// One packet from a random on-road vehicle: greedy towards a
/// destination, or a road-wide CBF flood.
fn originate(w: &mut World) {
    let length = w.config().road.length;
    let road = Area::rectangle(Position::new(length / 2.0, 0.0), length / 2.0 + 50.0, 25.0, 90.0);
    let Some(vid) = w.random_on_road_vehicle() else { return };
    let area = match (w.workload_coin(), w.workload_coin()) {
        (true, east) => destinations(w)[usize::from(!east)],
        (false, _) => road,
    };
    let _ = w.originate_from(w.vehicle_node(vid), &area, vec![0x0A]);
}

/// Runs the workload of the random-world oracle for `seconds`: a packet
/// after each whole second.
fn drive(w: &mut World, seconds: u64) {
    add_destinations(w);
    for s in 1..=seconds {
        w.run_until(SimTime::from_secs(s));
        originate(w);
    }
}

/// A router's live location-table entries, in address order.
fn loct(w: &World, node: NodeId) -> Vec<(u64, geonet::LocTEntry)> {
    let router = w.router(node);
    let mut entries: Vec<_> =
        router.loct().live_entries(w.now()).map(|(a, e)| (a.to_u64(), e)).collect();
    entries.sort_unstable_by_key(|&(a, _)| a);
    entries
}

fn short(two_way: bool) -> ScenarioConfig {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(4));
    if two_way {
        // A 2 km two-way road keeps the case small.
        let mut cfg = cfg.with_two_way(true);
        cfg.road.length = 2_000.0;
        cfg.attacker_position = Position::new(1_000.0, -12.0);
        cfg
    } else {
        cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn traced_bare_and_timed_worlds_agree(
        two_way in any::<bool>(),
        attack in 0u8..3,
        lossy in any::<bool>(),
        zero_delay in any::<bool>(),
        link_ack in any::<bool>(),
        mobile in any::<bool>(),
        short_ttl in any::<bool>(),
        fast_beacons in any::<bool>(),
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 6..7),
    ) {
        let mut cfg = short(two_way);
        if lossy {
            cfg = cfg.with_frame_loss(0.3);
        }
        if link_ack {
            cfg.gn = cfg.gn.with_link_ack(LinkAckConfig::default());
        }
        if mobile {
            cfg = cfg.with_attacker_velocity(30.0);
        }
        // A 2 s TTL lets location-table entries expire within the run;
        // 0.3 s beacons fill inboxes faster, and together they retire
        // records.
        if short_ttl {
            cfg = cfg.with_loct_ttl(SimDuration::from_secs(2));
        }
        if fast_beacons {
            cfg.gn.beacon_interval = SimDuration::from_millis(300);
            cfg.gn.beacon_jitter = SimDuration::from_millis(75);
        }
        let setup = match attack {
            0 => None,
            1 => Some(AttackerSetup::InterArea),
            _ => Some(AttackerSetup::IntraArea(BlockageMode::ClampRhl)),
        };
        let delay = zero_delay.then_some(SimDuration::ZERO);
        // A traced probe run lists the beacon transmissions; checkpoints
        // at one of them and 1 µs later catch logged deliveries still on
        // the air. Reads do not change a history, so the worlds below
        // transmit at the same instants.
        let sink = shared(VecSink::new());
        let mut probe = World::new(cfg, setup, seed);
        probe.set_trace_sink(sink.clone());
        if let Some(d) = delay {
            probe.set_attacker_delay(d);
        }
        drive(&mut probe, 3);
        let sent: Vec<SimTime> = sink
            .borrow()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::FrameTx { beacon: true, .. }))
            .map(|r| r.at)
            .collect();
        let mut checkpoints: Vec<SimTime> = picks
            .iter()
            .map(|&i| sent[(i % sent.len() as u64) as usize])
            .flat_map(|t| [t, t + SimDuration::from_micros(1)])
            .collect();
        checkpoints.sort_unstable();

        let mut worlds = Worlds::new(cfg, setup, seed);
        if let Some(d) = delay {
            worlds.all(|w| w.set_attacker_delay(d));
        }
        worlds.add_destinations();
        for s in 1..=3 {
            let second = SimTime::from_secs(s);
            for &t in checkpoints.iter().filter(|&&t| t > second - SimDuration::from_secs(1) && t <= second) {
                worlds.run_until(t);
                worlds.assert_same(&t.to_string());
            }
            worlds.run_until(second);
            worlds.assert_same(&format!("t = {s} s"));
            worlds.originate();
            worlds.assert_same(&format!("after the packet of {s} s"));
        }
        worlds.run_until(SimTime::from_secs(5));
        worlds.assert_same("past the horizon");
        let stats = worlds.bare.beacon_log_stats();
        prop_assert!(stats.records_logged > 0);
    }
}

/// Inboxes nothing reads for a while are folded by the TTL sweep or
/// compacted on reaching their cap, and records retire behind them; the
/// checkpoints here are far apart so that those, not reads, do the work.
#[test]
fn ttl_and_cap_folds_match() {
    let mut cfg = short(true).with_loct_ttl(SimDuration::from_secs(2));
    cfg.duration = SimDuration::from_secs(8);
    cfg.gn.beacon_interval = SimDuration::from_millis(300);
    cfg.gn.beacon_jitter = SimDuration::from_millis(75);
    let mut worlds = Worlds::new(cfg, Some(AttackerSetup::InterArea), 25);
    worlds.run_until(SimTime::from_secs(3));
    let before = worlds.bare.beacon_log_stats();
    worlds.run_until(SimTime::from_secs(6));
    let after = worlds.bare.beacon_log_stats();
    worlds.assert_same("t = 6 s");
    assert!(after.folds_ttl > before.folds_ttl, "{after:?}");
    assert!(after.compactions > before.compactions, "{after:?}");
    assert!(after.records_retired > before.records_retired, "{after:?}");
    worlds.run_until(SimTime::from_secs(8));
    worlds.assert_same("t = 8 s");
}

/// A packet from a random on-road vehicle, greedy towards the east
/// destination.
fn originate_east(w: &mut World) {
    let Some(vid) = w.random_on_road_vehicle() else { return };
    let _ = w.originate_from(w.vehicle_node(vid), &destinations(w)[0], vec![0x0E]);
}

/// A greedy unicast reaches every node in range, and all but its addressee
/// drop it at the address filter, which reads nothing a beacon changes:
/// the bare world folds the addressee's inbox and no other. Each
/// delivery to an addressee makes at most one fold, so over a stretch of
/// a forwarding chain with no broadcast in it the folds number at most
/// the unicasts, while the overheard copies are many times that.
#[test]
fn overheard_unicast_folds_only_its_addressee() {
    let cfg = short(false);
    let sink = shared(VecSink::new());
    let mut probe = World::new(cfg, None, 27);
    probe.set_trace_sink(sink.clone());
    add_destinations(&mut probe);
    for s in 1..=3 {
        probe.run_until(SimTime::from_secs(s));
        originate_east(&mut probe);
    }
    probe.run_until(SimTime::from_secs(4));
    let records = sink.borrow().records().to_vec();
    let us = SimDuration::from_micros;
    let routed_tx = |from: SimTime, to: SimTime| {
        records.iter().filter(move |r| from <= r.at && r.at <= to).filter_map(|r| match r.event {
            TraceEvent::FrameTx { beacon: false, dst, .. } => Some(dst),
            _ => None,
        })
    };
    // A forwarding hop between whole seconds, whose window holds
    // unicasts only (no flood, no packet reaching its area).
    let (start, end) = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FrameTx { beacon: false, dst: Some(_), .. }))
        .filter(|r| r.at.as_micros() % 1_000_000 != 0)
        .map(|r| (r.at - us(1), r.at + us(20)))
        .find(|&(start, end)| routed_tx(start - us(15), end).all(|dst| dst.is_some()))
        .expect("a forwarded greedy unicast");
    let unicasts = routed_tx(start - us(15), end).count() as u64;
    let routed_rx = records
        .iter()
        .filter(|r| start < r.at && r.at <= end)
        .filter(|r| matches!(r.event, TraceEvent::FrameRx { beacon: false, .. }))
        .count() as u64;
    assert!(routed_rx >= 4 * unicasts, "{routed_rx} receptions of {unicasts} unicasts");

    let mut worlds = Worlds::new(cfg, None, 27);
    worlds.add_destinations();
    for s in 1..=3 {
        worlds.run_until(SimTime::from_secs(s));
        worlds.all(originate_east);
        if start < SimTime::from_secs(s + 1) {
            // No checkpoint before the window: its audit digest would
            // fold every inbox.
            worlds.run_until(start);
            let before = worlds.bare.beacon_log_stats().folds_read;
            worlds.run_until(end);
            let folds = worlds.bare.beacon_log_stats().folds_read - before;
            worlds.assert_same("after the unicasts");

            assert!(folds <= unicasts, "{folds} folds for {unicasts} unicasts");
            return;
        }
    }
    panic!("no forwarded unicast after the last packet");
}

/// A vehicle leaves the road in the traffic step between a beacon's
/// transmission and its arrival: its inbox entry is dropped, and the
/// traced world delivers nothing to it.
///
/// A replay by the interception attacker is placed at will: sniff times
/// of ordinary beacons do not depend on the attacker's processing delay,
/// so a probe run finds an exit step `T` and a sniff `a` before it, and
/// a delay of `T − 1 µs − a` puts that beacon's replay on the air 1 µs
/// before the step.
#[test]
fn receiver_exits_between_transmission_and_arrival() {
    let mut cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(30));
    // Short off-road margin and the attacker at the exit: vehicles leave
    // within seconds, inside its range.
    cfg.road.offroad_margin = 100.0;
    cfg.attacker_position = Position::new(4_050.0, -12.0);
    let setup = Some(AttackerSetup::InterArea);

    // Probe: the first exit step and the attacker's sniffs before it.
    let sink = shared(VecSink::new());
    let mut probe = World::new(cfg, setup, 21);
    probe.set_trace_sink(sink.clone());
    let step = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let exit_step = loop {
        t += step;
        probe.run_until(t);
        if probe.traffic().all_vehicles().iter().any(|v| v.exited) {
            break t;
        }
        assert!(t < SimTime::from_secs(20), "nobody left the road");
    };
    let records = sink.borrow().records().to_vec();
    let atk = records
        .iter()
        .find(|r| {
            matches!(
                r.event,
                TraceEvent::AttackAction { kind: AttackKind::InterceptionCapture, .. }
            )
        })
        .expect("the attacker captured beacons")
        .node;
    let sniff = records
        .iter()
        .filter(|r| r.node == atk && matches!(r.event, TraceEvent::FrameRx { beacon: true, .. }))
        .map(|r| r.at)
        .filter(|&at| at + SimDuration::from_micros(2) < exit_step)
        .max()
        .expect("a sniff before the exit");
    let delay = exit_step - SimDuration::from_micros(1) - sniff;
    assert!(delay < SimDuration::from_secs(1), "replay too old to stay fresh: {delay}");

    let mut worlds = Worlds::new(cfg, setup, 21);
    worlds.all(|w| w.set_attacker_delay(delay));
    worlds.run_until(exit_step - SimDuration::from_micros(2));
    worlds.assert_same("before the replay");
    let before = worlds.bare.beacon_log_stats().exit_drops;
    worlds.run_until(exit_step);
    worlds.assert_same("at the exit step");
    worlds.run_until(exit_step + SimDuration::from_millis(1));
    worlds.assert_same("after the exit step");
    assert!(
        worlds.bare.beacon_log_stats().exit_drops > before,
        "no logged delivery was in flight to the leaving vehicle"
    );
}

/// With no processing delay, a replay and its original reach a receiver
/// in the same microsecond whenever the detour through the attacker
/// rounds to the direct path's delay. Both are accepted, the original
/// first.
#[test]
fn replay_in_the_same_microsecond_as_the_original() {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(4));
    let mut worlds = Worlds::new(cfg, Some(AttackerSetup::InterArea), 22);
    worlds.all(|w| w.set_attacker_delay(SimDuration::ZERO));
    for ms in (500..=4_000).step_by(500) {
        worlds.run_until(SimTime::from_millis(ms));
        worlds.assert_same(&format!("t = {ms} ms"));
    }
    // The trace shows a node accepting the same source twice in one µs.
    let records = worlds.sink.borrow().records().to_vec();
    let mut accepts: Vec<(u32, SimTime, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::BeaconAccepted { from } => Some((r.node, r.at, from)),
            _ => None,
        })
        .collect();
    let all = accepts.len();
    accepts.sort_unstable();
    accepts.dedup();
    assert!(accepts.len() < all, "no replay coincided with its original");
}

/// A trace sink attached mid-run traces from then on, while the beacons
/// that arrived before it wait in their inboxes: a world that attaches
/// one after 1 s stays the bare world's twin, and traces receptions. With
/// 0.3 s beacons a sender's next beacon often arrives before its
/// receiver has folded the last one, which a fold must not write over.
#[test]
fn trace_sink_attached_mid_run() {
    let mut cfg = short(true);
    cfg.gn.beacon_interval = SimDuration::from_millis(300);
    cfg.gn.beacon_jitter = SimDuration::from_millis(75);
    let setup = Some(AttackerSetup::InterArea);
    let mut late = World::new(cfg, setup, 28);
    let mut bare = World::new(cfg, setup, 28);
    let second = SimTime::from_secs(1);
    late.run_until(second);
    bare.run_until(second);
    let sink = shared(VecSink::new());
    late.set_trace_sink(sink.clone());
    for ms in (1_050..=4_000).step_by(50) {
        let t = SimTime::from_millis(ms) + SimDuration::from_micros(ms % 7);
        late.run_until(t);
        bare.run_until(t);
        if ms % 200 == 0 {
            assert_agree(&late, &bare, &t.to_string());
        }
    }
    assert_agree(&late, &bare, "at the end");
    let records = sink.borrow().records().to_vec();
    assert!(records.iter().all(|r| r.at >= second), "a record from before the attach");
    assert!(
        records.iter().any(|r| matches!(r.event, TraceEvent::FrameRx { beacon: true, .. })),
        "no beacon reception traced"
    );
}

/// A static node the driver moves each step, as Fig 13's driver does:
/// receptions at it follow its position, in both worlds.
#[test]
fn moved_static_node_matches() {
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(6));
    let mut worlds = Worlds::new(cfg, None, 23);
    let mut node = None;
    worlds.all(|w| {
        node = Some(w.add_static_node(Position::new(0.0, 8.0), 300.0));
    });
    let node = node.expect("added");
    for step in 1..=60 {
        let t = SimTime::from_millis(100 * step);
        worlds.run_until(t);
        let x = 60.0 * step as f64;
        worlds.all(|w| w.set_node_position(node, Position::new(x, 8.0)));
        if step % 10 == 0 {
            worlds.assert_same(&format!("step {step}"));
            assert_eq!(loct(&worlds.traced, node), loct(&worlds.bare, node), "step {step}");
        }
    }
    assert!(!loct(&worlds.bare, node).is_empty(), "the moving node heard nobody");
}

/// The horizon falls 1 µs after a beacon leaves, before any of its
/// arrivals: every receiver of a node 400 m off the road is at least
/// 2 µs away. Asked to run past the horizon, a world stops its clock
/// there, as it would on finding those deliveries queued as events,
/// although its kernel holds nothing at or just after the horizon.
#[test]
fn horizon_before_a_beacons_arrivals() {
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(4));
    let off_road = Position::new(2_000.0, 400.0);
    let sink = shared(VecSink::new());
    let mut probe = World::new(cfg, None, 24);
    probe.set_trace_sink(sink.clone());
    let node = probe.add_static_node(off_road, 600.0);
    probe.run_until(SimTime::from_secs(4));
    let sent = sink
        .borrow()
        .records()
        .iter()
        .find(|r| r.node == node.0 && matches!(r.event, TraceEvent::FrameTx { beacon: true, .. }))
        .map(|r| r.at)
        .expect("the off-road node beaconed");
    let horizon = sent + SimDuration::from_micros(1);
    let mut worlds = Worlds::new(cfg.with_duration(horizon - SimTime::ZERO), None, 24);
    worlds.all(|w| {
        w.add_static_node(off_road, 600.0);
    });
    worlds.run_until(sent);
    worlds.assert_same("at the transmission");
    worlds.run_until(horizon + SimDuration::from_micros(1));
    worlds.assert_same("past the horizon");
    assert_eq!(worlds.bare.now(), horizon);
}

/// A logged beacon whose receivers the radio's grid walk finds out of id
/// order, and which the attacker hears too. Inbox entries are appended in
/// walk order, but the deliveries' sequence numbers go by receiver id,
/// with the attacker's last: the traced world must deliver them in that
/// order, and an audit checkpoint and the event count taken while the
/// beacon is on the air must agree across the three worlds.
///
/// The grid has 486 m cells (the largest range registered) and visits
/// them by x cell, then y cell; the two-way road puts the west lanes in
/// the y cell below the east lanes. A receiver with a lower id in a later
/// cell than one with a higher id is visited after it, whatever the order
/// inside a cell.
#[test]
fn beacon_on_the_air_out_of_id_order() {
    let cfg = short(true);
    let setup = Some(AttackerSetup::InterArea);
    let sink = shared(VecSink::new());
    let mut probe = World::new(cfg, setup, 26);
    probe.set_trace_sink(sink.clone());
    probe.run_until(SimTime::from_secs(3));
    let nodes = probe.legit_nodes().len() as u32 + 1;
    assert!(nodes > 100, "with {nodes} nodes the radio scans instead of walking its grid");
    let atk = (0..nodes)
        .map(NodeId)
        .find(|&n| probe.node_kind(n) == NodeKind::Attacker)
        .expect("an attacker");
    let records = sink.borrow().records().to_vec();
    let window = SimDuration::from_micros(15);
    // Beacons by vehicles the attacker hears, with their receivers.
    let candidates: Vec<(SimTime, NodeId, Vec<NodeId>)> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FrameTx { beacon: true, .. }) && r.node != atk.0)
        .filter(|r| r.at.as_micros() % 100_000 != 0)
        .map(|r| {
            let from = probe.router(NodeId(r.node)).addr().to_u64();
            let heard: Vec<NodeId> = records
                .iter()
                .filter(|x| x.at > r.at && x.at <= r.at + window)
                .filter(|x| matches!(x.event, TraceEvent::FrameRx { from: f, .. } if f == from))
                .map(|x| NodeId(x.node))
                .collect();
            (r.at, NodeId(r.node), heard)
        })
        .filter(|(_, _, heard)| heard.contains(&atk))
        .collect();

    let cell = |p: Position| {
        let (qx, qy) = (p.x / 486.0, p.y / 486.0);
        let clear = (qx - qx.round()).abs() > 1e-6 && (qy - qy.round()).abs() > 1e-6;
        clear.then(|| (qx.floor() as i64, qy.floor() as i64))
    };
    let mut worlds = Worlds::new(cfg, setup, 26);
    for (sent, sender, heard) in candidates {
        worlds.run_until(sent - SimDuration::from_micros(1));
        let logged = worlds.bare.beacon_log_stats().records_logged;
        worlds.run_until(sent);
        assert!(worlds.bare.beacon_log_stats().records_logged > logged, "{sender}: not logged");
        let cells: Vec<(NodeId, Option<(i64, i64)>)> = heard
            .iter()
            .filter(|&&n| n != atk)
            .map(|&n| (n, cell(worlds.traced.node_position(n))))
            .collect();
        let out_of_order = cells.iter().any(|&(a, ca)| {
            cells.iter().any(|&(b, cb)| a < b && ca.is_some() && cb.is_some() && ca > cb)
        });
        if !out_of_order {
            continue;
        }
        worlds.assert_same(&format!("{sender} sends at {sent}"));
        for us in 1..=3 {
            worlds.run_until(sent + SimDuration::from_micros(us));
            worlds.assert_same(&format!("{us} µs after {sender} sent at {sent}"));
        }
        return;
    }
    panic!("no beacon the attacker heard reached its receivers out of id order");
}
