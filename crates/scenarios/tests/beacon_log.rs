//! Oracle for the beacon log. A world with a trace sink attached delivers
//! every frame as an event of its own; the same world without one logs
//! beacons and applies them to a router only when the router is read.
//! Both must agree on everything observable at every checkpoint: event
//! count, clock, audit digest, aggregate router counters and the
//! location tables themselves.

use geonet::config::LinkAckConfig;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::NodeId;
use geonet_scenarios::{AttackerSetup, NodeKind, ScenarioConfig, World};
use geonet_sim::{shared, AttackKind, SimDuration, SimTime, TraceEvent, VecSink};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The same world twice: `eager` with a trace sink, `logged` without.
struct Pair {
    eager: World,
    logged: World,
    sink: Rc<RefCell<VecSink>>,
}

impl Pair {
    fn new(cfg: ScenarioConfig, setup: Option<AttackerSetup>, seed: u64) -> Self {
        let sink = shared(VecSink::new());
        let mut eager = World::new(cfg, setup, seed);
        eager.set_trace_sink(sink.clone());
        let logged = World::new(cfg, setup, seed);
        Pair { eager, logged, sink }
    }

    fn both(&mut self, mut f: impl FnMut(&mut World)) {
        f(&mut self.eager);
        f(&mut self.logged);
    }

    fn run_until(&mut self, t: SimTime) {
        self.both(|w| w.run_until(t));
    }

    fn add_destinations(&mut self) {
        self.both(|w| {
            add_destinations(w);
        });
    }

    fn originate(&mut self) {
        self.both(originate);
    }

    /// Asserts that both worlds agree on everything observable. The
    /// logged world's `aggregate_stats` counts every inbox up to the
    /// barrier before it sums the router counters.
    fn assert_same(&self, context: &str) {
        let (e, l) = (&self.eager, &self.logged);
        assert_eq!(e.now(), l.now(), "{context}: clock");
        assert_eq!(e.events_processed(), l.events_processed(), "{context}: events");
        assert_eq!(e.aggregate_stats(), l.aggregate_stats(), "{context}: router counters");
        for node in e.legit_nodes().into_iter().step_by(5) {
            assert_eq!(loct(e, node), loct(l, node), "{context}: LocT of {node}");
            assert_eq!(e.router(node).stats(), l.router(node).stats(), "{context}: {node}");
        }
        assert_eq!(
            e.audit_checkpoint().combined,
            l.audit_checkpoint().combined,
            "{context}: audit digest"
        );
        assert_eq!(e.beacon_log_stats().records_logged, 0, "{context}: the traced world logged");
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
    fn logged_world_matches_eager_world(
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
        // the air. Reads do not change a history, so the pair below
        // transmits at the same instants.
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

        let mut pair = Pair::new(cfg, setup, seed);
        if let Some(d) = delay {
            pair.both(|w| w.set_attacker_delay(d));
        }
        pair.add_destinations();
        for s in 1..=3 {
            let second = SimTime::from_secs(s);
            for &t in checkpoints.iter().filter(|&&t| t > second - SimDuration::from_secs(1) && t <= second) {
                pair.run_until(t);
                pair.assert_same(&format!("t = {t}"));
            }
            pair.run_until(second);
            pair.assert_same(&format!("t = {s} s"));
            pair.originate();
            pair.assert_same(&format!("after the packet of {s} s"));
        }
        pair.run_until(SimTime::from_secs(5));
        pair.assert_same("past the horizon");
        let stats = pair.logged.beacon_log_stats();
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
    let mut pair = Pair::new(cfg, Some(AttackerSetup::InterArea), 25);
    pair.run_until(SimTime::from_secs(3));
    let before = pair.logged.beacon_log_stats();
    pair.run_until(SimTime::from_secs(6));
    let after = pair.logged.beacon_log_stats();
    pair.assert_same("t = 6 s");
    assert!(after.folds_ttl > before.folds_ttl, "{after:?}");
    assert!(after.compactions > before.compactions, "{after:?}");
    assert!(after.records_retired > before.records_retired, "{after:?}");
    pair.run_until(SimTime::from_secs(8));
    pair.assert_same("t = 8 s");
}

/// A packet from a random on-road vehicle, greedy towards the east
/// destination.
fn originate_east(w: &mut World) {
    let Some(vid) = w.random_on_road_vehicle() else { return };
    let _ = w.originate_from(w.vehicle_node(vid), &destinations(w)[0], vec![0x0E]);
}

/// A greedy unicast reaches every node in range, and all but its addressee
/// drop it at the address filter, which reads nothing a beacon changes:
/// the logged world folds the addressee's inbox and no other. Each
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

    let mut pair = Pair::new(cfg, None, 27);
    pair.add_destinations();
    for s in 1..=3 {
        pair.run_until(SimTime::from_secs(s));
        pair.both(originate_east);
        if start < SimTime::from_secs(s + 1) {
            // No checkpoint before the window: its audit digest would
            // fold every inbox.
            pair.run_until(start);
            let before = pair.logged.beacon_log_stats().folds_read;
            pair.run_until(end);
            let folds = pair.logged.beacon_log_stats().folds_read - before;
            pair.assert_same("after the unicasts");

            assert!(folds <= unicasts, "{folds} folds for {unicasts} unicasts");
            return;
        }
    }
    panic!("no forwarded unicast after the last packet");
}

/// A vehicle leaves the road in the traffic step between a beacon's
/// transmission and its arrival: the eager world drops the delivery to
/// the inactive node, and the logged world must drop its inbox entry.
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

    let mut pair = Pair::new(cfg, setup, 21);
    pair.both(|w| w.set_attacker_delay(delay));
    pair.run_until(exit_step - SimDuration::from_micros(2));
    pair.assert_same("before the replay");
    let before = pair.logged.beacon_log_stats().exit_drops;
    pair.run_until(exit_step);
    pair.assert_same("at the exit step");
    pair.run_until(exit_step + SimDuration::from_millis(1));
    pair.assert_same("after the exit step");
    assert!(
        pair.logged.beacon_log_stats().exit_drops > before,
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
    let mut pair = Pair::new(cfg, Some(AttackerSetup::InterArea), 22);
    pair.both(|w| w.set_attacker_delay(SimDuration::ZERO));
    for ms in (500..=4_000).step_by(500) {
        pair.run_until(SimTime::from_millis(ms));
        pair.assert_same(&format!("t = {ms} ms"));
    }
    // The eager trace shows a node accepting the same source twice in one µs.
    let records = pair.sink.borrow().records().to_vec();
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

/// A static node the driver moves each step, as Fig 13's driver does:
/// receptions at it follow its position, in both worlds.
#[test]
fn moved_static_node_matches() {
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(6));
    let mut pair = Pair::new(cfg, None, 23);
    let mut node = None;
    pair.both(|w| {
        node = Some(w.add_static_node(Position::new(0.0, 8.0), 300.0));
    });
    let node = node.expect("added");
    for step in 1..=60 {
        let t = SimTime::from_millis(100 * step);
        pair.run_until(t);
        let x = 60.0 * step as f64;
        pair.both(|w| w.set_node_position(node, Position::new(x, 8.0)));
        if step % 10 == 0 {
            pair.assert_same(&format!("step {step}"));
            assert_eq!(loct(&pair.eager, node), loct(&pair.logged, node), "step {step}");
        }
    }
    assert!(!loct(&pair.logged, node).is_empty(), "the moving node heard nobody");
}

/// The horizon falls 1 µs after a beacon leaves, before any of its
/// arrivals: every receiver of a node 400 m off the road is at least
/// 2 µs away. Asked to run past the horizon, the eager world stops its
/// clock there on finding those deliveries; so must the logged world,
/// whose kernel holds nothing at or just after the horizon.
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
    let mut pair = Pair::new(cfg.with_duration(horizon - SimTime::ZERO), None, 24);
    pair.both(|w| {
        w.add_static_node(off_road, 600.0);
    });
    pair.run_until(sent);
    pair.assert_same("at the transmission");
    pair.run_until(horizon + SimDuration::from_micros(1));
    pair.assert_same("past the horizon");
    assert_eq!(pair.logged.now(), horizon);
}

/// A logged beacon whose receivers the radio's grid walk finds out of id
/// order, and which the attacker hears too. The logged world appends its
/// inbox entries in walk order, but the deliveries' sequence numbers go
/// by receiver id, with the attacker's last: an audit checkpoint and the
/// event count taken while the beacon is on the air must match the eager
/// world's.
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
    let mut pair = Pair::new(cfg, setup, 26);
    for (sent, sender, heard) in candidates {
        pair.run_until(sent - SimDuration::from_micros(1));
        let logged = pair.logged.beacon_log_stats().records_logged;
        pair.run_until(sent);
        assert!(pair.logged.beacon_log_stats().records_logged > logged, "{sender}: not logged");
        let cells: Vec<(NodeId, Option<(i64, i64)>)> = heard
            .iter()
            .filter(|&&n| n != atk)
            .map(|&n| (n, cell(pair.eager.node_position(n))))
            .collect();
        let out_of_order = cells.iter().any(|&(a, ca)| {
            cells.iter().any(|&(b, cb)| a < b && ca.is_some() && cb.is_some() && ca > cb)
        });
        if !out_of_order {
            continue;
        }
        pair.assert_same(&format!("{sender} sends at {sent}"));
        for us in 1..=3 {
            pair.run_until(sent + SimDuration::from_micros(us));
            pair.assert_same(&format!("{us} µs after {sender} sent at {sent}"));
        }
        return;
    }
    panic!("no beacon the attacker heard reached its receivers out of id order");
}
