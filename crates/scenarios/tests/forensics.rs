//! Integration tests of the tracing + forensics chain: events emitted by
//! real routers and attackers, serialised through `JsonlSink`, parsed
//! back, reconstructed into hop traces and attributed.

use geonet::{CertificateAuthority, GnAddress, GnConfig, GnRouter, RouterAction};
use geonet_attack::{Attacker, BlockageMode, IntraAreaAttacker};
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_scenarios::campaign::outcomes_to_bins;
use geonet_scenarios::forensics::{hop_traces, AttributionReport, PacketFate};
use geonet_scenarios::Family;
use geonet_sim::{shared, JsonlSink, PacketRef, SimTime, TraceEvent, TraceRecord, Tracer, VecSink};

fn router(ca: &CertificateAuthority, addr: u64, tracer: Tracer) -> GnRouter {
    let mut r = GnRouter::new(
        ca.enroll(GnAddress::vehicle(addr)),
        ca.verifier(),
        GnConfig::paper_default(1_283.0),
        GeoReference::default(),
    );
    r.set_tracer(tracer);
    r
}

/// The acceptance scenario: a blockage-attack run recorded through a
/// `JsonlSink` yields a hop trace for the suppressed packet whose final
/// event is a CBF-timer cancellation attributed to the attacker's
/// duplicate.
#[test]
fn blockage_run_traced_through_jsonl_attributes_the_suppression() {
    let ca = CertificateAuthority::new(7);
    let sink = shared(JsonlSink::new(Vec::<u8>::new()));
    let root = Tracer::attached(sink.clone());

    // v1 at x=1000 originates a GeoBroadcast across the road; v2 at
    // x=1400 is in the area and arms a contention timer; the attacker
    // sniffs the first copy and replays it RHL-clamped, cancelling v2's
    // timer — the packet never spreads past v2.
    let t0 = SimTime::from_secs(1);
    let mut v1 = router(&ca, 1, root.for_node(1));
    let mut v2 = router(&ca, 2, root.for_node(2));
    let mut atk = Attacker::blockage(Position::new(1_400.0, -10.0), BlockageMode::ClampRhl);
    atk.set_tracer(root.for_node(99));

    let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
    let (key, actions) =
        v1.originate(&area, vec![0xCB], t0, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
    let RouterAction::Transmit(frame) = &actions[0] else { panic!("originate transmits") };

    // First copy reaches v2 (timer armed) and the attacker's sniffer.
    v2.handle_frame(frame, Position::new(1_400.0, 2.5), t0);
    let order = atk.on_sniff(frame, t0).expect("GBC packets are replayed");
    // The clamped duplicate arrives at v2 before its timer fires.
    v2.handle_frame(&order.frame, Position::new(1_400.0, 2.5), t0 + order.delay);
    assert_eq!(v2.stats().cbf_discards, 1, "the duplicate cancelled the timer");

    // Round-trip: the run's evidence is JSON Lines on disk.
    drop((v1, v2, atk, root));
    let bytes = std::rc::Rc::try_unwrap(sink)
        .expect("all tracer handles dropped")
        .into_inner()
        .into_inner()
        .expect("flush");
    let text = String::from_utf8(bytes).expect("utf-8");
    let records: Vec<TraceRecord> =
        text.lines().map(|l| TraceRecord::from_json(l).expect("parseable line")).collect();
    assert!(!records.is_empty());

    // The suppressed packet's hop trace ends in the cancellation, and
    // the cancellation names the attacker's pseudonym.
    let packet = PacketRef::new(key.source.to_u64(), key.sn.0);
    let traces = hop_traces(&records);
    let trace = &traces[&packet];
    let pseudonym = IntraAreaAttacker::DEFAULT_PSEUDONYM.to_u64();
    match trace.final_event().expect("non-empty trace").event {
        TraceEvent::CbfCancelled { packet: p, by } => {
            assert_eq!(p, packet);
            assert_eq!(by, pseudonym, "cancellation attributed to the attacker");
        }
        ref other => panic!("final event is {other:?}, not the cancellation"),
    }
    assert_eq!(trace.fate(Some(pseudonym)), PacketFate::Blocked { by: pseudonym });

    // And the per-run report counts it the same way.
    let report = AttributionReport::build(&records, Some(pseudonym));
    assert_eq!(report.blocked.get(&pseudonym), Some(&1));
    assert_eq!(report.delivered, 0);
    assert_eq!(report.attacker_cancellations, 1);
}

/// A full attacked inter-area world run: the attribution report pins the
/// losses on greedy forwards into phantom next hops, not on the radio.
#[test]
fn interception_world_run_attributes_losses_to_phantom_next_hops() {
    let cfg = Family::Interception.config(20);
    let sink = shared(VecSink::new());
    let mut w = Family::Interception.world(&cfg, true, 42);
    w.set_trace_sink(sink.clone());
    let sent = Family::Interception.drive(&cfg, &mut w, |_, _| {});
    let outcomes: Vec<_> = sent.iter().map(|s| s.outcome(&w)).collect();
    let bins = outcomes_to_bins(&outcomes, cfg.duration);
    let records = sink.borrow().records().to_vec();
    assert!(!records.is_empty());

    // The mN attacker intercepts essentially everything (paper γ≈1.0).
    let rate = bins.overall_rate().unwrap_or(0.0);
    assert!(rate < 0.5, "attacked reception rate {rate}");

    let report = AttributionReport::build(&records, None);
    assert!(report.total > 0, "vulnerable packets were traced");
    let intercepted: usize = report.intercepted.values().sum();
    assert!(intercepted > 0, "interception shows up as phantom-next-hop fates: {report}");
    // The interception attack leaves the radio blameless: losses are
    // routing decisions, not frame loss (the default channel is
    // lossless).
    assert_eq!(report.lost_to_radio, 0, "{report}");
    // Consistency: every traced packet lands in exactly one bucket.
    let buckets = report.delivered
        + report.lost_to_radio
        + report.lost_to_hop_limit
        + intercepted
        + report.blocked.values().sum::<usize>()
        + report.dropped.iter().sum::<usize>()
        + report.unresolved;
    assert_eq!(buckets, report.total);
}

/// Property tests: every `TraceEvent` variant — and with it every
/// `DropReason` and `AttackKind` — survives the JSONL serialize → parse
/// round trip unchanged, for arbitrary field values.
mod jsonl_roundtrip {
    use super::*;
    use geonet_sim::{AttackKind, DropReason};
    use proptest::prelude::*;

    fn arb_packet() -> impl Strategy<Value = PacketRef> {
        (any::<u64>(), any::<u16>()).prop_map(|(source, sn)| PacketRef::new(source, sn))
    }

    fn arb_drop_reason() -> impl Strategy<Value = DropReason> {
        prop::sample::select(DropReason::ALL.to_vec())
    }

    fn arb_attack_kind() -> impl Strategy<Value = AttackKind> {
        prop::sample::select(vec![
            AttackKind::InterceptionCapture,
            AttackKind::InterceptionReplay,
            AttackKind::BlockageReplay,
        ])
    }

    /// Road coordinates are finite by construction (`json::float` asserts
    /// it), so the strategy draws from a finite range.
    fn arb_coord() -> impl Strategy<Value = f64> {
        -1.0e9..1.0e9_f64
    }

    /// One strategy arm per `TraceEvent` variant; adding a variant
    /// without extending this list fails the exhaustiveness check in
    /// `every_variant_is_covered`.
    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            arb_packet().prop_map(|packet| TraceEvent::Originated { packet }),
            any::<u64>().prop_map(|from| TraceEvent::BeaconAccepted { from }),
            (prop::option::of(arb_packet()), prop::option::of(any::<u64>()), any::<bool>())
                .prop_map(|(packet, dst, beacon)| TraceEvent::FrameTx { packet, dst, beacon }),
            (prop::option::of(arb_packet()), any::<u64>(), any::<bool>())
                .prop_map(|(packet, from, beacon)| TraceEvent::FrameRx { packet, from, beacon }),
            (prop::option::of(arb_packet()), any::<u64>())
                .prop_map(|(packet, from)| TraceEvent::FrameLost { packet, from }),
            arb_packet().prop_map(|packet| TraceEvent::Delivered { packet }),
            arb_packet().prop_map(|packet| TraceEvent::DuplicateDiscarded { packet }),
            (arb_packet(), any::<u64>())
                .prop_map(|(packet, delay_us)| TraceEvent::CbfArmed { packet, delay_us }),
            (arb_packet(), any::<u64>())
                .prop_map(|(packet, by)| TraceEvent::CbfCancelled { packet, by }),
            arb_packet().prop_map(|packet| TraceEvent::CbfFired { packet }),
            (arb_packet(), any::<u64>())
                .prop_map(|(packet, by)| TraceEvent::CbfMitigationRejected { packet, by }),
            (arb_packet(), any::<u64>())
                .prop_map(|(packet, next_hop)| TraceEvent::GfNextHop { packet, next_hop }),
            arb_packet().prop_map(|packet| TraceEvent::GfFallback { packet }),
            (arb_packet(), any::<u32>())
                .prop_map(|(packet, attempt)| TraceEvent::GfBuffered { packet, attempt }),
            (arb_packet(), any::<u32>())
                .prop_map(|(packet, attempt)| TraceEvent::GfAckRetry { packet, attempt }),
            (arb_packet(), arb_drop_reason())
                .prop_map(|(packet, reason)| TraceEvent::Dropped { packet, reason }),
            (arb_attack_kind(), prop::option::of(arb_packet()))
                .prop_map(|(kind, packet)| TraceEvent::AttackAction { kind, packet }),
            arb_coord().prop_map(|x| TraceEvent::HazardOnset { x }),
            arb_coord().prop_map(|x| TraceEvent::Collision { x }),
        ]
    }

    proptest! {
        #[test]
        fn every_event_round_trips_through_jsonl(
            at_us in 0u64..1_000_000_000_000,
            node in any::<u32>(),
            event in arb_event(),
        ) {
            let record = TraceRecord { at: SimTime::from_micros(at_us), node, event };
            let line = record.to_json();
            prop_assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let parsed = TraceRecord::from_json(&line)
                .map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            prop_assert_eq!(parsed, record);
        }
    }

    /// The strategy above must keep covering the whole enum: exercise
    /// one concrete value of every variant through the round trip.
    #[test]
    fn every_variant_is_covered() {
        let p = PacketRef::new(0xAC0_0001, 7);
        let events = [
            TraceEvent::Originated { packet: p },
            TraceEvent::BeaconAccepted { from: 1 },
            TraceEvent::FrameTx { packet: Some(p), dst: Some(2), beacon: false },
            TraceEvent::FrameRx { packet: None, from: 3, beacon: true },
            TraceEvent::FrameLost { packet: Some(p), from: 4 },
            TraceEvent::Delivered { packet: p },
            TraceEvent::DuplicateDiscarded { packet: p },
            TraceEvent::CbfArmed { packet: p, delay_us: 50_000 },
            TraceEvent::CbfCancelled { packet: p, by: 5 },
            TraceEvent::CbfFired { packet: p },
            TraceEvent::CbfMitigationRejected { packet: p, by: 6 },
            TraceEvent::GfNextHop { packet: p, next_hop: 8 },
            TraceEvent::GfFallback { packet: p },
            TraceEvent::GfBuffered { packet: p, attempt: 1 },
            TraceEvent::GfAckRetry { packet: p, attempt: 2 },
            TraceEvent::Dropped { packet: p, reason: geonet_sim::DropReason::NoNextHop },
            TraceEvent::AttackAction {
                kind: geonet_sim::AttackKind::BlockageReplay,
                packet: Some(p),
            },
            TraceEvent::HazardOnset { x: 1_234.5 },
            TraceEvent::Collision { x: -0.5 },
        ];
        for event in events {
            // Compile-time exhaustiveness: a new variant breaks this match.
            match &event {
                TraceEvent::Originated { .. }
                | TraceEvent::BeaconAccepted { .. }
                | TraceEvent::FrameTx { .. }
                | TraceEvent::FrameRx { .. }
                | TraceEvent::FrameLost { .. }
                | TraceEvent::Delivered { .. }
                | TraceEvent::DuplicateDiscarded { .. }
                | TraceEvent::CbfArmed { .. }
                | TraceEvent::CbfCancelled { .. }
                | TraceEvent::CbfFired { .. }
                | TraceEvent::CbfMitigationRejected { .. }
                | TraceEvent::GfNextHop { .. }
                | TraceEvent::GfFallback { .. }
                | TraceEvent::GfBuffered { .. }
                | TraceEvent::GfAckRetry { .. }
                | TraceEvent::Dropped { .. }
                | TraceEvent::AttackAction { .. }
                | TraceEvent::HazardOnset { .. }
                | TraceEvent::Collision { .. } => {}
            }
            let record = TraceRecord { at: SimTime::from_secs(1), node: 9, event };
            let parsed = TraceRecord::from_json(&record.to_json()).expect("round trip");
            assert_eq!(parsed, record);
        }
    }
}
