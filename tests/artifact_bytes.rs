//! Golden encoding bytes for every artifact format.
//!
//! Round-trip tests pass even when an encoder and its decoder change the
//! same way, so this file pins the exact bytes of one fixture per format:
//! trace JSONL lines, a metrics snapshot, an `.audit.json` timeline, a
//! `.topo.json` timeline and a `.heatmap.json` grid. Fixtures built in
//! code must encode to the pinned text, and the pinned text must parse
//! and re-encode to itself.
//!
//! Regenerating after an intended format change: set each `*_GOLDEN`
//! constant to `""`, run `cargo test --test artifact_bytes`, and paste
//! the `left` value of each failing assertion back in (for the two
//! timelines, print `audit_timeline().to_json()` and
//! `topo_timeline().to_json()` instead). Review the byte diff: every
//! change in it is a change to a published format.

use geonet_scenarios::heatmap::RoadHeatmap;
use geonet_sim::{
    shared_registry, AttackKind, AuditArtifact, Checkpoint, DropReason, GradientHealth,
    MetricsSnapshot, PacketRef, SimDuration, SimTime, Telemetry, Timeline, TopoArtifact, TopoNode,
    TopoSnapshot, TraceEvent, TraceRecord,
};

/// One record per event variant (both shapes of every optional field),
/// with a source address above 2^53 so a round trip through `f64`
/// would show.
fn trace_records() -> Vec<TraceRecord> {
    let p = PacketRef::new(0x8000_0000_0000_2A01, 65_535);
    let events = vec![
        TraceEvent::Originated { packet: p },
        TraceEvent::BeaconAccepted { from: u64::MAX },
        TraceEvent::FrameTx { packet: Some(p), dst: Some(7), beacon: false },
        TraceEvent::FrameTx { packet: None, dst: None, beacon: true },
        TraceEvent::FrameRx { packet: Some(p), from: 3, beacon: false },
        TraceEvent::FrameRx { packet: None, from: 3, beacon: true },
        TraceEvent::FrameLost { packet: Some(p), from: 9 },
        TraceEvent::FrameLost { packet: None, from: 9 },
        TraceEvent::Delivered { packet: p },
        TraceEvent::DuplicateDiscarded { packet: p },
        TraceEvent::CbfArmed { packet: p, delay_us: 53_000 },
        TraceEvent::CbfCancelled { packet: p, by: 0xFFFF_FFFF_0000 },
        TraceEvent::CbfFired { packet: p },
        TraceEvent::CbfMitigationRejected { packet: p, by: 0xFFFF_FFFF_0000 },
        TraceEvent::GfNextHop { packet: p, next_hop: 88 },
        TraceEvent::GfFallback { packet: p },
        TraceEvent::GfBuffered { packet: p, attempt: 2 },
        TraceEvent::GfAckRetry { packet: p, attempt: u32::MAX },
        TraceEvent::Dropped { packet: p, reason: DropReason::NoNextHop },
        TraceEvent::AttackAction { kind: AttackKind::BlockageReplay, packet: Some(p) },
        TraceEvent::AttackAction { kind: AttackKind::InterceptionCapture, packet: None },
        TraceEvent::HazardOnset { x: 2_611.25 },
        TraceEvent::Collision { x: 0.1 },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceRecord {
            at: SimTime::from_micros(1_234_567 + i as u64),
            node: 4_000_000_000 + i as u32,
            event,
        })
        .collect()
}

const TRACE_GOLDEN: &str = r#"{"t_us":1234567,"node":4000000000,"ev":"originated","src":9223372036854786561,"sn":65535}
{"t_us":1234568,"node":4000000001,"ev":"beacon_accepted","from":18446744073709551615}
{"t_us":1234569,"node":4000000002,"ev":"frame_tx","src":9223372036854786561,"sn":65535,"dst":7,"beacon":false}
{"t_us":1234570,"node":4000000003,"ev":"frame_tx","beacon":true}
{"t_us":1234571,"node":4000000004,"ev":"frame_rx","src":9223372036854786561,"sn":65535,"from":3,"beacon":false}
{"t_us":1234572,"node":4000000005,"ev":"frame_rx","from":3,"beacon":true}
{"t_us":1234573,"node":4000000006,"ev":"frame_lost","src":9223372036854786561,"sn":65535,"from":9}
{"t_us":1234574,"node":4000000007,"ev":"frame_lost","from":9}
{"t_us":1234575,"node":4000000008,"ev":"delivered","src":9223372036854786561,"sn":65535}
{"t_us":1234576,"node":4000000009,"ev":"duplicate_discarded","src":9223372036854786561,"sn":65535}
{"t_us":1234577,"node":4000000010,"ev":"cbf_armed","src":9223372036854786561,"sn":65535,"delay_us":53000}
{"t_us":1234578,"node":4000000011,"ev":"cbf_cancelled","src":9223372036854786561,"sn":65535,"by":281474976645120}
{"t_us":1234579,"node":4000000012,"ev":"cbf_fired","src":9223372036854786561,"sn":65535}
{"t_us":1234580,"node":4000000013,"ev":"cbf_mitigation_rejected","src":9223372036854786561,"sn":65535,"by":281474976645120}
{"t_us":1234581,"node":4000000014,"ev":"gf_next_hop","src":9223372036854786561,"sn":65535,"next_hop":88}
{"t_us":1234582,"node":4000000015,"ev":"gf_fallback","src":9223372036854786561,"sn":65535}
{"t_us":1234583,"node":4000000016,"ev":"gf_buffered","src":9223372036854786561,"sn":65535,"attempt":2}
{"t_us":1234584,"node":4000000017,"ev":"gf_ack_retry","src":9223372036854786561,"sn":65535,"attempt":4294967295}
{"t_us":1234585,"node":4000000018,"ev":"dropped","src":9223372036854786561,"sn":65535,"reason":"no_next_hop"}
{"t_us":1234586,"node":4000000019,"ev":"attack_action","kind":"blockage_replay","src":9223372036854786561,"sn":65535}
{"t_us":1234587,"node":4000000020,"ev":"attack_action","kind":"interception_capture"}
{"t_us":1234588,"node":4000000021,"ev":"hazard_onset","x":2611.25}
{"t_us":1234589,"node":4000000022,"ev":"collision","x":0.1}
"#;

#[test]
fn trace_lines_are_pinned() {
    let records = trace_records();
    let lines: Vec<String> = records.iter().map(TraceRecord::to_json).collect();
    assert_eq!(lines.join("\n") + "\n", TRACE_GOLDEN);
    for (line, record) in TRACE_GOLDEN.lines().zip(&records) {
        assert_eq!(&TraceRecord::from_json(line).expect("golden line parses"), record);
    }
}

fn metrics_snapshot() -> MetricsSnapshot {
    let reg = shared_registry();
    let t = Telemetry::attached(reg.clone());
    t.add("frames_total", 42);
    t.gauge("queue_len", 3.0);
    t.gauge("queue_len", 8.5);
    for v in [5u64, 120, 4_000, 4_000, 80_000] {
        t.observe("handle_frame_ns", v);
    }
    let snap = reg.borrow().snapshot();
    snap
}

const METRICS_GOLDEN: &str = r#"{"counters":{"frames_total":42},"gauges":{"queue_len":{"last":8.5,"count":2,"mean":5.75,"min":3.0,"max":8.5}},"histograms":{"handle_frame_ns":{"count":5,"sum":88125,"max":80000,"p50":4095,"p95":80000,"p99":80000,"buckets":[[5,1],[127,1],[4095,2],[81919,1]]}}}"#;

#[test]
fn metrics_snapshot_is_pinned() {
    let snap = metrics_snapshot();
    assert_eq!(snap.to_json(), METRICS_GOLDEN);
    assert_eq!(MetricsSnapshot::from_json(METRICS_GOLDEN).expect("golden parses"), snap);
}

fn audit_timeline() -> Timeline<Checkpoint> {
    let mut tl = Timeline::new(SimDuration::from_secs(1));
    tl.set_meta("seed", "42");
    tl.set_meta("scenario", "interarea");
    for (s, rng) in [(0, 10), (1, u64::MAX)] {
        let mut b = Checkpoint::builder(SimTime::from_secs(s));
        b.push("rng", rng);
        b.push("routers", 7);
        tl.record(b.finish());
    }
    tl
}

const AUDIT_GOLDEN: &str = r#"{"meta":{"scenario":"interarea","seed":"42"},"interval_us":1000000,"checkpoints":[
{"t_us":0,"combined":13461901757516044149,"components":{"rng":10,"routers":7}},
{"t_us":1000000,"combined":1074889974812003547,"components":{"rng":18446744073709551615,"routers":7}}
]}
"#;

#[test]
fn audit_timeline_is_pinned() {
    let parsed = AuditArtifact::from_json(AUDIT_GOLDEN).expect("golden parses");
    assert_eq!(parsed.to_json(), AUDIT_GOLDEN);
    // The parser re-derives each combined hash; pin the builder's too.
    for cp in audit_timeline().samples() {
        let item = format!("{{\"t_us\":{},\"combined\":{},", cp.at.as_micros(), cp.combined);
        assert!(AUDIT_GOLDEN.contains(&item), "missing {item}");
    }
}

fn topo_timeline() -> Timeline<TopoSnapshot> {
    let mut tl = Timeline::new(SimDuration::from_secs(1));
    tl.set_meta("seed", "42");
    tl.set_meta("scenario", "interception");
    tl.record(TopoSnapshot::build(
        SimTime::ZERO,
        Some((4_020.0, 0.5)),
        vec![
            TopoNode::new(0, 0.0, 0.0, 150.0, false),
            TopoNode::new(1, 100.0, 2.5, 150.0, false).with_gradient(GradientHealth::Healthy),
            TopoNode::new(2, 200.0, 0.0, 150.0, false).with_gradient(GradientHealth::Poisoned),
            TopoNode::new(9, 350.0, -12.0, 400.0, true),
        ],
    ));
    tl.record(TopoSnapshot::build(
        SimTime::from_secs(1),
        None,
        vec![
            TopoNode::new(0, 30.0, 0.0, 150.0, false),
            TopoNode::new(1, 1_000.0, 0.0, 150.0, false),
        ],
    ));
    tl
}

const TOPO_GOLDEN: &str = r#"{"meta":{"scenario":"interception","seed":"42"},"interval_us":1000000,"snapshots":[
{"t_us":0,"dest":[4020.0,0.5],"nodes":[{"id":0,"x":0.0,"y":0.0,"range":150.0,"attacker":false,"grad":"unknown"},{"id":1,"x":100.0,"y":2.5,"range":150.0,"attacker":false,"grad":"healthy"},{"id":2,"x":200.0,"y":0.0,"range":150.0,"attacker":false,"grad":"poisoned"},{"id":9,"x":350.0,"y":-12.0,"range":400.0,"attacker":true,"grad":"unknown"}],"derived":{"partitions":1,"largest_fraction":1.0,"articulation":[1],"bridges":[[0,1],[1,2]],"local_max":[9],"coverage":[{"id":9,"fraction":1.0,"covered":[0,1,2]}]}},
{"t_us":1000000,"dest":null,"nodes":[{"id":0,"x":30.0,"y":0.0,"range":150.0,"attacker":false,"grad":"unknown"},{"id":1,"x":1000.0,"y":0.0,"range":150.0,"attacker":false,"grad":"unknown"}],"derived":{"partitions":2,"largest_fraction":0.5,"articulation":[],"bridges":[],"local_max":[],"coverage":[]}}
]}
"#;

#[test]
fn topo_timeline_is_pinned() {
    let parsed = TopoArtifact::from_json(TOPO_GOLDEN).expect("golden parses");
    assert_eq!(parsed.to_json(), TOPO_GOLDEN);
    // The parser re-derives the analytics; pin each snapshot's too.
    for s in topo_timeline().samples() {
        let item = format!("{{\"t_us\":{},", s.at.as_micros());
        let derived = format!("\"partitions\":{},", s.partitions);
        assert!(TOPO_GOLDEN.contains(&item) && TOPO_GOLDEN.contains(&derived), "{item}{derived}");
    }
}

fn heatmap() -> RoadHeatmap {
    let mut h =
        RoadHeatmap::with_bins(250.0, SimDuration::from_secs(10), 100.0, SimDuration::from_secs(5));
    h.set_meta("seed", "42");
    h.set_meta("scenario", "interarea");
    h.record_packet(150.0, SimTime::from_secs(3), true);
    h.record_intercepted(240.0, SimTime::from_secs(7));
    let p = PacketRef::new(5, 1);
    h.record_event(
        240.0,
        SimTime::from_secs(8),
        &TraceEvent::Dropped { packet: p, reason: DropReason::AckExhausted },
        None,
    );
    h.record_event(
        240.0,
        SimTime::from_secs(8),
        &TraceEvent::CbfCancelled { packet: p, by: 3 },
        Some(3),
    );
    h
}

const HEATMAP_GOLDEN: &str = r#"{"meta":{"scenario":"interarea","seed":"42"},"x_bin_m":100.0,"t_bin_us":5000000,"road_length_m":250.0,"duration_us":10000000,"cells":[
{"xi":1,"ti":0,"generated":1,"delivered":1,"dropped":[0,0,0,0,0],"cbf_cancelled":0,"cbf_by_attacker":0,"intercepted":0},
{"xi":2,"ti":1,"generated":0,"delivered":0,"dropped":[0,0,0,0,1],"cbf_cancelled":1,"cbf_by_attacker":1,"intercepted":1}
]}
"#;

#[test]
fn heatmap_is_pinned() {
    let h = heatmap();
    assert_eq!(h.to_json(), HEATMAP_GOLDEN);
    assert_eq!(RoadHeatmap::from_json(HEATMAP_GOLDEN).expect("golden parses"), h);
}
