//! Microbenchmarks of the hot paths: wire codecs, the security envelope,
//! location-table operations, greedy selection, CBF bookkeeping, beacon
//! inbox folds and compactions, the radio medium and raw event-loop
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use geonet::wire::GnPacket;
use geonet::{
    greedy_select, CbfBuffer, CbfParams, CertificateAuthority, Frame, GnAddress, GnConfig,
    GnRouter, LocationTable, LongPositionVector, SequenceNumber,
};
use geonet_geo::{Area, CellGrid, GeoReference, Heading, Position};
use geonet_radio::{delay_us, DelayTable, Medium, NodeId};
use geonet_scenarios::{InboxBench, ScenarioConfig, World};
use geonet_sim::{
    shared, shared_registry, NullSink, SimDuration, SimTime, StateHasher, Telemetry, Tracer,
};
use geonet_traffic::{RoadConfig, StepOutput, TrafficSim};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn pv(addr: u64, x: f64) -> LongPositionVector {
    LongPositionVector::from_sim(
        GnAddress::vehicle(addr),
        SimTime::from_secs(1),
        Position::new(x, 2.5),
        30.0,
        Heading::EAST,
        &GeoReference::default(),
    )
}

fn bench_wire(c: &mut Criterion) {
    let r = GeoReference::default();
    let area = Area::circle(Position::new(4_020.0, 0.0), 40.0);
    let packet =
        GnPacket::geobroadcast(SequenceNumber(1), pv(1, 100.0), &area, &r, vec![0; 32], 10);
    let bytes = packet.encode();

    c.bench_function("wire_encode_gbc", |b| b.iter(|| black_box(packet.encode())));
    c.bench_function("wire_decode_gbc", |b| {
        b.iter(|| black_box(GnPacket::decode(&bytes).expect("valid")))
    });
    let beacon = GnPacket::beacon(pv(1, 100.0));
    c.bench_function("wire_encode_beacon", |b| b.iter(|| black_box(beacon.encode())));
}

fn bench_security(c: &mut Criterion) {
    let ca = CertificateAuthority::new(1);
    let creds = ca.enroll(GnAddress::vehicle(1));
    let verifier = ca.verifier();
    let beacon = GnPacket::beacon(pv(1, 100.0));
    let signed = creds.sign(beacon.clone());

    c.bench_function("security_sign_beacon", |b| b.iter(|| black_box(creds.sign(beacon.clone()))));
    c.bench_function("security_verify_beacon", |b| b.iter(|| black_box(verifier.verify(&signed))));
}

fn bench_loct_and_gf(c: &mut Criterion) {
    let now = SimTime::from_secs(5);
    let mut loct = LocationTable::new(SimDuration::from_secs(20), GeoReference::default());
    for i in 0..64u64 {
        loct.update(pv(i, i as f64 * 30.0), now);
    }
    c.bench_function("loct_update", |b| {
        let p = pv(99, 1_000.0);
        b.iter(|| loct.update(black_box(p), now));
    });
    c.bench_function("gf_select_64_neighbors", |b| {
        b.iter(|| {
            black_box(greedy_select(
                &loct,
                GnAddress::vehicle(999),
                Position::new(960.0, 2.5),
                Position::new(4_020.0, 0.0),
                None,
                Some(486.0),
                now,
            ))
        });
    });
}

fn bench_cbf(c: &mut Criterion) {
    let params = CbfParams::default_for_dist_max(1_283.0);
    let ca = CertificateAuthority::new(1);
    let creds = ca.enroll(GnAddress::vehicle(1));
    let r = GeoReference::default();
    let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);

    c.bench_function("cbf_first_copy_and_expire", |b| {
        let mut sn = 0u16;
        let mut buf = CbfBuffer::new();
        b.iter(|| {
            sn = sn.wrapping_add(1);
            let packet = creds.sign(GnPacket::geobroadcast(
                SequenceNumber(sn),
                pv(1, 1_000.0),
                &area,
                &r,
                vec![1],
                10,
            ));
            let v = buf.on_packet(
                &packet,
                Position::new(1_000.0, 2.5),
                Position::new(1_400.0, 2.5),
                &params,
                SimTime::from_secs(1),
            );
            if let geonet::CbfVerdict::FirstCopy { contend: Some((_, generation)) } = v {
                let key = geonet::PacketKey::of(&packet).expect("gbc");
                black_box(buf.take_expired(key, generation));
            }
        });
    });
}

fn bench_medium_and_traffic(c: &mut Criterion) {
    let mut medium = Medium::new();
    for i in 0..200 {
        medium.register(Position::new(f64::from(i) * 20.0, 2.5), 486.0);
    }
    c.bench_function("medium_receivers_200_nodes", |b| {
        b.iter(|| black_box(medium.receivers(NodeId(100))));
    });

    // The logged beacon path's query: the paper's two-lane 4 km road at
    // 30 m spacing, a mid-road sender, every receiver's id and delay
    // taken in walk order, unsorted.
    let mut road = Medium::new();
    for lane in 0..2u32 {
        for i in 0..134u32 {
            road.register(Position::new(f64::from(i) * 30.0, 2.5 + f64::from(lane) * 3.5), 486.0);
        }
    }
    c.bench_function("radio_fanout_30m", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            road.fan_out(black_box(NodeId(67)), 486.0, |rx, d2| {
                sum += u64::from(rx.0) + delay_us(d2);
            });
            black_box(sum)
        });
    });
    // The same walk with the delays looked up, as the world takes them.
    let delays = DelayTable::<15>::new();
    c.bench_function("radio_fanout_30m_delay_table", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            road.fan_out(black_box(NodeId(67)), 486.0, |rx, d2| {
                sum += u64::from(rx.0) + delays.delay_us(d2);
            });
            black_box(sum)
        });
    });

    c.bench_function("traffic_step_133_vehicles", |b| {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        b.iter(|| {
            sim.step(0.1);
            black_box(sim.count_on_road())
        });
    });

    // The `sparse-highway` benchmark road: 40 km, two-way, 300 m spacing.
    c.bench_function("traffic_step_266_vehicles_sparse_40km", |b| {
        let road =
            RoadConfig { length: 40_000.0, ..RoadConfig::paper_two_way().with_spacing(300.0) };
        let mut sim = TrafficSim::new(road);
        b.iter(|| {
            sim.step(0.1);
            black_box(sim.count_on_road())
        });
    });

    // The radio position sync of the same road: one step's
    // `set_position` for every vehicle on it, as the world makes after
    // each traffic step (vehicle i is node i). The step that produces the
    // positions, the registrations of entering vehicles and the
    // deactivations of exiting ones run outside the timed part.
    c.bench_function("medium_sync_266_vehicles_sparse_40km", |b| {
        let road =
            RoadConfig { length: 40_000.0, ..RoadConfig::paper_two_way().with_spacing(300.0) };
        let mut sim = TrafficSim::new(road);
        let mut medium = Medium::new();
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                sim.step(0.1);
                for v in &sim.all_vehicles()[medium.len()..] {
                    medium.register(v.position(sim.road()), 486.0);
                }
                for vid in sim.exited_last_step() {
                    medium.set_active(NodeId(vid.0), false);
                }
                let start = Instant::now();
                for v in sim.active_vehicles() {
                    medium.set_position(NodeId(v.id.0), v.position(sim.road()));
                }
                timed += start.elapsed();
            }
            timed
        });
    });

    // The paper road after 600 simulated seconds: most vehicles ever
    // spawned have exited, so a step costing O(vehicles on the road)
    // matches `traffic_step_133_vehicles` here.
    c.bench_function("traffic_step_paper_road_after_600s", |b| {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        for _ in 0..6_000 {
            sim.step(0.1);
        }
        b.iter(|| {
            sim.step(0.1);
            black_box(sim.count_on_road())
        });
    });

    // A step on the `sparse-highway` road (40 km two-way, 300 m spacing)
    // as a world with a spare core takes it: a copy steps into a buffer
    // (the helper thread's share) and the world's simulation applies it.
    c.bench_function("traffic_step_apply_sparse_highway", |b| {
        let road = RoadConfig { length: 40_000.0, two_way: true, ..RoadConfig::paper_default() };
        let mut ahead = TrafficSim::new(road.with_spacing(300.0));
        let mut sim = ahead.clone();
        let mut out = StepOutput::default();
        let cells = CellGrid::new(486.0);
        b.iter(|| {
            ahead.step_into(0.1, cells, &mut out);
            sim.apply(&out);
            black_box(sim.count_on_road())
        });
    });
}

fn bench_step_landing(c: &mut Criterion) {
    // The world's whole share of a `sparse-highway` step taken ahead: the
    // apply, then the landing in the radio medium as `World` makes it
    // (register the entered vehicles, deactivate the exited ones, load
    // the positions and re-file the cell crossers; vehicle i is node i).
    // The helper's `step_into` runs outside the timed part. Compare with
    // `medium_sync_266_vehicles_sparse_40km`, the per-vehicle sync it
    // replaced.
    c.bench_function("traffic_step_apply_land_sparse_highway", |b| {
        let road = RoadConfig { length: 40_000.0, two_way: true, ..RoadConfig::paper_default() };
        let mut ahead = TrafficSim::new(road.with_spacing(300.0));
        let mut sim = ahead.clone();
        let mut medium = Medium::new();
        let mut nodes = Vec::new();
        for v in sim.active_vehicles() {
            nodes.push(medium.register(v.position(sim.road()), 486.0));
        }
        let mut out = StepOutput::default();
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                ahead.step_into(0.1, medium.cells(), &mut out);
                let start = Instant::now();
                sim.apply(&out);
                for v in &sim.all_vehicles()[medium.len()..] {
                    nodes.push(medium.register(v.position(sim.road()), 486.0));
                }
                let exits = sim.exited_last_step();
                for vid in exits {
                    medium.set_active(NodeId(vid.0), false);
                }
                if !exits.is_empty() {
                    nodes.retain(|&node| medium.is_active(node));
                }
                medium.load_positions(&nodes, out.positions(), out.crossers(), out.cells());
                timed += start.elapsed();
            }
            black_box(medium.len());
            timed
        });
    });
}

fn bench_beacon_log(c: &mut Criterion) {
    // A full inbox of a router nothing reads: 64 neighbours, 4 beacons
    // each. A fold counts all 256 and writes 64 table entries; a
    // compaction counts and drops 192 and keeps 64.
    let mut inbox = InboxBench::new(64, 4);
    c.bench_function("beacon_fold_256_entries", |b| b.iter(|| inbox.fold()));
    c.bench_function("beacon_compact_256_entries", |b| b.iter(|| black_box(inbox.compact())));
}

fn bench_handle_frame(c: &mut Criterion) {
    // The acceptance criterion for the tracing layer: a router with the
    // default (disabled) tracer must not regress `handle_frame`, and an
    // attached `NullSink` must stay within noise of it — the closures
    // passed to `Tracer::emit` are never built when no sink is attached.
    let ca = CertificateAuthority::new(1);
    let verifier = ca.verifier();
    let cfg = GnConfig::paper_default(1_283.0);
    let beacon = ca.enroll(GnAddress::vehicle(2)).sign(GnPacket::beacon(pv(2, 520.0)));
    let frame = Frame::broadcast(GnAddress::vehicle(2), Position::new(520.0, 2.5), beacon);
    let own = Position::new(500.0, 2.5);

    c.bench_function("handle_frame_beacon_tracer_disabled", |b| {
        let mut router = GnRouter::new(
            ca.enroll(GnAddress::vehicle(1)),
            verifier.clone(),
            cfg,
            GeoReference::default(),
        );
        b.iter(|| black_box(router.handle_frame(black_box(&frame), own, SimTime::from_secs(1))));
    });
    c.bench_function("handle_frame_beacon_tracer_null_sink", |b| {
        let mut router = GnRouter::new(
            ca.enroll(GnAddress::vehicle(1)),
            verifier.clone(),
            cfg,
            GeoReference::default(),
        );
        router.set_tracer(Tracer::attached(shared(NullSink)));
        b.iter(|| black_box(router.handle_frame(black_box(&frame), own, SimTime::from_secs(1))));
    });
    // Same acceptance criterion for the telemetry layer: disabled
    // telemetry (the default above) reads no clock; an attached registry
    // pays two `Instant::now()` calls plus one histogram record.
    c.bench_function("handle_frame_beacon_telemetry_attached", |b| {
        let mut router = GnRouter::new(
            ca.enroll(GnAddress::vehicle(1)),
            verifier.clone(),
            cfg,
            GeoReference::default(),
        );
        router.set_telemetry(Telemetry::attached(shared_registry()));
        b.iter(|| black_box(router.handle_frame(black_box(&frame), own, SimTime::from_secs(1))));
    });
    // Same acceptance criterion for the audit layer: the auditor samples
    // at the world level (one `due()` branch per traffic step), so a
    // detached auditor must leave `handle_frame` itself untouched.
    c.bench_function("handle_frame_beacon_auditor_detached", |b| {
        let mut router = GnRouter::new(
            ca.enroll(GnAddress::vehicle(1)),
            verifier.clone(),
            cfg,
            GeoReference::default(),
        );
        b.iter(|| black_box(router.handle_frame(black_box(&frame), own, SimTime::from_secs(1))));
    });
}

fn bench_audit(c: &mut Criterion) {
    // What one audit checkpoint pays: hashing a loaded router, and
    // digesting the whole default world (all components).
    let ca = CertificateAuthority::new(1);
    let mut router = GnRouter::new(
        ca.enroll(GnAddress::vehicle(1)),
        ca.verifier(),
        GnConfig::paper_default(1_283.0),
        GeoReference::default(),
    );
    for i in 2..66u64 {
        let beacon =
            ca.enroll(GnAddress::vehicle(i)).sign(GnPacket::beacon(pv(i, i as f64 * 30.0)));
        let frame =
            Frame::broadcast(GnAddress::vehicle(i), Position::new(i as f64 * 30.0, 2.5), beacon);
        router.handle_frame(&frame, Position::new(500.0, 2.5), SimTime::from_secs(1));
    }
    c.bench_function("audit_router_digest_64_neighbors", |b| {
        b.iter(|| {
            let mut h = StateHasher::new();
            router.digest_into(&mut h);
            black_box(h.finish())
        });
    });

    let mut group = c.benchmark_group("audit_world");
    group.sample_size(10);
    group.bench_function("audit_world_checkpoint", |b| {
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(3_600));
        let mut w = World::new(cfg, None, 42);
        w.run_until(SimTime::from_secs(5));
        b.iter(|| black_box(w.audit_checkpoint()));
    });
    group.finish();
}

fn bench_topo(c: &mut Criterion) {
    // What one attached connectivity snapshot pays: enumerating the
    // whole default world's adjacency from the medium and running the
    // per-snapshot analytics (components, Tarjan articulation/bridges,
    // gradient grading toward the destination, attacker coverage) —
    // plus what rendering one snapshot to DOT costs on top.
    let mut group = c.benchmark_group("topo");
    group.sample_size(10);
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(3_600));
    let mut w = World::new(cfg, None, 42);
    w.run_until(SimTime::from_secs(5));
    w.set_topo_destination(Position::new(cfg.road.length + 20.0, 0.0));
    group.bench_function("topo_world_snapshot", |b| {
        b.iter(|| black_box(w.topo_snapshot()));
    });
    let snapshot = w.topo_snapshot();
    group.bench_function("topo_snapshot_to_dot", |b| {
        b.iter(|| black_box(snapshot.to_dot()));
    });
    group.finish();
}

fn bench_world_throughput(c: &mut Criterion) {
    // End-to-end event throughput: one simulated second of the full
    // default world (traffic + beacons + deliveries).
    let mut group = c.benchmark_group("world");
    group.sample_size(10);
    group.bench_function("world_one_simulated_second", |b| {
        let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(3_600));
        let mut w = World::new(cfg, None, 42);
        let mut t = 0;
        b.iter(|| {
            t += 1;
            w.run_until(SimTime::from_secs(t));
            black_box(w.traffic().count_on_road())
        });
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wire, bench_security, bench_loct_and_gf, bench_cbf,
              bench_beacon_log, bench_handle_frame, bench_audit, bench_topo,
              bench_medium_and_traffic, bench_step_landing, bench_world_throughput
}
criterion_main!(micro);
