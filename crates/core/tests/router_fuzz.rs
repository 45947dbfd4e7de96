//! Adversarial fuzzing of the router: arbitrary frame streams — replayed,
//! reordered, RHL-mutated, cross-wired between nodes — must never panic,
//! never emit a forwardable packet with a spent hop limit, and never
//! accept tampered content. The shared-transmission entry
//! ([`GnRouter::receive`]) must behave exactly like the per-frame one
//! ([`GnRouter::handle_frame`]) and never trust a foreign domain's verdict.

use geonet::wire::GnPacket;
use geonet::{
    CertificateAuthority, Credentials, Frame, GnAddress, GnConfig, GnRouter, OnAir, RouterAction,
    SecuredPacket,
};
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_sim::{shared, DropReason, SimDuration, SimTime, TraceEvent, Tracer, VecSink};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn router(ca: &CertificateAuthority, mid: u64) -> GnRouter {
    GnRouter::new(
        ca.enroll(GnAddress::vehicle(mid)),
        ca.verifier(),
        GnConfig::paper_default(1_283.0),
        GeoReference::default(),
    )
}

/// A pool of authentic frames to replay/mutate: beacons, GBC, TSB, SHB.
fn frame_pool(ca: &CertificateAuthority, now: SimTime) -> Vec<Frame> {
    let mut frames = Vec::new();
    let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
    let far_area = Area::circle(Position::new(4_020.0, 0.0), 40.0);
    for mid in 1..5u64 {
        let mut r = router(ca, mid);
        let pos = Position::new(mid as f64 * 250.0, 2.5);
        frames.push(r.make_beacon(now, pos, 30.0, Heading::EAST));
        let (_, actions) = r.originate(&area, vec![mid as u8], now, pos, 30.0, Heading::EAST);
        let (_, actions2) = r.originate(&far_area, vec![mid as u8], now, pos, 30.0, Heading::EAST);
        let (_, actions3) = r.originate_tsb(vec![mid as u8], 5, now, pos, 30.0, Heading::EAST);
        let actions4 = r.originate_shb(vec![mid as u8], now, pos, 30.0, Heading::EAST);
        for a in actions.into_iter().chain(actions2).chain(actions3).chain(actions4) {
            if let RouterAction::Transmit(f) = a {
                frames.push(f);
            }
        }
    }
    frames
}

/// A router whose trace events are collected.
fn traced_router(ca: &CertificateAuthority, mid: u64) -> (GnRouter, Rc<RefCell<VecSink>>) {
    let sink = shared(VecSink::new());
    let mut r = router(ca, mid);
    r.set_tracer(Tracer::attached(sink.clone()).for_node(0));
    (r, sink)
}

/// `msg` attributed to the holder of `creds` without re-signing it.
fn reattributed(msg: &SecuredPacket, creds: Credentials) -> SecuredPacket {
    let mut msg = msg.clone();
    msg.signer = creds.certificate();
    msg
}

/// The frame-level attacks the equivalence test replays: `kind` picks
/// genuine, tampered payload, forged certificate, re-attributed signer or
/// an RHL-clamped replay.
fn attack(ca: &CertificateAuthority, base: &Frame, kind: u8, rhl: u8) -> Frame {
    let msg = match kind % 5 {
        0 => base.msg.clone(),
        1 => {
            let mut packet = base.msg.packet.clone();
            packet.payload.push(0xEE);
            base.msg.with_packet(packet)
        }
        2 => reattributed(
            &base.msg,
            CertificateAuthority::new(0xBAD).enroll(base.msg.signer.subject),
        ),
        3 => reattributed(&base.msg, ca.enroll(GnAddress::vehicle(0x0DD))),
        _ => base.msg.with_rhl(rhl),
    };
    Frame { msg, ..base.clone() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn receive_matches_handle_frame(
        choices in prop::collection::vec((0usize..32, 0u8..5, 0u8..=3, 0u64..60), 1..60))
    {
        let ca = CertificateAuthority::new(99);
        let verifier = ca.verifier();
        let t0 = SimTime::from_secs(1);
        let pool = frame_pool(&ca, t0);
        let (mut direct, direct_sink) = traced_router(&ca, 77);
        let (mut shared_rx, shared_sink) = traced_router(&ca, 77);
        let pos = Position::new(600.0, 2.5);
        for (idx, kind, rhl, delay_ms) in choices {
            let frame = attack(&ca, &pool[idx % pool.len()], kind, rhl);
            let now = t0 + SimDuration::from_millis(delay_ms);
            let on_air = OnAir::new(frame.clone(), &verifier);
            prop_assert_eq!(
                direct.handle_frame(&frame, pos, now),
                shared_rx.receive(&on_air, pos, now)
            );
            prop_assert_eq!(direct.stats(), shared_rx.stats());
        }
        let direct_events = direct_sink.borrow().records().to_vec();
        prop_assert_eq!(direct_events, shared_sink.borrow().records().to_vec());
    }

    #[test]
    fn router_survives_arbitrary_frame_streams(
        choices in prop::collection::vec((0usize..16, 0u8..=255, any::<bool>(), 0u64..60), 1..60))
    {
        let ca = CertificateAuthority::new(99);
        let t0 = SimTime::from_secs(1);
        let pool = frame_pool(&ca, t0);
        let mut victim = router(&ca, 77);
        let victim_pos = Position::new(600.0, 2.5);

        for (idx, rhl, spoof_src, delay_ms) in choices {
            let base = &pool[idx % pool.len()];
            // The attacker's full power set: replay, reorder (delay),
            // rewrite the unprotected RHL, spoof the link-layer source.
            let mut frame = Frame {
                msg: base.msg.with_rhl(rhl),
                ..base.clone()
            };
            if spoof_src {
                frame.src = GnAddress::vehicle(0xFFFF);
            }
            let now = t0 + SimDuration::from_millis(delay_ms);
            let actions = victim.handle_frame(&frame, victim_pos, now);
            for a in actions {
                match a {
                    RouterAction::Transmit(out) => {
                        // Anything the victim transmits must be authentic
                        // (it only ever signs its own or forwards valid
                        // packets)...
                        prop_assert!(ca.verifier().verify(&out.msg));
                        // ...and a forwarded multi-hop packet never leaves
                        // with a spent hop limit.
                        if out.msg.packet.gbc().is_some() {
                            prop_assert!(out.msg.rhl() >= 1);
                        }
                    }
                    RouterAction::Deliver { payload, .. } => {
                        prop_assert!(payload.len() <= 16);
                    }
                    RouterAction::CbfTimer { delay, .. } => {
                        prop_assert!(delay >= SimDuration::from_millis(1));
                        prop_assert!(delay <= SimDuration::from_millis(100));
                    }
                    RouterAction::GfRetry { delay, .. } => {
                        prop_assert!(delay > SimDuration::ZERO);
                    }
                }
            }
        }
    }

    #[test]
    fn router_rejects_all_single_bit_tampering(byte in 4usize..56, bit in 0u8..8) {
        // Flip one bit of the integrity-covered region (anything past the
        // basic header) of a signed GBC packet: the router must drop it.
        let ca = CertificateAuthority::new(7);
        let t0 = SimTime::from_secs(1);
        let mut src = router(&ca, 1);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
        let (_, actions) =
            src.originate(&area, vec![0xAB], t0, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };

        let mut bytes = frame.msg.packet.encode();
        prop_assume!(byte < bytes.len());
        bytes[byte] ^= 1 << bit;
        if let Ok(tampered) = GnPacket::decode(&bytes) {
            prop_assume!(tampered != frame.msg.packet); // reserved bits absorb some flips
            let msg = frame.msg.with_packet(tampered);
            let mut victim = router(&ca, 2);
            let actions =
                victim.handle_frame(&Frame { msg, ..frame.clone() }, Position::new(1_400.0, 2.5), t0);
            prop_assert!(actions.is_empty(), "tampered packet was processed");
            prop_assert_eq!(victim.stats().auth_failures, 1);
        }
    }
}

#[test]
fn replayed_pool_frames_are_all_authentic() {
    // Sanity for the fuzz pool itself.
    let ca = CertificateAuthority::new(99);
    let pool = frame_pool(&ca, SimTime::from_secs(1));
    assert!(pool.len() >= 16);
    for f in &pool {
        assert!(ca.verifier().verify(&f.msg));
    }
}

#[test]
fn attacks_in_the_equivalence_pool_are_rejected() {
    // The tampered, forged and re-attributed variants must really fail
    // verification, or the equivalence test would not cover drops.
    let ca = CertificateAuthority::new(99);
    let pool = frame_pool(&ca, SimTime::from_secs(1));
    for base in &pool {
        for kind in 1..=3 {
            assert!(!ca.verifier().verify(&attack(&ca, base, kind, 1).msg), "kind {kind}");
        }
        assert!(ca.verifier().verify(&attack(&ca, base, 4, 1).msg));
    }
}

#[test]
fn foreign_verdict_never_admits_a_frame() {
    // Another CA signs a GBC and vouches for it: its verdict is `true`,
    // but a router of the world's CA re-verifies and drops the frame.
    let world_ca = CertificateAuthority::new(99);
    let rogue_ca = CertificateAuthority::new(0xBAD);
    let t0 = SimTime::from_secs(1);
    let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
    let mut rogue = router(&rogue_ca, 5);
    let (_, actions) =
        rogue.originate(&area, vec![0x66], t0, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
    let RouterAction::Transmit(frame) = &actions[0] else { panic!("origination sends") };
    let on_air = OnAir::new(frame.clone(), &rogue_ca.verifier());
    assert!(on_air.authentic_under(&rogue_ca.verifier()));
    assert!(!world_ca.verifier().verify(&frame.msg));

    let (mut victim, sink) = traced_router(&world_ca, 2);
    let actions = victim.receive(&on_air, Position::new(1_400.0, 2.5), t0);
    assert!(actions.is_empty(), "foreign-vouched frame was processed: {actions:?}");
    assert_eq!(victim.stats().auth_failures, 1);
    let records = sink.borrow();
    assert!(matches!(
        records.records()[..],
        [ref r] if matches!(r.event, TraceEvent::Dropped { reason: DropReason::AuthFailure, .. })
    ));
}
