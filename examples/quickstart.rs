//! Quickstart: assemble a three-vehicle GeoNetworking scene by hand and
//! watch greedy forwarding pick a next hop — then watch the paper's
//! beacon-replay attack corrupt the same decision.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use geonet::{CertificateAuthority, GnAddress, GnConfig, GnRouter, RouterAction};
use geonet_attack::Attacker;
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_radio::RangeProfile;
use geonet_sim::{SimDuration, SimTime};
use geonet_traffic::IdmParams;

fn main() {
    println!("== GeoNetworking quickstart ==\n");
    println!("Paper parameters:");
    println!("  {}", IdmParams::paper_default());
    println!("  {}", RangeProfile::DSRC);
    println!("  {}\n", RangeProfile::CV2X);

    // One certificate authority per trust domain; every legitimate node
    // enrolls. The attacker never gets credentials.
    let ca = CertificateAuthority::new(0x2023);
    let reference = GeoReference::default();
    let config = GnConfig::paper_default(RangeProfile::DSRC.dist_max());

    let mut v1 = GnRouter::new(ca.enroll(GnAddress::vehicle(1)), ca.verifier(), config, reference);
    let v2 = GnRouter::new(ca.enroll(GnAddress::vehicle(2)), ca.verifier(), config, reference);
    let v3 = GnRouter::new(ca.enroll(GnAddress::vehicle(3)), ca.verifier(), config, reference);

    // Figure 2 of the paper: V1 wants to reach a destination area east of
    // everyone. V2 (300 m east) is V1's only real neighbour; V3 (700 m
    // east) is out of V1's 486 m radio range.
    let t0 = SimTime::from_secs(1);
    let v1_pos = Position::new(0.0, 2.5);
    let v2_beacon = v2.make_beacon(t0, Position::new(300.0, 2.5), 30.0, Heading::EAST);
    let v3_beacon = v3.make_beacon(t0, Position::new(700.0, 2.5), 30.0, Heading::EAST);
    let dest = Area::circle(Position::new(4_020.0, 0.0), 40.0);

    // Normal operation: V1 hears only V2's beacon.
    v1.handle_frame(&v2_beacon, v1_pos, t0);
    let (_, actions) =
        v1.originate(&dest, b"hazard ahead".to_vec(), t0, v1_pos, 30.0, Heading::EAST);
    describe("attacker-free", &actions);

    // The attack: a roadside sniffer captures V3's beacon and replays it
    // to V1 within a millisecond. The beacon is authentic — it verifies —
    // so V1 installs an unreachable neighbour and forwards into the void.
    let mut attacker = Attacker::interception(Position::new(400.0, -10.0));
    let order = attacker.on_sniff(&v3_beacon, t0).expect("beacons are replayed");
    let t1 = t0 + order.delay;
    v1.handle_frame(&order.frame, v1_pos, t1);
    let (_, actions) =
        v1.originate(&dest, b"hazard ahead".to_vec(), t1, v1_pos, 30.0, Heading::EAST);
    describe("under beacon replay", &actions);

    // The mitigation: re-run with the paper's plausibility check enabled.
    let mitigated_config = config.with_mitigations(geonet::MitigationConfig::plausibility(486.0));
    let mut v1m = GnRouter::new(
        ca.enroll(GnAddress::vehicle(10)),
        ca.verifier(),
        mitigated_config,
        reference,
    );
    v1m.handle_frame(&v2_beacon, v1_pos, t0);
    v1m.handle_frame(&order.frame, v1_pos, t0 + SimDuration::from_millis(1));
    let (_, actions) = v1m.originate(
        &dest,
        b"hazard ahead".to_vec(),
        t0 + SimDuration::from_millis(1),
        v1_pos,
        30.0,
        Heading::EAST,
    );
    describe("with plausibility check", &actions);
}

fn describe(label: &str, actions: &[RouterAction]) {
    for a in actions {
        if let RouterAction::Transmit(frame) = a {
            match frame.dst {
                Some(next_hop) => println!("{label:>24}: GF forwards to {next_hop}"),
                None => println!("{label:>24}: GF falls back to broadcast"),
            }
        }
    }
}
