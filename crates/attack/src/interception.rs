//! The inter-area interception attack (paper §III-B).

use crate::Replay;
use geonet::wire::Extended;
use geonet::Frame;
use geonet_sim::{AttackKind, SimTime, TraceEvent, Tracer};

/// The beacon-replay strategy's state.
///
/// Deployed statically at the roadside, the attacker sniffs the public
/// channel and re-broadcasts **every beacon it hears** at its (larger)
/// attack range — the strategy the paper's evaluation uses ("the attacker
/// rebroadcasts all beacons that it hears to the vehicles within its
/// communication coverage"). Vehicles that would never have heard each
/// other directly thus poison each other's location tables with
/// authentic but unreachable neighbours.
///
/// The replayed frame is byte-identical to the captured one at the
/// network layer: signature, position vector and timestamp all verify,
/// which is why certificate checks and integrity protection do not stop
/// the attack. Data packets are ignored — this attack never touches
/// them; it only corrupts the victims' view of the topology and lets
/// greedy forwarding do the packet dropping itself.
#[derive(Debug, Clone, Default)]
pub struct InterAreaAttacker {
    beacons_replayed: u64,
}

impl InterAreaAttacker {
    /// Beacons heard so far. Every beacon heard is replayed, so this is
    /// [`InterAreaAttacker::beacons_replayed`].
    #[must_use]
    pub fn beacons_sniffed(&self) -> u64 {
        self.beacons_replayed
    }

    /// Beacons replayed so far.
    #[must_use]
    pub fn beacons_replayed(&self) -> u64 {
        self.beacons_replayed
    }

    /// Replays beacons verbatim under their original link-layer source.
    pub(crate) fn capture(
        &mut self,
        frame: &Frame,
        now: SimTime,
        tracer: &Tracer,
    ) -> Option<Replay> {
        let Extended::Beacon { .. } = frame.msg.packet.extended else {
            return None;
        };
        self.beacons_replayed += 1;
        tracer.emit(now, || TraceEvent::AttackAction {
            kind: AttackKind::InterceptionCapture,
            packet: None,
        });
        tracer.emit(now, || TraceEvent::AttackAction {
            kind: AttackKind::InterceptionReplay,
            packet: None,
        });
        Some(Replay { src: frame.src, msg: frame.msg.clone(), range_cap: None })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Attacker, Strategy};
    use geonet::{CertificateAuthority, GnAddress, GnConfig, GnRouter};
    use geonet_geo::{Area, GeoReference, Heading, Position};
    use geonet_sim::{SimDuration, SimTime};

    fn router(ca: &CertificateAuthority, addr: u64) -> GnRouter {
        GnRouter::new(
            ca.enroll(GnAddress::vehicle(addr)),
            ca.verifier(),
            GnConfig::paper_default(1_283.0),
            GeoReference::default(),
        )
    }

    fn replayed(atk: &Attacker) -> u64 {
        let Strategy::Interception(s) = atk.strategy() else { panic!("interception attacker") };
        s.beacons_replayed()
    }

    #[test]
    fn replays_beacons_with_default_delay() {
        let ca = CertificateAuthority::new(1);
        let v3 = router(&ca, 3);
        let mut atk = Attacker::interception(Position::new(500.0, -10.0));
        let beacon =
            v3.make_beacon(SimTime::from_secs(1), Position::new(700.0, 0.0), 30.0, Heading::EAST);
        let order = atk.on_sniff(&beacon, SimTime::from_secs(1)).expect("beacons are replayed");
        assert_eq!(order.delay, SimDuration::from_millis(1));
        assert_eq!(order.range_cap, None);
        // Network-layer content untouched.
        assert_eq!(order.frame.msg, beacon.msg);
        assert_eq!(order.frame.src, beacon.src);
        // Physical transmitter moved to the attacker.
        assert_eq!(order.frame.sender_position, atk.position());
        assert_eq!(replayed(&atk), 1);
    }

    #[test]
    fn ignores_data_packets() {
        let ca = CertificateAuthority::new(1);
        let mut v1 = router(&ca, 1);
        let mut atk = Attacker::interception(Position::new(500.0, -10.0));
        let area = Area::circle(Position::new(4_020.0, 0.0), 50.0);
        let (_, actions) = v1.originate(
            &area,
            vec![1],
            SimTime::from_secs(1),
            Position::ORIGIN,
            30.0,
            Heading::EAST,
        );
        let geonet::RouterAction::Transmit(frame) = &actions[0] else { panic!() };
        assert!(atk.on_sniff(frame, SimTime::from_secs(1)).is_none());
        assert_eq!(replayed(&atk), 0);
    }

    #[test]
    fn end_to_end_poisoning_without_mitigation() {
        // The full §III-B chain: replayed beacon → LocT entry → GF picks
        // the unreachable node.
        let ca = CertificateAuthority::new(1);
        let mut v1 = router(&ca, 1); // victim at x = 0
        let v2 = router(&ca, 2); // real neighbour at 300 m
        let v3 = router(&ca, 3); // out of range at 700 m
        let mut atk = Attacker::interception(Position::new(400.0, -10.0));

        let t0 = SimTime::from_secs(1);
        let v2_beacon = v2.make_beacon(t0, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        let v3_beacon = v3.make_beacon(t0, Position::new(700.0, 0.0), 30.0, Heading::EAST);

        // v1 hears v2 directly, and v3 only through the attacker.
        v1.handle_frame(&v2_beacon, Position::ORIGIN, t0);
        let order = atk.on_sniff(&v3_beacon, t0).unwrap();
        v1.handle_frame(&order.frame, Position::ORIGIN, t0 + order.delay);

        let area = Area::circle(Position::new(4_020.0, 0.0), 50.0);
        let (_, actions) =
            v1.originate(&area, vec![1], t0 + order.delay, Position::ORIGIN, 30.0, Heading::EAST);
        let geonet::RouterAction::Transmit(f) = &actions[0] else { panic!() };
        assert_eq!(f.dst, Some(GnAddress::vehicle(3)), "victim forwards into the void");
    }

    #[test]
    fn custom_processing_delay() {
        let ca = CertificateAuthority::new(1);
        let beacon =
            router(&ca, 3).make_beacon(SimTime::ZERO, Position::ORIGIN, 30.0, Heading::EAST);
        let mut atk = Attacker::interception(Position::ORIGIN)
            .with_processing_delay(SimDuration::from_micros(200));
        let order = atk.on_sniff(&beacon, SimTime::ZERO).expect("beacons are replayed");
        assert_eq!(order.delay, SimDuration::from_micros(200));
    }

    #[test]
    fn display_reports_counts() {
        let atk = Attacker::interception(Position::ORIGIN);
        assert!(atk.to_string().contains("inter-area attacker"));
    }
}
