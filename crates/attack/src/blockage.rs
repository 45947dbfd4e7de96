//! The intra-area blockage attack (paper §III-C).

use crate::Replay;
use geonet::{Frame, GnAddress, PacketKey};
use geonet_sim::{AttackKind, PacketRef, SimTime, TraceEvent, Tracer};
use std::collections::BTreeSet;
use std::fmt;

/// How the attacker transmits its replayed copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockageMode {
    /// *Spot 1* / conservative strategy: clamp the (unprotected) RHL to 1
    /// and broadcast at full attack power. Buffered candidates discard
    /// their copies as "duplicates"; first-time receivers decrement the
    /// RHL to 0 and never forward.
    ClampRhl,
    /// *Spot 2* variant: replay the packet unmodified but control the
    /// transmission power so only the targeted candidate forwarders hear
    /// it (used in the paper's road-safety case study to silence a single
    /// roadside unit).
    PowerControlled {
        /// Effective replay range, metres.
        range: f64,
    },
}

impl fmt::Display for BlockageMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockageMode::ClampRhl => f.write_str("clamp-RHL"),
            BlockageMode::PowerControlled { range } => {
                write!(f, "power-controlled ({range:.0} m)")
            }
        }
    }
}

/// The CBF forwarder-impersonation strategy's state.
///
/// The attacker captures the **first copy** of each GeoBroadcast packet
/// it hears and immediately replays it (within the paper's ≤ 1 ms
/// processing window, well inside TO_MIN), impersonating the contention
/// winner. Buffered candidate forwarders in its coverage treat the replay
/// as a peer's re-broadcast and discard their copies. Later copies of the
/// same packet are not replayed again: the paper's proof of concept
/// replays each packet once.
#[derive(Debug, Clone)]
pub struct IntraAreaAttacker {
    pub(crate) mode: BlockageMode,
    seen: BTreeSet<PacketKey>,
    packets_replayed: u64,
}

impl IntraAreaAttacker {
    /// The pseudonymous link-layer source replays are sent under — what
    /// victims see in `CbfCancelled { by }` trace events, and what
    /// forensic attribution matches against. The paper's threat model
    /// allows pseudonyms (they exist for privacy); the network-layer
    /// content stays authentic.
    pub const DEFAULT_PSEUDONYM: GnAddress = GnAddress::vehicle(0xFFFF_FFFF_0000);

    pub(crate) fn new(mode: BlockageMode) -> Self {
        IntraAreaAttacker { mode, seen: BTreeSet::new(), packets_replayed: 0 }
    }

    /// GeoBroadcast packets heard so far (first copies). Each is replayed
    /// once, so this is [`IntraAreaAttacker::packets_replayed`].
    #[must_use]
    pub fn packets_sniffed(&self) -> u64 {
        self.packets_replayed
    }

    /// Replays transmitted so far.
    #[must_use]
    pub fn packets_replayed(&self) -> u64 {
        self.packets_replayed
    }

    /// Replays the first copy of each GeoBroadcast packet under the
    /// pseudonym, RHL-clamped or power-capped as the mode says.
    pub(crate) fn capture(
        &mut self,
        frame: &Frame,
        now: SimTime,
        tracer: &Tracer,
    ) -> Option<Replay> {
        let gbc = frame.msg.packet.gbc()?;
        let key = PacketKey { source: gbc.so_pv.addr, sn: gbc.sn };
        if !self.seen.insert(key) {
            return None;
        }
        self.packets_replayed += 1;
        tracer.emit(now, || TraceEvent::AttackAction {
            kind: AttackKind::BlockageReplay,
            packet: Some(PacketRef::new(key.source.to_u64(), key.sn.0)),
        });
        let (msg, range_cap) = match self.mode {
            BlockageMode::ClampRhl => (frame.msg.with_rhl(1), None),
            BlockageMode::PowerControlled { range } => (frame.msg.clone(), Some(range)),
        };
        Some(Replay { src: IntraAreaAttacker::DEFAULT_PSEUDONYM, msg, range_cap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attacker, Strategy};
    use geonet::{CertificateAuthority, GnConfig, GnRouter, RouterAction};
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

    fn state(atk: &Attacker) -> &IntraAreaAttacker {
        let Strategy::Blockage(s) = atk.strategy() else { panic!("blockage attacker") };
        s
    }

    fn road_area() -> Area {
        Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0)
    }

    fn originate_frame(ca: &CertificateAuthority, src: u64, x: f64) -> (PacketKey, Frame) {
        let mut v = router(ca, src);
        let (key, actions) = v.originate(
            &road_area(),
            vec![0xEE],
            SimTime::from_secs(1),
            Position::new(x, 2.5),
            30.0,
            Heading::EAST,
        );
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        (key, f.clone())
    }

    #[test]
    fn clamp_mode_rewrites_rhl_to_one() {
        let ca = CertificateAuthority::new(1);
        let (_, frame) = originate_frame(&ca, 1, 1_000.0);
        assert_eq!(frame.msg.rhl(), 10);
        let mut atk = Attacker::blockage(Position::new(2_000.0, -10.0), BlockageMode::ClampRhl);
        let order = atk.on_sniff(&frame, SimTime::from_secs(1)).unwrap();
        assert_eq!(order.frame.msg.rhl(), 1);
        assert_eq!(order.range_cap, None);
        assert_eq!(order.delay, SimDuration::from_millis(1));
        // The clamped packet still authenticates — RHL is unprotected.
        assert!(ca.verifier().verify(&order.frame.msg));
    }

    #[test]
    fn power_controlled_mode_keeps_rhl_and_caps_range() {
        let ca = CertificateAuthority::new(1);
        let (_, frame) = originate_frame(&ca, 1, 1_000.0);
        let mut atk = Attacker::blockage(
            Position::new(2_000.0, -10.0),
            BlockageMode::PowerControlled { range: 120.0 },
        );
        let order = atk.on_sniff(&frame, SimTime::from_secs(1)).unwrap();
        assert_eq!(order.frame.msg.rhl(), 10);
        assert_eq!(order.range_cap, Some(120.0));
    }

    #[test]
    fn replays_each_packet_once() {
        let ca = CertificateAuthority::new(1);
        let (_, frame) = originate_frame(&ca, 1, 1_000.0);
        let mut atk = Attacker::blockage(Position::new(2_000.0, -10.0), BlockageMode::ClampRhl);
        assert!(atk.on_sniff(&frame, SimTime::from_secs(1)).is_some());
        assert!(atk.on_sniff(&frame, SimTime::from_secs(1)).is_none(), "same key ignored");
        assert_eq!(state(&atk).packets_sniffed(), 1);
        assert_eq!(state(&atk).packets_replayed(), 1);
        // A different packet is replayed again.
        let (_, frame2) = originate_frame(&ca, 2, 1_500.0);
        assert!(atk.on_sniff(&frame2, SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn ignores_beacons() {
        let ca = CertificateAuthority::new(1);
        let v = router(&ca, 1);
        let beacon =
            v.make_beacon(SimTime::from_secs(1), Position::new(10.0, 0.0), 30.0, Heading::EAST);
        let mut atk = Attacker::blockage(Position::ORIGIN, BlockageMode::ClampRhl);
        assert!(atk.on_sniff(&beacon, SimTime::from_secs(1)).is_none());
        assert_eq!(state(&atk).packets_sniffed(), 0);
    }

    #[test]
    fn replay_suppresses_buffered_candidate() {
        // The §III-C chain: V2 buffers V1's packet; the attacker's clamped
        // replay arrives within TO; V2 discards. A fresh receiver of the
        // replay delivers but never forwards (RHL exhausted).
        let ca = CertificateAuthority::new(1);
        let (key, frame) = originate_frame(&ca, 1, 1_000.0);
        let mut v2 = router(&ca, 2);
        let mut v3 = router(&ca, 3);
        let mut atk = Attacker::blockage(Position::new(1_400.0, -10.0), BlockageMode::ClampRhl);

        let t0 = SimTime::from_secs(1);
        // V2 (in area, in V1's range) buffers and contends.
        let a2 = v2.handle_frame(&frame, Position::new(1_400.0, 2.5), t0);
        let RouterAction::CbfTimer { generation, delay, .. } = a2[1] else { panic!() };
        // The attacker heard the same transmission and replays at +1 ms.
        let order = atk.on_sniff(&frame, t0).unwrap();
        assert!(order.delay < delay, "replay must beat the contention timer");
        let dup = v2.handle_frame(&order.frame, Position::new(1_400.0, 2.5), t0 + order.delay);
        assert!(dup.is_empty());
        assert_eq!(v2.stats().cbf_discards, 1);
        // V2's timer now yields nothing: the flood is dead here.
        let out = v2.handle_cbf_timer(key, generation, Position::new(1_400.0, 2.5), t0 + delay);
        assert!(out.is_empty());

        // V3 (beyond V1 but within attack range) receives the replay as
        // its first copy: delivered, but RHL 1 → never forwarded.
        let a3 = v3.handle_frame(&order.frame, Position::new(1_800.0, 2.5), t0 + order.delay);
        assert_eq!(a3.len(), 1);
        assert!(matches!(a3[0], RouterAction::Deliver { .. }));
        assert_eq!(v3.stats().rhl_exhausted, 1);
    }

    #[test]
    fn rhl_mitigation_defeats_clamped_replay() {
        let ca = CertificateAuthority::new(1);
        let (key, frame) = originate_frame(&ca, 1, 1_000.0);
        let mut v2 = GnRouter::new(
            ca.enroll(GnAddress::vehicle(2)),
            ca.verifier(),
            GnConfig::paper_default(1_283.0)
                .with_mitigations(geonet::MitigationConfig::rhl_check(3)),
            GeoReference::default(),
        );
        let mut atk = Attacker::blockage(Position::new(1_400.0, -10.0), BlockageMode::ClampRhl);
        let t0 = SimTime::from_secs(1);
        let a2 = v2.handle_frame(&frame, Position::new(1_400.0, 2.5), t0);
        let RouterAction::CbfTimer { generation, delay, .. } = a2[1] else { panic!() };
        let order = atk.on_sniff(&frame, t0).unwrap();
        v2.handle_frame(&order.frame, Position::new(1_400.0, 2.5), t0 + order.delay);
        assert_eq!(v2.stats().cbf_mitigation_rejects, 1);
        // Contention survives: V2 still re-broadcasts.
        let out = v2.handle_cbf_timer(key, generation, Position::new(1_400.0, 2.5), t0 + delay);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn replay_emits_attack_action_event() {
        use geonet_sim::{shared, VecSink};
        let ca = CertificateAuthority::new(1);
        let (key, frame) = originate_frame(&ca, 1, 1_000.0);
        let mut atk = Attacker::blockage(Position::new(1_400.0, -10.0), BlockageMode::ClampRhl);
        let sink = shared(VecSink::new());
        atk.set_tracer(Tracer::attached(sink.clone()).for_node(99));
        atk.on_sniff(&frame, SimTime::from_secs(1)).unwrap();
        let records = sink.borrow().records().to_vec();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].node, 99);
        match records[0].event {
            TraceEvent::AttackAction { kind: AttackKind::BlockageReplay, packet } => {
                assert_eq!(packet, Some(PacketRef::new(key.source.to_u64(), key.sn.0)));
            }
            ref other => panic!("{other:?}"),
        }
        // A suppressed duplicate emits nothing.
        assert!(atk.on_sniff(&frame, SimTime::from_secs(2)).is_none());
        assert_eq!(sink.borrow().records().len(), 1);
    }

    #[test]
    fn display_reports_mode() {
        let atk =
            Attacker::blockage(Position::ORIGIN, BlockageMode::PowerControlled { range: 120.0 });
        let s = atk.to_string();
        assert!(s.contains("power-controlled"), "{s}");
        assert_eq!(BlockageMode::ClampRhl.to_string(), "clamp-RHL");
    }
}
