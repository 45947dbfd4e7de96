//! Contention-Based Forwarding (CBF, EN 302 636-4-1 annex F.3).
//!
//! Inside the destination area a GeoBroadcast packet floods by contention:
//! every receiver buffers the packet and starts a timer inversely
//! proportional to its distance from the previous sender,
//!
//! ```text
//! TO = TO_MIN                                        if DIST > DIST_MAX
//! TO = TO_MAX + (TO_MIN − TO_MAX) · DIST / DIST_MAX  otherwise
//! ```
//!
//! so the farthest receiver re-broadcasts first. A receiver that hears the
//! same packet again before its timer fires concludes a peer already
//! forwarded it, stops the timer and discards its copy.
//!
//! The paper's intra-area blockage attack abuses exactly that discard rule
//! (receivers verify neither the hop count nor the source of a
//! "duplicate"), plus the unprotected RHL. The mitigation — refusing to
//! treat a copy whose RHL dropped by more than a threshold as a duplicate
//! — is implemented here as [`CbfParams::rhl_drop_threshold`].

use crate::security::SecuredPacket;
use crate::types::{GnAddress, SequenceNumber};
use geonet_geo::Position;
use geonet_sim::{SimDuration, SimTime, StateHasher};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a GeoBroadcast packet for duplicate detection: the source
/// address plus the source-assigned sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketKey {
    /// The originating node.
    pub source: GnAddress,
    /// The source-assigned sequence number.
    pub sn: SequenceNumber,
}

impl PacketKey {
    /// The key of any sequence-numbered packet (GeoBroadcast, GeoUnicast
    /// or topologically-scoped broadcast), or `None` for beacons and
    /// single-hop broadcasts, which carry no sequence number.
    #[must_use]
    pub fn of(packet: &SecuredPacket) -> Option<PacketKey> {
        use crate::wire::Extended;
        match &packet.packet.extended {
            Extended::Gbc(g) => Some(PacketKey { source: g.so_pv.addr, sn: g.sn }),
            Extended::Guc(g) => Some(PacketKey { source: g.so_pv.addr, sn: g.sn }),
            Extended::Tsb { sn, so_pv } => Some(PacketKey { source: so_pv.addr, sn: *sn }),
            Extended::Beacon { .. } | Extended::Shb { .. } => None,
        }
    }
}

impl fmt::Display for PacketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.source, self.sn)
    }
}

/// CBF timing parameters and the optional RHL-drop mitigation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbfParams {
    /// Minimum buffering time (standard default 1 ms).
    pub to_min: SimDuration,
    /// Maximum buffering time (standard default 100 ms).
    pub to_max: SimDuration,
    /// Theoretical maximum communication range of the access technology,
    /// metres.
    pub dist_max: f64,
    /// The paper's mitigation (§V-B): a second copy whose RHL is lower
    /// than the buffered copy's by **more** than this threshold is *not*
    /// accepted as a duplicate. `None` disables the check (the standard's
    /// behaviour).
    pub rhl_drop_threshold: Option<u8>,
}

impl CbfParams {
    /// Standard defaults (TO_MIN 1 ms, TO_MAX 100 ms, no mitigation) with
    /// the given `DIST_MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `dist_max` is not finite and positive.
    #[must_use]
    pub fn default_for_dist_max(dist_max: f64) -> Self {
        assert!(dist_max.is_finite() && dist_max > 0.0, "invalid DIST_MAX: {dist_max}");
        CbfParams {
            to_min: SimDuration::from_millis(1),
            to_max: SimDuration::from_millis(100),
            dist_max,
            rhl_drop_threshold: None,
        }
    }

    /// Returns these parameters with the RHL-drop mitigation enabled at
    /// the given threshold (the paper uses 3).
    #[must_use]
    pub fn with_rhl_drop_threshold(self, threshold: u8) -> Self {
        CbfParams { rhl_drop_threshold: Some(threshold), ..self }
    }

    /// The contention timeout for a receiver `dist` metres from the
    /// previous sender.
    ///
    /// # Panics
    ///
    /// Panics if `dist` is negative or NaN.
    #[must_use]
    pub fn contention_timeout(&self, dist: f64) -> SimDuration {
        assert!(dist.is_finite() && dist >= 0.0, "invalid distance: {dist}");
        if dist > self.dist_max {
            return self.to_min;
        }
        let to_min = self.to_min.as_micros() as f64;
        let to_max = self.to_max.as_micros() as f64;
        let to = to_max + (to_min - to_max) * dist / self.dist_max;
        SimDuration::from_micros(to.round() as u64)
    }
}

/// The outcome of feeding a received GeoBroadcast packet to the CBF
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbfVerdict {
    /// First copy of this packet: deliver the payload to the application.
    /// If `contend` is set, schedule a contention timer for that delay
    /// with the given generation token; on expiry call
    /// [`CbfBuffer::take_expired`]. `contend` is `None` when the RHL is
    /// exhausted (decremented to zero) — receive but do not forward.
    FirstCopy {
        /// Contention timer to schedule, if the packet is forwardable.
        contend: Option<(SimDuration, u64)>,
    },
    /// A duplicate arrived while the packet was buffered: the timer was
    /// stopped and the buffered copy discarded (contention lost).
    DuplicateDiscarded,
    /// A duplicate arrived but the mitigation refused it (RHL drop above
    /// threshold); the buffered copy and its timer stand.
    DuplicateRejectedByMitigation,
    /// The packet was already handled earlier (forwarded or discarded);
    /// ignored.
    AlreadyHandled,
}

/// One buffered packet awaiting its contention timer.
#[derive(Debug, Clone)]
struct Buffered {
    /// The copy to re-broadcast (RHL already decremented).
    packet: SecuredPacket,
    /// Invalidates stale timer events after a discard.
    generation: u64,
    /// RHL of the copy we first received, for the mitigation's drop check.
    first_rhl: u8,
}

/// The per-node CBF state: buffered packets and the set of already-handled
/// packet keys.
///
/// Timers are owned by the caller's event loop: `on_packet` hands out a
/// `(delay, generation)` pair, and when the caller's timer fires it calls
/// [`CbfBuffer::take_expired`] with that generation — a stale generation
/// (the packet was discarded meanwhile) yields `None`. This "generation
/// token" pattern avoids needing cancellable timers in the kernel.
#[derive(Debug, Default)]
pub struct CbfBuffer {
    entries: BTreeMap<PacketKey, Buffered>,
    handled: BTreeMap<PacketKey, SimTime>,
    next_generation: u64,
}

impl CbfBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        CbfBuffer::default()
    }

    /// Number of packets currently buffered (contending).
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of packet keys in the already-handled list — a state-depth
    /// gauge for telemetry (grows until purged by
    /// [`CbfBuffer::purge_handled_before`]).
    #[must_use]
    pub fn handled_count(&self) -> usize {
        self.handled.len()
    }

    /// Whether `key` has already been handled (delivered once).
    #[must_use]
    pub fn is_handled(&self, key: PacketKey) -> bool {
        self.handled.contains_key(&key)
    }

    /// Processes a received GeoBroadcast copy.
    ///
    /// `sender_position` is the position of the node the frame was
    /// physically received from (used for the contention timeout);
    /// `own_position` is the receiver's own position.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a GeoBroadcast packet.
    pub fn on_packet(
        &mut self,
        packet: &SecuredPacket,
        sender_position: Position,
        own_position: Position,
        params: &CbfParams,
        now: SimTime,
    ) -> CbfVerdict {
        let key = PacketKey::of(packet).expect("CBF handles GeoBroadcast packets only");
        if let Some(buffered) = self.entries.get(&key) {
            // Second copy while contending. The standard discards
            // unconditionally; the mitigation first compares RHL values.
            let drop = buffered.first_rhl.saturating_sub(packet.rhl());
            if let Some(threshold) = params.rhl_drop_threshold {
                if drop > threshold {
                    return CbfVerdict::DuplicateRejectedByMitigation;
                }
            }
            self.entries.remove(&key);
            return CbfVerdict::DuplicateDiscarded;
        }
        if self.handled.contains_key(&key) {
            return CbfVerdict::AlreadyHandled;
        }
        // First copy: deliver, and contend unless the hop limit is spent.
        self.handled.insert(key, now);
        let rhl_after = packet.rhl().saturating_sub(1);
        if rhl_after == 0 {
            return CbfVerdict::FirstCopy { contend: None };
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        self.entries.insert(
            key,
            Buffered { packet: packet.with_rhl(rhl_after), generation, first_rhl: packet.rhl() },
        );
        let delay = params.contention_timeout(own_position.distance(sender_position));
        CbfVerdict::FirstCopy { contend: Some((delay, generation)) }
    }

    /// Marks a packet as already handled without buffering it — used by
    /// the source itself, so echoes of its own broadcast are treated as
    /// duplicates of a handled packet rather than fresh receptions.
    pub fn mark_handled(&mut self, key: PacketKey, now: SimTime) {
        self.handled.insert(key, now);
    }

    /// Called when a contention timer fires: returns the packet to
    /// re-broadcast if the entry is still live and the generation matches,
    /// otherwise `None` (the contention was lost meanwhile).
    pub fn take_expired(&mut self, key: PacketKey, generation: u64) -> Option<SecuredPacket> {
        match self.entries.get(&key) {
            Some(b) if b.generation == generation => {
                let b = self.entries.remove(&key).expect("entry just seen");
                Some(b.packet)
            }
            _ => None,
        }
    }

    /// Drops handled-packet records older than `cutoff` (housekeeping for
    /// long runs).
    pub fn purge_handled_before(&mut self, cutoff: SimTime) {
        self.handled.retain(|_, &mut t| t >= cutoff);
    }

    /// Folds the buffer's canonical state — the generation counter, every
    /// contending entry (key, generation, RHL bookkeeping) and the
    /// handled-packet ledger — into an audit digest, in key order.
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_u64(self.next_generation);
        h.write_u64(self.entries.len() as u64);
        for (key, b) in &self.entries {
            h.write_u64(key.source.to_u64());
            h.write_u64(u64::from(key.sn.0));
            h.write_u64(b.generation);
            h.write_u8(b.first_rhl);
            h.write_u8(b.packet.rhl());
        }
        h.write_u64(self.handled.len() as u64);
        for (key, t) in &self.handled {
            h.write_u64(key.source.to_u64());
            h.write_u64(u64::from(key.sn.0));
            h.write_u64(t.as_micros());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pv::LongPositionVector;
    use crate::security::CertificateAuthority;
    use crate::types::GnAddress;
    use crate::wire::GnPacket;
    use geonet_geo::{Area, GeoReference, Heading};
    use proptest::prelude::*;

    const NOW: SimTime = SimTime::from_secs(1);

    fn gbc_packet(source: u64, sn: u16, rhl: u8) -> SecuredPacket {
        let r = GeoReference::default();
        let ca = CertificateAuthority::new(7);
        let addr = GnAddress::vehicle(source);
        let creds = ca.enroll(addr);
        let pv = LongPositionVector::from_sim(
            addr,
            NOW,
            Position::new(0.0, 0.0),
            30.0,
            Heading::EAST,
            &r,
        );
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let mut p = GnPacket::geobroadcast(SequenceNumber(sn), pv, &area, &r, vec![1], rhl);
        p.basic.rhl = rhl;
        creds.sign(p)
    }

    fn params() -> CbfParams {
        CbfParams::default_for_dist_max(1_283.0)
    }

    #[test]
    fn timeout_formula_endpoints() {
        let p = params();
        assert_eq!(p.contention_timeout(0.0), SimDuration::from_millis(100));
        assert_eq!(p.contention_timeout(1_283.0), SimDuration::from_millis(1));
        assert_eq!(p.contention_timeout(2_000.0), SimDuration::from_millis(1));
        // Halfway: 100 + (1-100)/2 = 50.5 ms.
        assert_eq!(p.contention_timeout(641.5), SimDuration::from_micros(50_500));
    }

    #[test]
    fn farther_receiver_fires_first() {
        // The paper's Figure 2: V7 (farther) gets a smaller TO than V6.
        let p = params();
        assert!(p.contention_timeout(400.0) < p.contention_timeout(100.0));
    }

    #[test]
    fn first_copy_buffers_and_contends() {
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 10);
        let v = buf.on_packet(&pkt, Position::ORIGIN, Position::new(400.0, 0.0), &params(), NOW);
        match v {
            CbfVerdict::FirstCopy { contend: Some((delay, generation)) } => {
                assert_eq!(delay, params().contention_timeout(400.0));
                // Timer fires: the re-broadcast copy has RHL decremented.
                let out = buf.take_expired(PacketKey::of(&pkt).unwrap(), generation).unwrap();
                assert_eq!(out.rhl(), 9);
            }
            other => panic!("expected contention, got {other:?}"),
        }
        assert_eq!(buf.buffered_count(), 0);
    }

    #[test]
    fn rhl_one_delivers_without_forwarding() {
        // The attacker's clamped packets: receivers count as receiving but
        // never contend.
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 1);
        let v = buf.on_packet(&pkt, Position::ORIGIN, Position::new(10.0, 0.0), &params(), NOW);
        assert_eq!(v, CbfVerdict::FirstCopy { contend: None });
        assert_eq!(buf.buffered_count(), 0);
        assert!(buf.is_handled(PacketKey::of(&pkt).unwrap()));
    }

    #[test]
    fn duplicate_discards_buffered_copy() {
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 10);
        let key = PacketKey::of(&pkt).unwrap();
        let generation = match buf.on_packet(
            &pkt,
            Position::ORIGIN,
            Position::new(100.0, 0.0),
            &params(),
            NOW,
        ) {
            CbfVerdict::FirstCopy { contend: Some((_, g)) } => g,
            other => panic!("{other:?}"),
        };
        // A peer's re-broadcast (RHL 9) arrives before our timer.
        let dup = gbc_packet(1, 1, 9);
        let v = buf.on_packet(
            &dup,
            Position::new(50.0, 0.0),
            Position::new(100.0, 0.0),
            &params(),
            NOW,
        );
        assert_eq!(v, CbfVerdict::DuplicateDiscarded);
        // The late timer finds nothing to send.
        assert!(buf.take_expired(key, generation).is_none());
        // Further copies are ignored.
        let v = buf.on_packet(&dup, Position::ORIGIN, Position::new(100.0, 0.0), &params(), NOW);
        assert_eq!(v, CbfVerdict::AlreadyHandled);
    }

    #[test]
    fn stale_generation_does_not_resurrect() {
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 10);
        let key = PacketKey::of(&pkt).unwrap();
        let g1 = match buf.on_packet(
            &pkt,
            Position::ORIGIN,
            Position::new(100.0, 0.0),
            &params(),
            NOW,
        ) {
            CbfVerdict::FirstCopy { contend: Some((_, g)) } => g,
            other => panic!("{other:?}"),
        };
        assert!(buf.take_expired(key, g1 + 1).is_none(), "wrong generation");
        assert!(buf.take_expired(key, g1).is_some(), "right generation still there");
    }

    #[test]
    fn mitigation_rejects_steep_rhl_drop() {
        // Buffered at RHL 10; the attacker's copy arrives with RHL 1 —
        // a drop of 9 > 3. The mitigated node keeps contending.
        let p = params().with_rhl_drop_threshold(3);
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 10);
        let key = PacketKey::of(&pkt).unwrap();
        let g = match buf.on_packet(&pkt, Position::ORIGIN, Position::new(100.0, 0.0), &p, NOW) {
            CbfVerdict::FirstCopy { contend: Some((_, g)) } => g,
            other => panic!("{other:?}"),
        };
        let attack_copy = pkt.with_rhl(1);
        let v = buf.on_packet(
            &attack_copy,
            Position::new(20.0, 0.0),
            Position::new(100.0, 0.0),
            &p,
            NOW,
        );
        assert_eq!(v, CbfVerdict::DuplicateRejectedByMitigation);
        // The timer still yields the packet: the attack failed.
        assert!(buf.take_expired(key, g).is_some());
    }

    #[test]
    fn mitigation_accepts_legitimate_duplicates() {
        // A real peer's re-broadcast drops RHL by exactly 1 — accepted.
        let p = params().with_rhl_drop_threshold(3);
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 10);
        buf.on_packet(&pkt, Position::ORIGIN, Position::new(100.0, 0.0), &p, NOW);
        let dup = gbc_packet(1, 1, 9);
        let v = buf.on_packet(&dup, Position::new(400.0, 0.0), Position::new(100.0, 0.0), &p, NOW);
        assert_eq!(v, CbfVerdict::DuplicateDiscarded);
    }

    #[test]
    fn distinct_packets_contend_independently() {
        let mut buf = CbfBuffer::new();
        let a = gbc_packet(1, 1, 10);
        let b = gbc_packet(1, 2, 10); // same source, next SN
        let c = gbc_packet(2, 1, 10); // different source, same SN
        for pkt in [&a, &b, &c] {
            let v = buf.on_packet(pkt, Position::ORIGIN, Position::new(100.0, 0.0), &params(), NOW);
            assert!(matches!(v, CbfVerdict::FirstCopy { contend: Some(_) }), "{v:?}");
        }
        assert_eq!(buf.buffered_count(), 3);
    }

    #[test]
    fn purge_handled_forgets_old_keys() {
        let mut buf = CbfBuffer::new();
        let pkt = gbc_packet(1, 1, 1);
        buf.on_packet(&pkt, Position::ORIGIN, Position::new(10.0, 0.0), &params(), NOW);
        let key = PacketKey::of(&pkt).unwrap();
        assert!(buf.is_handled(key));
        buf.purge_handled_before(NOW + SimDuration::from_secs(60));
        assert!(!buf.is_handled(key));
    }

    #[test]
    fn packet_key_display() {
        let k = PacketKey { source: GnAddress::vehicle(3), sn: SequenceNumber(7) };
        assert!(k.to_string().contains("sn7"));
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn timeout_rejects_negative_distance() {
        let _ = params().contention_timeout(-1.0);
    }

    proptest! {
        #[test]
        fn prop_timeout_bounded_and_monotone(d1 in 0.0f64..3_000.0, d2 in 0.0f64..3_000.0) {
            let p = params();
            let t1 = p.contention_timeout(d1);
            let t2 = p.contention_timeout(d2);
            prop_assert!(t1 >= p.to_min && t1 <= p.to_max);
            // Monotone non-increasing in distance.
            if d1 <= d2 {
                prop_assert!(t1 >= t2);
            } else {
                prop_assert!(t2 >= t1);
            }
        }

        #[test]
        fn prop_first_copy_exactly_once(copies in 2u8..10) {
            // However many copies arrive, only the first is a FirstCopy.
            let mut buf = CbfBuffer::new();
            let pkt = gbc_packet(1, 1, 10);
            let mut firsts = 0;
            for i in 0..copies {
                let v = buf.on_packet(
                    &pkt.with_rhl(10 - (i % 3)),
                    Position::ORIGIN,
                    Position::new(100.0, 0.0),
                    &params(),
                    NOW,
                );
                if matches!(v, CbfVerdict::FirstCopy { .. }) {
                    firsts += 1;
                }
            }
            prop_assert_eq!(firsts, 1);
        }
    }
}
