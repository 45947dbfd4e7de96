//! Link-layer frames.

use crate::security::{SecuredPacket, Verifier};
use crate::types::GnAddress;
use geonet_geo::Position;
use std::fmt;

/// A link-layer frame as it travels on the air.
///
/// The link layer is **unauthenticated** (only the GeoNetworking payload is
/// signed), so the source field is just a claim — an attacker can use any
/// pseudonymous source address, as the paper's threat model allows for
/// privacy reasons.
///
/// `sender_position` models what a receiver learns about the transmitter
/// from the access layer and its location table: CBF uses it to compute
/// the contention timeout relative to the previous hop. For legitimate
/// nodes it is the transmitter's true position at transmission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Claimed link-layer source.
    pub src: GnAddress,
    /// Link-layer destination: `Some` for unicast (GF forwarding),
    /// `None` for broadcast (beacons, CBF).
    pub dst: Option<GnAddress>,
    /// Transmitter position at transmission time.
    pub sender_position: Position,
    /// The secured GeoNetworking packet.
    pub msg: SecuredPacket,
}

impl Frame {
    /// Creates a broadcast frame.
    #[must_use]
    pub fn broadcast(src: GnAddress, sender_position: Position, msg: SecuredPacket) -> Self {
        Frame { src, dst: None, sender_position, msg }
    }

    /// Creates a unicast frame to `dst`.
    #[must_use]
    pub fn unicast(
        src: GnAddress,
        dst: GnAddress,
        sender_position: Position,
        msg: SecuredPacket,
    ) -> Self {
        Frame { src, dst: Some(dst), sender_position, msg }
    }

    /// Whether this frame should be processed by `addr`'s network layer:
    /// broadcasts by everyone, unicasts by the addressee only.
    ///
    /// A promiscuous sniffer (the attacker) ignores this filter.
    #[must_use]
    pub fn addressed_to(&self, addr: GnAddress) -> bool {
        match self.dst {
            None => true,
            Some(d) => d == addr,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dst {
            None => write!(f, "frame[{} → *]", self.src),
            Some(d) => write!(f, "frame[{} → {}]", self.src, d),
        }
    }
}

/// One transmission on the air, shared by every receiver.
///
/// [`OnAir::new`] checks the signature exactly once and keeps the verdict
/// next to the frame, so a broadcast heard by thirty nodes is verified
/// once rather than thirty times. The verdict cannot go stale: both
/// fields are private, `OnAir` hands out only `&Frame`, and the verdict
/// is a pure function of the frame's bytes and the verifying domain. A
/// receiver from another trust domain does not take the verdict on
/// faith; [`OnAir::authentic_under`] verifies again for it.
#[derive(Debug)]
pub struct OnAir {
    frame: Frame,
    verified_by: Verifier,
    authentic: bool,
}

impl OnAir {
    /// Puts `frame` on the air, verifying its signature under `verifier`.
    #[must_use]
    pub fn new(frame: Frame, verifier: &Verifier) -> Self {
        let authentic = verifier.verify(&frame.msg);
        OnAir { frame, verified_by: verifier.clone(), authentic }
    }

    /// The frame as transmitted.
    #[must_use]
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Whether the frame verifies under `verifier`: the stored verdict
    /// when `verifier` belongs to the domain that produced it, otherwise
    /// a fresh [`Verifier::verify`].
    #[must_use]
    pub fn authentic_under(&self, verifier: &Verifier) -> bool {
        if verifier.same_domain(&self.verified_by) {
            self.authentic
        } else {
            verifier.verify(&self.frame.msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pv::LongPositionVector;
    use crate::security::CertificateAuthority;
    use crate::wire::GnPacket;
    use geonet_geo::{GeoReference, Heading};
    use geonet_sim::SimTime;

    fn beacon_msg(addr: GnAddress) -> SecuredPacket {
        let ca = CertificateAuthority::new(1);
        let creds = ca.enroll(addr);
        let pv = LongPositionVector::from_sim(
            addr,
            SimTime::ZERO,
            Position::ORIGIN,
            0.0,
            Heading::NORTH,
            &GeoReference::default(),
        );
        creds.sign(GnPacket::beacon(pv))
    }

    #[test]
    fn broadcast_addressed_to_everyone() {
        let a = GnAddress::vehicle(1);
        let f = Frame::broadcast(a, Position::ORIGIN, beacon_msg(a));
        assert!(f.addressed_to(GnAddress::vehicle(2)));
        assert!(f.addressed_to(a));
        assert!(f.to_string().contains("→ *"));
    }

    #[test]
    fn on_air_verdict_is_per_domain() {
        let a = GnAddress::vehicle(1);
        let home = CertificateAuthority::new(1).verifier();
        let foreign = CertificateAuthority::new(2).verifier();
        let genuine = OnAir::new(Frame::broadcast(a, Position::ORIGIN, beacon_msg(a)), &home);
        assert!(genuine.authentic_under(&home));
        assert!(!genuine.authentic_under(&foreign));
        // A verdict reached under a foreign domain is re-checked at home.
        let carried = OnAir::new(genuine.frame().clone(), &foreign);
        assert!(!carried.authentic_under(&foreign));
        assert!(carried.authentic_under(&home));
    }

    #[test]
    fn unicast_addressed_to_destination_only() {
        let a = GnAddress::vehicle(1);
        let b = GnAddress::vehicle(2);
        let f = Frame::unicast(a, b, Position::ORIGIN, beacon_msg(a));
        assert!(f.addressed_to(b));
        assert!(!f.addressed_to(a));
        assert!(!f.addressed_to(GnAddress::vehicle(3)));
        assert!(f.to_string().contains("vehicle"));
    }
}
