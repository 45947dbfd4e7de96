//! A simulated IEEE 1609.2 / ETSI TS 102 731 security envelope.
//!
//! The paper's threat model only needs the *logical* properties of V2X
//! message security, not real elliptic-curve cryptography:
//!
//! 1. every legitimate node holds a certificate issued by a CA and signs
//!    its outgoing messages;
//! 2. receivers verify signatures and reject messages whose
//!    integrity-covered bytes were altered or that were never signed by an
//!    enrolled node;
//! 3. an **outsider attacker cannot obtain a certificate or forge a
//!    signature**, but *can* replay signed messages verbatim and can
//!    rewrite the fields outside the integrity envelope — in
//!    GeoNetworking, the remaining hop limit (RHL).
//!
//! Those properties are modelled with keyed 64-bit PRF tags. Capability
//! discipline stands in for the asymmetry of real signatures: signing is
//! only possible through [`Credentials`] (returned by
//! [`CertificateAuthority::enroll`]); verification only needs a
//! [`Verifier`], which offers no signing operations. Attack code receives
//! a `Verifier` at most — never `Credentials` — mirroring the paper's
//! outsider attacker.

use crate::wire::{ByteSink, GnPacket};
use crate::GnAddress;
use std::fmt;

/// FNV-1a 64-bit hash state, fed byte by byte through the wire encoders.
struct Fnv1a(u64);

impl ByteSink for Fnv1a {
    fn put_slice(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a over [`GnPacket::encode_protected`], streamed: no byte string
/// is built.
fn protected_digest(packet: &GnPacket) -> u64 {
    let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
    packet.encode_protected_into(&mut h);
    h.0
}

/// A keyed PRF built from splitmix64-style mixing — stands in for the
/// signature math.
fn prf(key: u64, data: u64) -> u64 {
    let mut z = key ^ data.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A certificate binding a GeoNetworking address to the CA's trust domain.
///
/// Certificates are public: they travel with every signed message, and
/// anyone (including the attacker) can read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// The enrolled address.
    pub subject: GnAddress,
    /// The CA's attestation tag over the subject.
    attestation: u64,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cert[{} / {:016x}]", self.subject, self.attestation)
    }
}

/// Private signing material for one enrolled node.
///
/// `Credentials` is deliberately **not** `Clone`-into-attacker-hands by
/// API design: it is produced only by [`CertificateAuthority::enroll`],
/// and the attack crates never receive one.
#[derive(Debug, Clone)]
pub struct Credentials {
    certificate: Certificate,
    signing_key: u64,
}

impl Credentials {
    /// The public certificate to attach to outgoing messages.
    #[must_use]
    pub fn certificate(&self) -> Certificate {
        self.certificate
    }

    /// Signs a packet, producing a [`SecuredPacket`].
    ///
    /// The signature covers [`GnPacket::encode_protected`] — everything
    /// except the RHL byte, which forwarders rewrite in flight.
    #[must_use]
    pub fn sign(&self, packet: GnPacket) -> SecuredPacket {
        let digest = protected_digest(&packet);
        let signature = prf(self.signing_key, digest);
        SecuredPacket { packet, signer: self.certificate, signature }
    }
}

/// The certificate authority for one simulation run.
///
/// Stands in for the real enrolment hierarchy (e.g. the U.S. DOT SCMS):
/// issues credentials to legitimate nodes and derives the [`Verifier`]
/// used by everyone to check signatures.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    secret: u64,
}

impl CertificateAuthority {
    /// Creates a CA with the given root secret.
    #[must_use]
    pub fn new(secret: u64) -> Self {
        CertificateAuthority { secret }
    }

    /// Enrols a node: issues its certificate and private signing key.
    #[must_use]
    pub fn enroll(&self, subject: GnAddress) -> Credentials {
        Credentials {
            certificate: Certificate {
                subject,
                attestation: prf(self.secret, subject.to_u64() ^ 0xCE27),
            },
            signing_key: prf(self.secret, subject.to_u64() ^ 0x5167),
        }
    }

    /// The verification oracle distributed to all nodes (and available to
    /// the attacker — verification is public).
    #[must_use]
    pub fn verifier(&self) -> Verifier {
        Verifier { secret: self.secret }
    }
}

/// Verifies signatures and certificates. Offers no signing capability.
#[derive(Debug, Clone)]
pub struct Verifier {
    secret: u64,
}

impl Verifier {
    /// Whether `other` checks signatures for the same trust domain: for
    /// every message, both verifiers return the same verdict.
    #[must_use]
    pub fn same_domain(&self, other: &Verifier) -> bool {
        self.secret == other.secret
    }

    /// Checks that a certificate was issued by this trust domain.
    #[must_use]
    pub fn certificate_valid(&self, cert: &Certificate) -> bool {
        cert.attestation == prf(self.secret, cert.subject.to_u64() ^ 0xCE27)
    }

    /// Verifies a secured packet: certificate validity plus the signature
    /// over the integrity-covered bytes.
    #[must_use]
    pub fn verify(&self, msg: &SecuredPacket) -> bool {
        if !self.certificate_valid(&msg.signer) {
            return false;
        }
        let digest = protected_digest(&msg.packet);
        let expected = prf(prf(self.secret, msg.signer.subject.to_u64() ^ 0x5167), digest);
        msg.signature == expected
    }
}

/// A signed GeoNetworking packet as it travels on the air.
///
/// The packet body is public and mutable — but any mutation of
/// integrity-covered bytes invalidates the signature. Only the RHL can be
/// rewritten while keeping the message verifiable, which is exactly what
/// the standard permits (and what the paper's intra-area attacker abuses
/// via [`SecuredPacket::with_rhl`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SecuredPacket {
    /// The packet contents.
    pub packet: GnPacket,
    /// The signer's public certificate.
    pub signer: Certificate,
    signature: u64,
}

impl SecuredPacket {
    /// The current remaining hop limit.
    #[must_use]
    pub fn rhl(&self) -> u8 {
        self.packet.basic.rhl
    }

    /// Returns a copy whose packet contents are replaced while the
    /// original signature is retained — what an on-path tamperer produces
    /// when it rewrites bytes it cannot re-sign. Verification fails
    /// unless the change stayed within the unprotected region (the RHL).
    #[must_use]
    pub fn with_packet(&self, packet: GnPacket) -> SecuredPacket {
        SecuredPacket { packet, signer: self.signer, signature: self.signature }
    }

    /// Returns a copy with the RHL rewritten.
    ///
    /// This requires no key material: RHL sits outside the integrity
    /// envelope, so the copy still verifies. Legitimate forwarders use it
    /// to decrement the hop limit; the attacker uses it to clamp RHL to 1.
    #[must_use]
    pub fn with_rhl(&self, rhl: u8) -> SecuredPacket {
        let mut copy = self.clone();
        copy.packet.basic.rhl = rhl;
        copy
    }
}

impl fmt::Display for SecuredPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "secured[{} rhl={} sig={:016x}]", self.signer, self.rhl(), self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pv::LongPositionVector;
    use crate::types::SequenceNumber;
    use crate::wire::ShortPositionVector;
    use geonet_geo::{Area, GeoReference, Heading, Position};
    use geonet_sim::SimTime;
    use proptest::prelude::*;

    fn setup() -> (CertificateAuthority, Credentials, SecuredPacket) {
        let ca = CertificateAuthority::new(0xDEAD_BEEF);
        let creds = ca.enroll(GnAddress::vehicle(42));
        let r = GeoReference::default();
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(42),
            SimTime::from_secs(1),
            Position::new(100.0, 2.5),
            30.0,
            Heading::EAST,
            &r,
        );
        let area = Area::circle(Position::new(4_020.0, 0.0), 50.0);
        let packet = GnPacket::geobroadcast(SequenceNumber(1), pv, &area, &r, vec![0xAA], 10);
        let msg = creds.sign(packet);
        (ca, creds, msg)
    }

    #[test]
    fn signed_message_verifies() {
        let (ca, _, msg) = setup();
        assert!(ca.verifier().verify(&msg));
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let (ca, _, mut msg) = setup();
        msg.packet.payload[0] ^= 1;
        assert!(!ca.verifier().verify(&msg));
    }

    #[test]
    fn tampered_position_fails_verification() {
        // The false-position-advertisement attack of prior work is
        // rejected: altering the PV breaks the signature.
        let (ca, _, mut msg) = setup();
        match &mut msg.packet.extended {
            crate::wire::Extended::Gbc(g) => g.so_pv.coord.lat += 1,
            crate::wire::Extended::Beacon { so_pv } => so_pv.coord.lat += 1,
            _ => unreachable!("test uses a GBC packet"),
        }
        assert!(!ca.verifier().verify(&msg));
    }

    #[test]
    fn with_packet_models_tampering() {
        let (ca, _, msg) = setup();
        let mut altered = msg.packet.clone();
        altered.payload[0] ^= 0xFF;
        let tampered = msg.with_packet(altered);
        assert!(!ca.verifier().verify(&tampered));
        // Replacing with an identical packet keeps it valid.
        assert!(ca.verifier().verify(&msg.with_packet(msg.packet.clone())));
    }

    #[test]
    fn rhl_rewrite_still_verifies() {
        // The paper's third CBF vulnerability: RHL is outside the
        // integrity envelope, so an attacker can clamp it to 1 and the
        // packet still authenticates.
        let (ca, _, msg) = setup();
        let clamped = msg.with_rhl(1);
        assert_eq!(clamped.rhl(), 1);
        assert!(ca.verifier().verify(&clamped));
    }

    #[test]
    fn replay_verbatim_verifies() {
        // Replay (the paper's inter-area attack primitive) cannot be
        // detected by the signature: the bytes are authentic.
        let (ca, _, msg) = setup();
        let replayed = msg.clone();
        assert!(ca.verifier().verify(&replayed));
    }

    #[test]
    fn foreign_ca_certificate_rejected() {
        let (_, _, msg) = setup();
        let other = CertificateAuthority::new(0x1234);
        assert!(!other.verifier().verify(&msg));
    }

    #[test]
    fn same_domain_follows_the_ca() {
        let ca = CertificateAuthority::new(0xDEAD_BEEF);
        assert!(ca.verifier().same_domain(&ca.verifier()));
        assert!(ca.verifier().same_domain(&CertificateAuthority::new(0xDEAD_BEEF).verifier()));
        assert!(!ca.verifier().same_domain(&CertificateAuthority::new(0x1234).verifier()));
    }

    #[test]
    fn forged_certificate_rejected() {
        let (ca, _, mut msg) = setup();
        // Attacker invents a certificate for its own address.
        msg.signer = Certificate { subject: GnAddress::vehicle(666), attestation: 0xBAD0_BAD0 };
        assert!(!ca.verifier().certificate_valid(&msg.signer));
        assert!(!ca.verifier().verify(&msg));
    }

    #[test]
    fn signature_bound_to_signer() {
        // A valid message re-attributed to another enrolled node fails:
        // the signature was made with the original key.
        let (ca, _, mut msg) = setup();
        let other = ca.enroll(GnAddress::vehicle(7));
        msg.signer = other.certificate();
        assert!(!ca.verifier().verify(&msg));
    }

    #[test]
    fn beacons_sign_and_verify() {
        let ca = CertificateAuthority::new(1);
        let creds = ca.enroll(GnAddress::vehicle(3));
        let r = GeoReference::default();
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(3),
            SimTime::ZERO,
            Position::ORIGIN,
            0.0,
            Heading::NORTH,
            &r,
        );
        let b = creds.sign(GnPacket::beacon(pv));
        assert!(ca.verifier().verify(&b));
        assert_eq!(b.rhl(), 1);
    }

    #[test]
    fn signatures_are_pinned() {
        // Recorded from the allocating `fnv1a(&encode_protected())` path;
        // the streamed digest must sign bit-identically.
        let (_, creds, msg) = setup();
        assert_eq!(msg.signature, 0x1c0a_6c37_33a8_daa6);
        let beacon = creds.sign(GnPacket::beacon(*msg.packet.so_pv()));
        assert_eq!(beacon.signature, 0xddeb_5430_126c_5dd0);
    }

    /// FNV-1a over a byte string: the reference the streamed digest must
    /// match.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    proptest! {
        #[test]
        fn prop_streamed_digest_matches_the_encoded_bytes(
            variant in 0usize..7,
            rhl in 0u8..=255,
            payload in prop::collection::vec(any::<u8>(), 0..400),
            sn in any::<u16>(),
            x in -5_000.0f64..5_000.0,
        ) {
            let r = GeoReference::default();
            let pv = LongPositionVector::from_sim(
                GnAddress::vehicle(42),
                SimTime::from_millis(u64::from(sn)),
                Position::new(x, 2.5),
                30.0,
                Heading::EAST,
                &r,
            );
            let sn = SequenceNumber(sn);
            let at = Position::new(x + 500.0, 0.0);
            let body = payload.clone();
            let mut packet = match variant {
                0 => GnPacket::beacon(pv),
                1 => GnPacket::geounicast(sn, pv, ShortPositionVector::from_long(&pv), body, 10),
                2 => GnPacket::geobroadcast(sn, pv, &Area::circle(at, 50.0), &r, body, 10),
                3 => GnPacket::geobroadcast(sn, pv, &Area::rectangle(at, 80.0, 9.0, 90.0), &r, body, 10),
                4 => GnPacket::geobroadcast(sn, pv, &Area::ellipse(at, 80.0, 9.0, 45.0), &r, body, 10),
                5 => GnPacket::topo_broadcast(sn, pv, body, 10),
                _ => GnPacket::single_hop_broadcast(pv, body),
            };
            packet.basic.rhl = rhl;
            packet.payload = payload;
            prop_assert_eq!(protected_digest(&packet), fnv1a(&packet.encode_protected()));
        }
    }

    #[test]
    fn displays_are_nonempty() {
        let (_, creds, msg) = setup();
        assert!(creds.certificate().to_string().contains("cert["));
        assert!(msg.to_string().contains("secured["));
    }
}
