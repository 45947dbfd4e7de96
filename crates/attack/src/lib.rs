//! The paper's two outsider attacks against GeoNetworking.
//!
//! Both attacks are mounted by *outsiders* in the paper's threat model:
//! they hold no certificate (note that nothing in this crate ever
//! receives [`geonet::Credentials`]), cannot forge or alter signed
//! content, and act purely by **replaying** authentic frames they sniff
//! from the public channel — optionally rewriting the one field the
//! standard leaves outside the integrity envelope, the remaining hop
//! limit.
//!
//! One [`Attacker`] type mounts either attack. It owns what the two
//! share: the roadside transmitter's position, the capture-to-replay
//! processing delay (default 1 ms), the tracer, and the assembly of the
//! [`ReplayOrder`] it emits. What it replays, and how, is its
//! [`Strategy`], chosen once at construction:
//!
//! * [`Strategy::Interception`] (paper §III-B) replays beacons so that
//!   victims learn authentic position vectors of vehicles that are *out
//!   of their radio range*; greedy forwarding then picks an unreachable
//!   next hop and the packet silently dies.
//! * [`Strategy::Blockage`] (paper §III-C) impersonates the fastest CBF
//!   contender: it captures a GeoBroadcast packet, clamps its RHL to 1
//!   and re-broadcasts immediately, making all buffered candidates
//!   discard their copies while new receivers decrement the RHL to zero
//!   and stop. The Spot-2 variant replays unmodified at reduced
//!   transmission power instead.
//!
//! Each strategy classifies a sniffed frame by its extended header and
//! replays exactly one kind: interception only beacons, blockage only
//! GeoBroadcasts. Every other frame is ignored.
//!
//! The attacker is a pure state machine like the routers: the scenario
//! layer feeds it every frame its sniffer can hear and executes the
//! [`ReplayOrder`]s it emits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockage;
pub mod interception;

pub use blockage::{BlockageMode, IntraAreaAttacker};
pub use interception::InterAreaAttacker;

use geonet::{Frame, GnAddress, SecuredPacket};
use geonet_geo::Position;
use geonet_sim::{SimDuration, SimTime, Tracer};
use std::fmt;

/// An instruction to transmit a (possibly modified) captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOrder {
    /// The frame to put on the air.
    pub frame: Frame,
    /// Processing delay before transmission. The paper argues ≤ 1 ms is
    /// achievable, comfortably inside the CBF window (TO_MIN = 1 ms).
    pub delay: SimDuration,
    /// Transmission-power control: cap the effective range to this many
    /// metres (`None` = full attack power). Used by the Spot-2 variant.
    pub range_cap: Option<f64>,
}

/// A strategy's answer to one sniffed frame: what to broadcast from the
/// attacker's transmitter.
struct Replay {
    /// The link-layer source the replay is sent under.
    src: GnAddress,
    msg: SecuredPacket,
    range_cap: Option<f64>,
}

/// Which attack an [`Attacker`] mounts, with that attack's own state.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Beacon replay (paper §III-B).
    Interception(InterAreaAttacker),
    /// GeoBroadcast replay that suppresses the CBF flood (paper §III-C).
    Blockage(IntraAreaAttacker),
}

/// The roadside replay attacker.
#[derive(Debug, Clone)]
pub struct Attacker {
    position: Position,
    processing_delay: SimDuration,
    tracer: Tracer,
    strategy: Strategy,
}

impl Attacker {
    /// An interception attacker whose sniffer sits at `position`.
    #[must_use]
    pub fn interception(position: Position) -> Self {
        Attacker::new(position, Strategy::Interception(InterAreaAttacker::default()))
    }

    /// A blockage attacker at `position` replaying in the given mode.
    #[must_use]
    pub fn blockage(position: Position, mode: BlockageMode) -> Self {
        Attacker::new(position, Strategy::Blockage(IntraAreaAttacker::new(mode)))
    }

    fn new(position: Position, strategy: Strategy) -> Self {
        Attacker {
            position,
            processing_delay: SimDuration::from_millis(1),
            tracer: Tracer::disabled(),
            strategy,
        }
    }

    /// Attaches a tracer; each capture and replay emits an
    /// [`TraceEvent::AttackAction`](geonet_sim::TraceEvent::AttackAction)
    /// through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Overrides the capture-to-replay processing delay (default 1 ms).
    #[must_use]
    pub fn with_processing_delay(mut self, delay: SimDuration) -> Self {
        self.processing_delay = delay;
        self
    }

    /// The attacker's position.
    #[must_use]
    pub fn position(&self) -> Position {
        self.position
    }

    /// Moves the attacker (the paper's discussion covers mobile
    /// attackers; replayed frames carry the new transmitter position).
    pub fn set_position(&mut self, position: Position) {
        self.position = position;
    }

    /// The attack mounted, with its counters.
    #[must_use]
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The link-layer address the attacker transmits under, when it has
    /// one of its own: the blockage pseudonym. The interception attacker
    /// replays beacons under their original sources (`None`).
    #[must_use]
    pub fn pseudonym(&self) -> Option<GnAddress> {
        match self.strategy {
            Strategy::Interception(_) => None,
            Strategy::Blockage(_) => Some(IntraAreaAttacker::DEFAULT_PSEUDONYM),
        }
    }

    /// Feeds one sniffed frame; returns a replay order when the strategy
    /// replays it.
    ///
    /// The replay is a broadcast from the attacker's own position. Its
    /// network-layer content is the captured packet, authentic and still
    /// verifying, with at most the unprotected RHL rewritten.
    pub fn on_sniff(&mut self, frame: &Frame, now: SimTime) -> Option<ReplayOrder> {
        let replay = match &mut self.strategy {
            Strategy::Interception(s) => s.capture(frame, now, &self.tracer),
            Strategy::Blockage(s) => s.capture(frame, now, &self.tracer),
        }?;
        Some(ReplayOrder {
            frame: Frame::broadcast(replay.src, self.position, replay.msg),
            delay: self.processing_delay,
            range_cap: replay.range_cap,
        })
    }
}

impl fmt::Display for Attacker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.strategy {
            Strategy::Interception(s) => write!(
                f,
                "inter-area attacker at {} ({} beacons replayed)",
                self.position,
                s.beacons_replayed()
            ),
            Strategy::Blockage(s) => write!(
                f,
                "intra-area attacker at {} mode {} ({} packets replayed)",
                self.position,
                s.mode,
                s.packets_replayed()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet::wire::{GnPacket, ShortPositionVector};
    use geonet::{CertificateAuthority, LongPositionVector, SequenceNumber};
    use geonet_geo::{Area, GeoReference, Heading};

    /// One signed broadcast of each extended-header variant, labelled.
    fn one_frame_per_variant() -> [(&'static str, Frame); 5] {
        let addr = GnAddress::vehicle(1);
        let credentials = CertificateAuthority::new(1).enroll(addr);
        let reference = GeoReference::default();
        let position = Position::new(1_000.0, 2.5);
        let now = SimTime::from_secs(1);
        let pv = LongPositionVector::from_sim(addr, now, position, 30.0, Heading::EAST, &reference);
        let sn = SequenceNumber(7);
        let area = Area::circle(Position::new(1_500.0, 0.0), 200.0);
        let frame = |packet| Frame::broadcast(addr, position, credentials.sign(packet));
        [
            ("beacon", frame(GnPacket::beacon(pv))),
            ("shb", frame(GnPacket::single_hop_broadcast(pv, vec![1]))),
            ("tsb", frame(GnPacket::topo_broadcast(sn, pv, vec![1], 5))),
            (
                "guc",
                frame(GnPacket::geounicast(
                    sn,
                    pv,
                    ShortPositionVector::from_long(&pv),
                    vec![1],
                    10,
                )),
            ),
            ("gbc", frame(GnPacket::geobroadcast(sn, pv, &area, &reference, vec![1], 10))),
        ]
    }

    #[test]
    fn each_strategy_replays_exactly_one_frame_kind() {
        let now = SimTime::from_secs(1);
        for (kind, frame) in one_frame_per_variant() {
            let mut interception = Attacker::interception(Position::ORIGIN);
            let mut blockage = Attacker::blockage(Position::ORIGIN, BlockageMode::ClampRhl);
            assert_eq!(interception.on_sniff(&frame, now).is_some(), kind == "beacon", "{kind}");
            assert_eq!(blockage.on_sniff(&frame, now).is_some(), kind == "gbc", "{kind}");
        }
    }
}
