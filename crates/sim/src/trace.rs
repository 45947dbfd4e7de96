//! Packet-lifecycle tracing: structured events, pluggable sinks, and a
//! zero-overhead-when-disabled emission handle.
//!
//! Every layer of the stack — the GeoNetworking router, the radio world,
//! the traffic microsimulation and the attackers — reports what it did to
//! a packet as a [`TraceEvent`]. Events flow through a [`Tracer`] handle
//! into a [`TraceSink`]:
//!
//! * [`NullSink`] — the default; the `Tracer` holds no sink at all, so an
//!   emission is a single branch on an `Option` and the event is never
//!   constructed observably.
//! * [`CountingSink`] — typed per-event counters, total and per node; the
//!   router's public statistics are derived from the same events.
//! * [`JsonlSink`] — one JSON object per line (simulation timestamp, node
//!   id, event payload), hand-encoded to a stable, documented schema in
//!   the dialect of the shared [`json`] codec, and parseable back into
//!   [`TraceRecord`]s through that codec for post-mortem forensics.
//! * [`VecSink`] — an in-memory record buffer for tests and the
//!   forensic reconstruction in `geonet-scenarios`.
//!
//! The event vocabulary is deliberately flat and primitive-typed: packets
//! are identified by [`PacketRef`] (48-bit source address + sequence
//! number), peers by their raw address bits, so the bottom-of-the-stack
//! `geonet-sim` crate needs no knowledge of the wire types above it.

use crate::json;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

macro_rules! fmt_via_name {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.name())
        }
    };
}

/// Identity of one routed packet: the originator's address bits plus the
/// originator-assigned sequence number.
///
/// This mirrors the router's `PacketKey` (source address, sequence
/// number) but is defined here, below the wire types, so every crate in
/// the workspace can stamp events with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketRef {
    /// The originator's GeoNetworking address as raw bits.
    pub source: u64,
    /// The originator-assigned sequence number.
    pub sn: u16,
}

impl PacketRef {
    /// Creates a packet reference.
    #[must_use]
    pub const fn new(source: u64, sn: u16) -> Self {
        PacketRef { source, sn }
    }
}

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}#{}", self.source, self.sn)
    }
}

/// Why a router discarded a packet instead of delivering or forwarding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The security envelope failed verification.
    AuthFailure,
    /// The security timestamp was outside the freshness window.
    StaleTimestamp,
    /// The remaining hop limit reached zero.
    RhlExhausted,
    /// Greedy forwarding found no neighbour with positive progress and
    /// the no-progress policy gave up (buffer attempts exhausted or
    /// immediate drop).
    NoNextHop,
    /// Link-layer acknowledgements ran out of retries.
    AckExhausted,
}

impl DropReason {
    /// Every drop reason, for exhaustive reports.
    pub const ALL: [DropReason; 5] = [
        DropReason::AuthFailure,
        DropReason::StaleTimestamp,
        DropReason::RhlExhausted,
        DropReason::NoNextHop,
        DropReason::AckExhausted,
    ];

    /// Stable snake_case name used in the JSONL encoding and reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DropReason::AuthFailure => "auth_failure",
            DropReason::StaleTimestamp => "stale_timestamp",
            DropReason::RhlExhausted => "rhl_exhausted",
            DropReason::NoNextHop => "no_next_hop",
            DropReason::AckExhausted => "ack_exhausted",
        }
    }

    /// Index into [`DropReason::ALL`]-sized count arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            DropReason::AuthFailure => 0,
            DropReason::StaleTimestamp => 1,
            DropReason::RhlExhausted => 2,
            DropReason::NoNextHop => 3,
            DropReason::AckExhausted => 4,
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        DropReason::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for DropReason {
    fmt_via_name!();
}

/// What an attacker just did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackKind {
    /// The inter-area attacker captured a sniffed beacon for replay.
    InterceptionCapture,
    /// The inter-area attacker replayed a beacon with its own sender
    /// position, poisoning downstream location tables.
    InterceptionReplay,
    /// The intra-area attacker replayed a first copy (RHL clamped or
    /// power controlled) to cancel CBF contention timers.
    BlockageReplay,
}

impl AttackKind {
    /// Stable snake_case name used in the JSONL encoding and reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            AttackKind::InterceptionCapture => "interception_capture",
            AttackKind::InterceptionReplay => "interception_replay",
            AttackKind::BlockageReplay => "blockage_replay",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        [
            AttackKind::InterceptionCapture,
            AttackKind::InterceptionReplay,
            AttackKind::BlockageReplay,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

impl fmt::Display for AttackKind {
    fmt_via_name!();
}

/// One structured observation about a packet (or the world around it).
///
/// The emitting node and the simulation timestamp are not part of the
/// event; the [`Tracer`] supplies them, and [`TraceRecord`] carries the
/// complete triple.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node created a new packet and handed it to its router.
    Originated {
        /// The new packet.
        packet: PacketRef,
    },
    /// A beacon passed verification and updated the location table.
    BeaconAccepted {
        /// Address bits of the beaconing neighbour.
        from: u64,
    },
    /// A frame left this node's radio.
    FrameTx {
        /// The routed packet inside the frame, if any (beacons carry none).
        packet: Option<PacketRef>,
        /// Link-layer destination address bits for unicast, `None` for
        /// broadcast.
        dst: Option<u64>,
        /// Whether the frame is a beacon.
        beacon: bool,
    },
    /// A frame arrived at this node's radio.
    FrameRx {
        /// The routed packet inside the frame, if any.
        packet: Option<PacketRef>,
        /// Link-layer source address bits.
        from: u64,
        /// Whether the frame is a beacon.
        beacon: bool,
    },
    /// The radio dropped a frame on the air (stochastic frame loss).
    FrameLost {
        /// The routed packet inside the frame, if any.
        packet: Option<PacketRef>,
        /// Link-layer source address bits of the transmitter.
        from: u64,
    },
    /// The packet reached a destination inside the target area.
    Delivered {
        /// The delivered packet.
        packet: PacketRef,
    },
    /// A duplicate copy arrived and was discarded (GF duplicate
    /// suppression or a CBF copy for an already-handled packet).
    DuplicateDiscarded {
        /// The duplicated packet.
        packet: PacketRef,
    },
    /// CBF armed a contention timer for the first copy of a packet.
    CbfArmed {
        /// The contended packet.
        packet: PacketRef,
        /// The drawn contention delay, in microseconds.
        delay_us: u64,
    },
    /// A duplicate arrived during contention and cancelled the timer —
    /// the node will never rebroadcast this packet.
    CbfCancelled {
        /// The suppressed packet.
        packet: PacketRef,
        /// Link-layer source address bits of the duplicate that caused
        /// the cancellation (the paper's blockage attacker shows up
        /// here).
        by: u64,
    },
    /// The contention timer expired and the node rebroadcast the packet.
    CbfFired {
        /// The rebroadcast packet.
        packet: PacketRef,
    },
    /// The RHL-mitigation rejected a duplicate as implausible, so the
    /// contention timer kept running.
    CbfMitigationRejected {
        /// The contended packet.
        packet: PacketRef,
        /// Link-layer source address bits of the rejected duplicate.
        by: u64,
    },
    /// Greedy forwarding chose a unicast next hop.
    GfNextHop {
        /// The forwarded packet.
        packet: PacketRef,
        /// Address bits of the chosen neighbour.
        next_hop: u64,
    },
    /// Greedy forwarding found no progress and fell back to broadcast.
    GfFallback {
        /// The forwarded packet.
        packet: PacketRef,
    },
    /// Greedy forwarding found no progress and buffered the packet for a
    /// later retry.
    GfBuffered {
        /// The buffered packet.
        packet: PacketRef,
        /// 1-based buffering attempt.
        attempt: u32,
    },
    /// A link-layer acknowledgement timed out and the packet was
    /// rescheduled to another next hop.
    GfAckRetry {
        /// The retried packet.
        packet: PacketRef,
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// The router discarded the packet for good.
    Dropped {
        /// The discarded packet.
        packet: PacketRef,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// An attacker acted.
    AttackAction {
        /// What the attacker did.
        kind: AttackKind,
        /// The packet involved, when the action concerns a routed packet.
        packet: Option<PacketRef>,
    },
    /// The traffic simulation placed a hazard on the road.
    HazardOnset {
        /// Road x-coordinate of the hazard, in metres.
        x: f64,
    },
    /// Two vehicles collided.
    Collision {
        /// Road x-coordinate of the collision, in metres.
        x: f64,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the variant, used as the JSONL `ev`
    /// field and as the counter key in reports.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEvent::Originated { .. } => "originated",
            TraceEvent::BeaconAccepted { .. } => "beacon_accepted",
            TraceEvent::FrameTx { .. } => "frame_tx",
            TraceEvent::FrameRx { .. } => "frame_rx",
            TraceEvent::FrameLost { .. } => "frame_lost",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::DuplicateDiscarded { .. } => "duplicate_discarded",
            TraceEvent::CbfArmed { .. } => "cbf_armed",
            TraceEvent::CbfCancelled { .. } => "cbf_cancelled",
            TraceEvent::CbfFired { .. } => "cbf_fired",
            TraceEvent::CbfMitigationRejected { .. } => "cbf_mitigation_rejected",
            TraceEvent::GfNextHop { .. } => "gf_next_hop",
            TraceEvent::GfFallback { .. } => "gf_fallback",
            TraceEvent::GfBuffered { .. } => "gf_buffered",
            TraceEvent::GfAckRetry { .. } => "gf_ack_retry",
            TraceEvent::Dropped { .. } => "dropped",
            TraceEvent::AttackAction { .. } => "attack_action",
            TraceEvent::HazardOnset { .. } => "hazard_onset",
            TraceEvent::Collision { .. } => "collision",
        }
    }

    /// The packet this event concerns, when there is one.
    #[must_use]
    pub const fn packet(&self) -> Option<PacketRef> {
        match self {
            TraceEvent::Originated { packet }
            | TraceEvent::Delivered { packet }
            | TraceEvent::DuplicateDiscarded { packet }
            | TraceEvent::CbfArmed { packet, .. }
            | TraceEvent::CbfCancelled { packet, .. }
            | TraceEvent::CbfFired { packet }
            | TraceEvent::CbfMitigationRejected { packet, .. }
            | TraceEvent::GfNextHop { packet, .. }
            | TraceEvent::GfFallback { packet }
            | TraceEvent::GfBuffered { packet, .. }
            | TraceEvent::GfAckRetry { packet, .. }
            | TraceEvent::Dropped { packet, .. } => Some(*packet),
            TraceEvent::FrameTx { packet, .. }
            | TraceEvent::FrameRx { packet, .. }
            | TraceEvent::FrameLost { packet, .. }
            | TraceEvent::AttackAction { packet, .. } => *packet,
            TraceEvent::BeaconAccepted { .. }
            | TraceEvent::HazardOnset { .. }
            | TraceEvent::Collision { .. } => None,
        }
    }
}

/// A complete trace line: when, who, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Node id of the emitter (the scenario world's node index).
    pub node: u32,
    /// The event itself.
    pub event: TraceEvent,
}

// ---------------------------------------------------------------------
// JSONL encoding
// ---------------------------------------------------------------------

impl TraceRecord {
    /// Encodes this record as a single JSON object (no trailing newline).
    ///
    /// The encoding is flat: `{"t_us":…,"node":…,"ev":"…", <fields>}`,
    /// with packet identity spread into `src`/`sn`. Hand-rolled so the
    /// format is a stable, documented schema in the escape-free dialect
    /// that [`json`] parses back, shared with every other artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"t_us\":");
        s.push_str(&self.at.as_micros().to_string());
        s.push_str(",\"node\":");
        s.push_str(&self.node.to_string());
        s.push_str(",\"ev\":\"");
        s.push_str(self.event.name());
        s.push('"');
        let put_u64 = |s: &mut String, key: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        let put_packet = |s: &mut String, p: &PacketRef| {
            s.push_str(",\"src\":");
            s.push_str(&p.source.to_string());
            s.push_str(",\"sn\":");
            s.push_str(&p.sn.to_string());
        };
        match &self.event {
            TraceEvent::Originated { packet }
            | TraceEvent::Delivered { packet }
            | TraceEvent::DuplicateDiscarded { packet }
            | TraceEvent::CbfFired { packet }
            | TraceEvent::GfFallback { packet } => put_packet(&mut s, packet),
            TraceEvent::BeaconAccepted { from } => put_u64(&mut s, "from", *from),
            TraceEvent::FrameTx { packet, dst, beacon } => {
                if let Some(p) = packet {
                    put_packet(&mut s, p);
                }
                if let Some(d) = dst {
                    put_u64(&mut s, "dst", *d);
                }
                s.push_str(",\"beacon\":");
                s.push_str(if *beacon { "true" } else { "false" });
            }
            TraceEvent::FrameRx { packet, from, beacon } => {
                if let Some(p) = packet {
                    put_packet(&mut s, p);
                }
                put_u64(&mut s, "from", *from);
                s.push_str(",\"beacon\":");
                s.push_str(if *beacon { "true" } else { "false" });
            }
            TraceEvent::FrameLost { packet, from } => {
                if let Some(p) = packet {
                    put_packet(&mut s, p);
                }
                put_u64(&mut s, "from", *from);
            }
            TraceEvent::CbfArmed { packet, delay_us } => {
                put_packet(&mut s, packet);
                put_u64(&mut s, "delay_us", *delay_us);
            }
            TraceEvent::CbfCancelled { packet, by }
            | TraceEvent::CbfMitigationRejected { packet, by } => {
                put_packet(&mut s, packet);
                put_u64(&mut s, "by", *by);
            }
            TraceEvent::GfNextHop { packet, next_hop } => {
                put_packet(&mut s, packet);
                put_u64(&mut s, "next_hop", *next_hop);
            }
            TraceEvent::GfBuffered { packet, attempt }
            | TraceEvent::GfAckRetry { packet, attempt } => {
                put_packet(&mut s, packet);
                put_u64(&mut s, "attempt", u64::from(*attempt));
            }
            TraceEvent::Dropped { packet, reason } => {
                put_packet(&mut s, packet);
                s.push_str(",\"reason\":\"");
                s.push_str(reason.name());
                s.push('"');
            }
            TraceEvent::AttackAction { kind, packet } => {
                s.push_str(",\"kind\":\"");
                s.push_str(kind.name());
                s.push('"');
                if let Some(p) = packet {
                    put_packet(&mut s, p);
                }
            }
            TraceEvent::HazardOnset { x } | TraceEvent::Collision { x } => {
                s.push_str(",\"x\":");
                s.push_str(&json::float(*x));
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`TraceRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or semantic problem.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let r = json::parse(line)?;
        let packet = || -> Result<PacketRef, String> {
            Ok(PacketRef::new(r.get("src")?.as_u64("src")?, r.get("sn")?.as_int("sn")?))
        };
        let opt_packet = || r.field("src").map(|_| packet()).transpose();

        let at = SimTime::from_micros(r.get("t_us")?.as_u64("t_us")?);
        let node = r.get("node")?.as_int("node")?;
        let event = match r.get("ev")?.as_str("ev")? {
            "originated" => TraceEvent::Originated { packet: packet()? },
            "beacon_accepted" => {
                TraceEvent::BeaconAccepted { from: r.get("from")?.as_u64("from")? }
            }
            "frame_tx" => TraceEvent::FrameTx {
                packet: opt_packet()?,
                dst: r.field("dst").map(|d| d.as_u64("dst")).transpose()?,
                beacon: r.get("beacon")?.as_bool("beacon")?,
            },
            "frame_rx" => TraceEvent::FrameRx {
                packet: opt_packet()?,
                from: r.get("from")?.as_u64("from")?,
                beacon: r.get("beacon")?.as_bool("beacon")?,
            },
            "frame_lost" => TraceEvent::FrameLost {
                packet: opt_packet()?,
                from: r.get("from")?.as_u64("from")?,
            },
            "delivered" => TraceEvent::Delivered { packet: packet()? },
            "duplicate_discarded" => TraceEvent::DuplicateDiscarded { packet: packet()? },
            "cbf_armed" => TraceEvent::CbfArmed {
                packet: packet()?,
                delay_us: r.get("delay_us")?.as_u64("delay_us")?,
            },
            "cbf_cancelled" => {
                TraceEvent::CbfCancelled { packet: packet()?, by: r.get("by")?.as_u64("by")? }
            }
            "cbf_fired" => TraceEvent::CbfFired { packet: packet()? },
            "cbf_mitigation_rejected" => TraceEvent::CbfMitigationRejected {
                packet: packet()?,
                by: r.get("by")?.as_u64("by")?,
            },
            "gf_next_hop" => TraceEvent::GfNextHop {
                packet: packet()?,
                next_hop: r.get("next_hop")?.as_u64("next_hop")?,
            },
            "gf_fallback" => TraceEvent::GfFallback { packet: packet()? },
            "gf_buffered" => TraceEvent::GfBuffered {
                packet: packet()?,
                attempt: r.get("attempt")?.as_int("attempt")?,
            },
            "gf_ack_retry" => TraceEvent::GfAckRetry {
                packet: packet()?,
                attempt: r.get("attempt")?.as_int("attempt")?,
            },
            "dropped" => {
                let reason = r.get("reason")?.as_str("reason")?;
                TraceEvent::Dropped {
                    packet: packet()?,
                    reason: DropReason::from_name(reason)
                        .ok_or_else(|| format!("unknown drop reason {reason:?}"))?,
                }
            }
            "attack_action" => {
                let kind = r.get("kind")?.as_str("kind")?;
                TraceEvent::AttackAction {
                    kind: AttackKind::from_name(kind)
                        .ok_or_else(|| format!("unknown attack kind {kind:?}"))?,
                    packet: opt_packet()?,
                }
            }
            "hazard_onset" => TraceEvent::HazardOnset { x: r.get("x")?.as_f64("x")? },
            "collision" => TraceEvent::Collision { x: r.get("x")?.as_f64("x")? },
            other => return Err(format!("unknown event {other:?}")),
        };
        Ok(TraceRecord { at, node, event })
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receives trace records. Implementations must be cheap: the router
/// calls into the sink from its hot path when tracing is enabled.
pub trait TraceSink {
    /// Records one event emitted by `node` at time `at`.
    fn record(&mut self, at: SimTime, node: u32, event: &TraceEvent);
}

/// Discards everything. With the default [`Tracer::disabled`] handle the
/// sink is not even consulted; this type exists for explicitness when an
/// API requires a sink object.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _at: SimTime, _node: u32, _event: &TraceEvent) {}
}

/// Collects records in memory; the forensic reconstruction and the tests
/// read them back.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Takes the records collected so far, leaving the sink empty —
    /// lets a driver consume the stream incrementally (e.g. once per
    /// simulated second) while the run continues to feed the sink.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, at: SimTime, node: u32, event: &TraceEvent) {
        self.records.push(TraceRecord { at, node, event: event.clone() });
    }
}

/// Typed counters for every event variant (drops split by reason).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Packets originated.
    pub originated: u64,
    /// Beacons accepted into the location table.
    pub beacons_accepted: u64,
    /// Frames transmitted.
    pub frames_tx: u64,
    /// Frames received.
    pub frames_rx: u64,
    /// Frames lost on the air.
    pub frames_lost: u64,
    /// Packets delivered in their destination area.
    pub delivered: u64,
    /// Duplicate copies discarded.
    pub duplicates_discarded: u64,
    /// CBF contention timers armed.
    pub cbf_armed: u64,
    /// CBF contention timers cancelled by a duplicate.
    pub cbf_cancelled: u64,
    /// CBF contention timers that fired (rebroadcasts).
    pub cbf_fired: u64,
    /// Duplicates rejected by the RHL-mitigation.
    pub cbf_mitigation_rejected: u64,
    /// Greedy unicast next-hop selections.
    pub gf_next_hop: u64,
    /// Greedy broadcast fallbacks.
    pub gf_fallback: u64,
    /// Packets buffered for lack of progress.
    pub gf_buffered: u64,
    /// Link-ack retries.
    pub gf_ack_retries: u64,
    /// Final drops, indexed by [`DropReason::index`].
    pub dropped: [u64; DropReason::ALL.len()],
    /// Attacker actions observed.
    pub attack_actions: u64,
    /// Hazards placed on the road.
    pub hazards: u64,
    /// Vehicle collisions.
    pub collisions: u64,
}

impl EventCounters {
    /// Updates the counters for one event.
    pub fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Originated { .. } => self.originated += 1,
            TraceEvent::BeaconAccepted { .. } => self.beacons_accepted += 1,
            TraceEvent::FrameTx { .. } => self.frames_tx += 1,
            TraceEvent::FrameRx { .. } => self.frames_rx += 1,
            TraceEvent::FrameLost { .. } => self.frames_lost += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::DuplicateDiscarded { .. } => self.duplicates_discarded += 1,
            TraceEvent::CbfArmed { .. } => self.cbf_armed += 1,
            TraceEvent::CbfCancelled { .. } => self.cbf_cancelled += 1,
            TraceEvent::CbfFired { .. } => self.cbf_fired += 1,
            TraceEvent::CbfMitigationRejected { .. } => self.cbf_mitigation_rejected += 1,
            TraceEvent::GfNextHop { .. } => self.gf_next_hop += 1,
            TraceEvent::GfFallback { .. } => self.gf_fallback += 1,
            TraceEvent::GfBuffered { .. } => self.gf_buffered += 1,
            TraceEvent::GfAckRetry { .. } => self.gf_ack_retries += 1,
            TraceEvent::Dropped { reason, .. } => self.dropped[reason.index()] += 1,
            TraceEvent::AttackAction { .. } => self.attack_actions += 1,
            TraceEvent::HazardOnset { .. } => self.hazards += 1,
            TraceEvent::Collision { .. } => self.collisions += 1,
        }
    }

    /// Drop count for one reason.
    #[must_use]
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped[reason.index()]
    }

    /// Total drops across all reasons.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// `(label, count)` pairs for every non-zero counter, largest first —
    /// the shape the end-of-run summary prints.
    #[must_use]
    pub fn top_counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = [
            ("originated", self.originated),
            ("beacons_accepted", self.beacons_accepted),
            ("frames_tx", self.frames_tx),
            ("frames_rx", self.frames_rx),
            ("frames_lost", self.frames_lost),
            ("delivered", self.delivered),
            ("duplicates_discarded", self.duplicates_discarded),
            ("cbf_armed", self.cbf_armed),
            ("cbf_cancelled", self.cbf_cancelled),
            ("cbf_fired", self.cbf_fired),
            ("cbf_mitigation_rejected", self.cbf_mitigation_rejected),
            ("gf_next_hop", self.gf_next_hop),
            ("gf_fallback", self.gf_fallback),
            ("gf_buffered", self.gf_buffered),
            ("gf_ack_retries", self.gf_ack_retries),
            ("attack_actions", self.attack_actions),
            ("hazards", self.hazards),
            ("collisions", self.collisions),
        ]
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for reason in DropReason::ALL {
            let v = self.dropped_for(reason);
            if v > 0 {
                out.push((format!("dropped_{}", reason.name()), v));
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Counts events, in total and per emitting node.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    totals: EventCounters,
    per_node: BTreeMap<u32, EventCounters>,
}

impl CountingSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Counters aggregated over all nodes.
    #[must_use]
    pub fn totals(&self) -> &EventCounters {
        &self.totals
    }

    /// Counters for one node, if it ever emitted.
    #[must_use]
    pub fn node(&self, node: u32) -> Option<&EventCounters> {
        self.per_node.get(&node)
    }

    /// Iterates over `(node, counters)` pairs in node order.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, &EventCounters)> {
        self.per_node.iter().map(|(&n, c)| (n, c))
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _at: SimTime, node: u32, event: &TraceEvent) {
        self.totals.record(event);
        self.per_node.entry(node).or_default().record(event);
    }
}

/// Streams records as JSON Lines to any [`Write`] target.
///
/// A trace is advisory output: a failed write never panics or aborts
/// the run. The sink keeps the first I/O error, writes nothing after
/// it, and [`JsonlSink::into_inner`] returns it.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Callers owning file handles should pass a
    /// `BufWriter`; the sink writes one line per event.
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0, error: None }
    }

    /// Number of lines written in full so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first failed write, or else the flush failure.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => self.out.flush().map(|()| self.out),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, node: u32, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let record = TraceRecord { at, node, event: event.clone() };
        match writeln!(self.out, "{}", record.to_json()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

// ---------------------------------------------------------------------
// The emission handle
// ---------------------------------------------------------------------

/// Shared handle to a sink, cloned per node.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Wraps any sink for sharing between emitters.
pub fn shared<S: TraceSink + 'static>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

/// A node's handle for emitting trace events.
///
/// The disabled handle (the default) holds no sink: emitting is one
/// `Option` branch and the closure constructing the event is never
/// called, so instrumented hot paths pay no observable cost.
#[derive(Clone, Default)]
pub struct Tracer {
    node: u32,
    sink: Option<SharedSink>,
}

impl Tracer {
    /// A handle that drops everything (the default for every router).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A root handle attached to `sink`; derive per-node handles with
    /// [`Tracer::for_node`].
    #[must_use]
    pub fn attached(sink: SharedSink) -> Self {
        Tracer { node: u32::MAX, sink: Some(sink) }
    }

    /// A handle emitting under `node`'s id, sharing this handle's sink.
    #[must_use]
    pub fn for_node(&self, node: u32) -> Self {
        Tracer { node, sink: self.sink.clone() }
    }

    /// Whether a sink is attached. Callers can skip expensive event
    /// construction when this is `false`; [`Tracer::emit`] already does.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The node id this handle stamps on its events.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Emits one event, constructing it lazily: with no sink attached the
    /// closure is never called.
    #[inline]
    pub fn emit(&self, at: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(at, self.node, &event());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("node", &self.node)
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every event variant, exercising every optional
    /// field shape.
    fn sample_events() -> Vec<TraceEvent> {
        let p = PacketRef::new(0x0000_8000_0000_2A01, 17);
        vec![
            TraceEvent::Originated { packet: p },
            TraceEvent::BeaconAccepted { from: 42 },
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
            TraceEvent::GfAckRetry { packet: p, attempt: 1 },
            TraceEvent::AttackAction { kind: AttackKind::BlockageReplay, packet: Some(p) },
            TraceEvent::AttackAction { kind: AttackKind::InterceptionCapture, packet: None },
            TraceEvent::HazardOnset { x: 2_611.25 },
            TraceEvent::Collision { x: 930.0625 },
        ]
        .into_iter()
        .chain(DropReason::ALL.map(|reason| TraceEvent::Dropped { packet: p, reason }))
        .collect()
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let record = TraceRecord {
                at: SimTime::from_micros(1_234_567 + i as u64),
                node: i as u32,
                event,
            };
            let line = record.to_json();
            let back = TraceRecord::from_json(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, record, "line: {line}");
        }
    }

    #[test]
    fn json_lines_are_single_objects() {
        for event in sample_events() {
            let line = TraceRecord { at: SimTime::ZERO, node: 0, event }.to_json();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "{line}");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "[1,2]",
            r#"{"t_us":1}"#,
            r#"{"t_us":1,"node":0,"ev":"no_such_event"}"#,
            r#"{"t_us":1,"node":0,"ev":"dropped","src":1,"sn":2,"reason":"bogus"}"#,
            r#"{"t_us":-4,"node":0,"ev":"originated","src":1,"sn":2}"#,
            r#"{"t_us":1,"node":4294967300,"ev":"originated","src":1,"sn":2}"#,
            r#"{"t_us":1,"node":0,"ev":"originated","src":1,"sn":70000}"#,
        ] {
            assert!(TraceRecord::from_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn counting_sink_counts_per_node_and_total() {
        let mut sink = CountingSink::new();
        let p = PacketRef::new(1, 1);
        sink.record(SimTime::ZERO, 3, &TraceEvent::Originated { packet: p });
        sink.record(
            SimTime::ZERO,
            3,
            &TraceEvent::Dropped { packet: p, reason: DropReason::RhlExhausted },
        );
        sink.record(SimTime::ZERO, 5, &TraceEvent::Delivered { packet: p });
        assert_eq!(sink.totals().originated, 1);
        assert_eq!(sink.totals().dropped_for(DropReason::RhlExhausted), 1);
        assert_eq!(sink.totals().total_dropped(), 1);
        assert_eq!(sink.node(3).unwrap().originated, 1);
        assert_eq!(sink.node(5).unwrap().delivered, 1);
        assert!(sink.node(9).is_none());
        assert_eq!(sink.nodes().count(), 2);
        let top = sink.totals().top_counters();
        assert!(top.contains(&("dropped_rhl_exhausted".to_string(), 1)));
    }

    #[test]
    fn event_counters_cover_every_variant() {
        let mut c = EventCounters::default();
        let events = sample_events();
        for e in &events {
            c.record(e);
        }
        // Every event must land in exactly one counter.
        let sum: u64 = c.top_counters().iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, events.len() as u64);
        for reason in DropReason::ALL {
            assert_eq!(c.dropped_for(reason), 1, "{reason}");
        }
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(SimTime::ZERO, || panic!("event constructed despite disabled tracer"));
    }

    #[test]
    fn tracer_stamps_node_and_time() {
        let sink = shared(VecSink::new());
        let root = Tracer::attached(sink.clone());
        let t3 = root.for_node(3);
        let t9 = root.for_node(9);
        assert!(t3.is_enabled());
        t3.emit(SimTime::from_millis(5), || TraceEvent::BeaconAccepted { from: 1 });
        t9.emit(SimTime::from_millis(6), || TraceEvent::BeaconAccepted { from: 2 });
        let records = sink.borrow().records().to_vec();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].node, 3);
        assert_eq!(records[0].at, SimTime::from_millis(5));
        assert_eq!(records[1].node, 9);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        let p = PacketRef::new(6, 2);
        sink.record(SimTime::from_secs(1), 4, &TraceEvent::CbfFired { packet: p });
        sink.record(SimTime::from_secs(2), 4, &TraceEvent::CbfCancelled { packet: p, by: 11 });
        assert_eq!(sink.lines(), 2);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let records: Vec<TraceRecord> =
            text.lines().map(|l| TraceRecord::from_json(l).unwrap()).collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].event, TraceEvent::CbfCancelled { packet: p, by: 11 });
    }

    /// Accepts `budget` bytes, then fails every write.
    #[derive(Debug)]
    struct FullDisk {
        budget: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_keeps_the_first_write_error() {
        let event = TraceEvent::BeaconAccepted { from: 1 };
        let line = TraceRecord { at: SimTime::ZERO, node: 0, event: event.clone() }.to_json();
        let mut sink = JsonlSink::new(FullDisk { budget: line.len() + 1 + 3 });
        for _ in 0..3 {
            sink.record(SimTime::ZERO, 0, &event);
        }
        assert_eq!(sink.lines(), 1, "only the first line was written in full");
        let err = sink.into_inner().expect_err("a failed write must surface");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn packet_accessor_matches_variants() {
        let p = PacketRef::new(5, 9);
        assert_eq!(TraceEvent::Delivered { packet: p }.packet(), Some(p));
        assert_eq!(TraceEvent::BeaconAccepted { from: 1 }.packet(), None);
        assert_eq!(
            TraceEvent::FrameTx { packet: Some(p), dst: None, beacon: false }.packet(),
            Some(p)
        );
        assert_eq!(TraceEvent::HazardOnset { x: 0.0 }.packet(), None);
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(DropReason::NoNextHop.to_string(), "no_next_hop");
        assert_eq!(AttackKind::InterceptionReplay.to_string(), "interception_replay");
        assert_eq!(PacketRef::new(255, 3).to_string(), "0xff#3");
    }
}
