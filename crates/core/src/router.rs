//! The per-node GeoNetworking router.
//!
//! [`GnRouter`] combines the location table, greedy forwarding,
//! contention-based forwarding and the security envelope into one pure
//! state machine: frames go in, [`RouterAction`]s come out. It owns no
//! clock and no radio — the scenario layer feeds it events and executes
//! its actions — which keeps the whole protocol stack deterministic and
//! unit-testable without a simulator.

use crate::cbf::{CbfBuffer, CbfVerdict, PacketKey};
use crate::config::GnConfig;
use crate::frame::{Frame, OnAir};
use crate::gf::{greedy_select_excluding, GfDecision};
use crate::loct::LocationTable;
use crate::pv::LongPositionVector;
use crate::security::{Credentials, SecuredPacket, Verifier};
use crate::types::{GnAddress, SequenceNumber};
use crate::wire::GnPacket;
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_sim::{
    DropReason, PacketRef, SimDuration, SimRng, SimTime, StateHasher, Telemetry, TraceEvent, Tracer,
};
use std::collections::{BTreeMap, BTreeSet};

/// An action the router asks its host to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterAction {
    /// Put this frame on the air.
    Transmit(Frame),
    /// Hand this payload to the application: the node *received* the
    /// GeoBroadcast (the paper's reception metric counts these).
    Deliver {
        /// Which packet was delivered.
        key: PacketKey,
        /// The application payload.
        payload: Vec<u8>,
    },
    /// Schedule a CBF contention timer: after `delay`, call
    /// [`GnRouter::handle_cbf_timer`] with this key and generation.
    CbfTimer {
        /// The contending packet.
        key: PacketKey,
        /// Generation token (stale timers are ignored).
        generation: u64,
        /// Contention delay.
        delay: SimDuration,
    },
    /// Schedule a greedy-forwarding retry (the buffer-and-recheck
    /// no-progress policy): after `delay`, call
    /// [`GnRouter::handle_gf_retry`].
    GfRetry {
        /// The buffered packet.
        key: PacketKey,
        /// Recheck delay.
        delay: SimDuration,
    },
}

/// Counters exposed for evaluation and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Beacons accepted (verified and fresh).
    pub beacons_accepted: u64,
    /// Frames dropped because signature or certificate verification
    /// failed.
    pub auth_failures: u64,
    /// Frames dropped because the position vector was stale.
    pub freshness_failures: u64,
    /// GeoBroadcast payloads delivered to the application.
    pub delivered: u64,
    /// Packets forwarded by greedy unicast.
    pub gf_unicast: u64,
    /// Packets broadcast because GF found no progress.
    pub gf_fallback: u64,
    /// Packets re-broadcast after winning CBF contention.
    pub cbf_rebroadcast: u64,
    /// Buffered packets discarded on duplicate reception.
    pub cbf_discards: u64,
    /// Duplicates refused by the RHL-drop mitigation.
    pub cbf_mitigation_rejects: u64,
    /// Packets dropped because the hop limit was exhausted.
    pub rhl_exhausted: u64,
    /// Packets buffered for a later greedy recheck (no-progress policy).
    pub gf_buffered: u64,
    /// Packets dropped after the buffer-retry budget ran out, or by the
    /// `Drop` no-progress policy.
    pub gf_dropped: u64,
    /// Greedy unicasts re-sent to an alternative neighbour after a
    /// missing link-layer acknowledgement (extension).
    pub gf_ack_retries: u64,
    /// Packets whose acknowledgement retries were exhausted (extension).
    pub gf_ack_exhausted: u64,
}

impl RouterStats {
    /// Folds one trace event into the counters.
    ///
    /// The router emits a [`TraceEvent`] at every decision point and
    /// derives its statistics from that stream, so the counters cannot
    /// drift from the trace: `stats()` is by construction the aggregate
    /// of the events a [`crate::router::GnRouter`]'s tracer saw.
    pub fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::BeaconAccepted { .. } => self.beacons_accepted += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::GfNextHop { .. } => self.gf_unicast += 1,
            TraceEvent::GfFallback { .. } => self.gf_fallback += 1,
            TraceEvent::CbfFired { .. } => self.cbf_rebroadcast += 1,
            TraceEvent::CbfCancelled { .. } => self.cbf_discards += 1,
            TraceEvent::CbfMitigationRejected { .. } => self.cbf_mitigation_rejects += 1,
            TraceEvent::GfBuffered { .. } => self.gf_buffered += 1,
            TraceEvent::GfAckRetry { .. } => self.gf_ack_retries += 1,
            TraceEvent::Dropped { reason, .. } => self.count_drop(*reason),
            // Lifecycle events with no dedicated router counter
            // (origination, duplicate suppression, CBF arming) and events
            // owned by other layers (frame TX/RX/loss, attacker actions,
            // traffic milestones).
            _ => {}
        }
    }

    /// Counts [`admit`]'s verdict on a received beacon: what recording
    /// [`GnRouter::beacon_outcome`] of it counts, without building the
    /// event.
    #[inline]
    pub fn count_admission(&mut self, verdict: Result<(), DropReason>) {
        match verdict {
            Ok(()) => self.beacons_accepted += 1,
            Err(reason) => self.count_drop(reason),
        }
    }

    #[inline]
    fn count_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::AuthFailure => self.auth_failures += 1,
            DropReason::StaleTimestamp => self.freshness_failures += 1,
            DropReason::RhlExhausted => self.rhl_exhausted += 1,
            DropReason::NoNextHop => self.gf_dropped += 1,
            DropReason::AckExhausted => self.gf_ack_exhausted += 1,
        }
    }

    /// Adds another router's counters into these, field by field — the
    /// run-level aggregate over a fleet.
    pub fn merge(&mut self, other: &RouterStats) {
        // Exhaustive destructure: a new counter fails to compile here
        // until it is summed too.
        let RouterStats {
            beacons_accepted,
            auth_failures,
            freshness_failures,
            delivered,
            gf_unicast,
            gf_fallback,
            cbf_rebroadcast,
            cbf_discards,
            cbf_mitigation_rejects,
            rhl_exhausted,
            gf_buffered,
            gf_dropped,
            gf_ack_retries,
            gf_ack_exhausted,
        } = *other;
        self.beacons_accepted += beacons_accepted;
        self.auth_failures += auth_failures;
        self.freshness_failures += freshness_failures;
        self.delivered += delivered;
        self.gf_unicast += gf_unicast;
        self.gf_fallback += gf_fallback;
        self.cbf_rebroadcast += cbf_rebroadcast;
        self.cbf_discards += cbf_discards;
        self.cbf_mitigation_rejects += cbf_mitigation_rejects;
        self.rhl_exhausted += rhl_exhausted;
        self.gf_buffered += gf_buffered;
        self.gf_dropped += gf_dropped;
        self.gf_ack_retries += gf_ack_retries;
        self.gf_ack_exhausted += gf_ack_exhausted;
    }
}

/// The screen every received frame passes after the address filter.
/// Security: `authentic` is the verdict on the certificate and the
/// signature over the protected bytes. Freshness: the source PV's
/// timestamp must be at most `config.max_pv_age` old at `now`, counted in
/// whole wire milliseconds. A replayed beacon relayed within the
/// attacker's ~1 ms processing delay passes; a recording replayed much
/// later does not.
///
/// It reads no router state, so a host can decide a beacon for every
/// receiver that shares `config` at once.
///
/// # Errors
///
/// [`DropReason::AuthFailure`] if `authentic` is false, else
/// [`DropReason::StaleTimestamp`] if the PV is too old.
pub fn admit(
    config: &GnConfig,
    authentic: bool,
    pv: &LongPositionVector,
    now: SimTime,
) -> Result<(), DropReason> {
    if !authentic {
        return Err(DropReason::AuthFailure);
    }
    let age_ms = (crate::types::Timestamp::from_sim(now).0).wrapping_sub(pv.timestamp.0);
    if u64::from(age_ms) > config.max_pv_age.as_millis() {
        return Err(DropReason::StaleTimestamp);
    }
    Ok(())
}

/// The [`PacketRef`] identifying `key` in trace events.
fn packet_ref(key: PacketKey) -> PacketRef {
    PacketRef::new(key.source.to_u64(), key.sn.0)
}

/// The [`PacketRef`] of a secured packet, falling back to the source
/// position vector's address with sequence number zero for the
/// (unsequenced) beacon and single-hop variants.
fn packet_ref_of(msg: &SecuredPacket) -> PacketRef {
    match PacketKey::of(msg) {
        Some(key) => packet_ref(key),
        None => PacketRef::new(msg.packet.so_pv().addr.to_u64(), 0),
    }
}

/// A greedy unicast awaiting its link-layer acknowledgement (only used
/// with the [`crate::config::LinkAckConfig`] extension).
#[derive(Debug, Clone)]
struct PendingGf {
    msg: SecuredPacket,
    tried: Vec<GnAddress>,
    retries_left: u8,
}

/// A packet parked in the forwarding buffer awaiting a LocT recheck (the
/// [`crate::config::NoProgressPolicy::BufferRetry`] policy).
#[derive(Debug, Clone)]
struct BufferedGf {
    msg: SecuredPacket,
    exclude: Vec<GnAddress>,
    attempts_left: u8,
}

/// The per-node GeoNetworking protocol instance.
pub struct GnRouter {
    credentials: Credentials,
    verifier: Verifier,
    config: GnConfig,
    reference: GeoReference,
    loct: LocationTable,
    cbf: CbfBuffer,
    /// Packets this node has forwarded (or declined to forward) in its GF
    /// role, to suppress forwarding loops via the broadcast fallback.
    gf_seen: BTreeSet<PacketKey>,
    gf_pending: BTreeMap<PacketKey, PendingGf>,
    gf_buffer: BTreeMap<PacketKey, BufferedGf>,
    tsb_seen: BTreeSet<PacketKey>,
    next_sn: SequenceNumber,
    stats: RouterStats,
    tracer: Tracer,
    telemetry: Telemetry,
}

impl GnRouter {
    /// Creates a router for the node holding `credentials`.
    #[must_use]
    pub fn new(
        credentials: Credentials,
        verifier: Verifier,
        config: GnConfig,
        reference: GeoReference,
    ) -> Self {
        GnRouter {
            loct: LocationTable::new(config.loct_ttl, reference),
            credentials,
            verifier,
            config,
            reference,
            cbf: CbfBuffer::new(),
            gf_seen: BTreeSet::new(),
            gf_pending: BTreeMap::new(),
            gf_buffer: BTreeMap::new(),
            tsb_seen: BTreeSet::new(),
            next_sn: SequenceNumber(0),
            stats: RouterStats::default(),
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a tracer; every routing decision is emitted through it
    /// from now on. The default is [`Tracer::disabled`], which skips
    /// event delivery entirely (the stats counters still update).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry handle; [`GnRouter::handle_frame`] wall-clock
    /// time is recorded through it. The default is
    /// [`Telemetry::disabled`], which costs one branch per frame.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of packet keys held for duplicate suppression (greedy and
    /// topologically-scoped forwarding history plus the CBF
    /// handled-packet list) — a state-depth gauge for telemetry.
    #[must_use]
    pub fn duplicate_cache_size(&self) -> usize {
        self.gf_seen.len() + self.tsb_seen.len() + self.cbf.handled_count()
    }

    /// Number of packets currently buffered for CBF contention — a
    /// state-depth gauge for telemetry.
    #[must_use]
    pub fn cbf_buffered_count(&self) -> usize {
        self.cbf.buffered_count()
    }

    /// Folds the router's canonical forwarding state — sequence counter,
    /// location table, CBF buffers, duplicate caches and the greedy
    /// forwarding pending/retry books — into an audit digest. The location
    /// table digests its hashed entries in address order and every other
    /// container is B-tree-ordered, so the digest is a pure function of the
    /// router's logical state.
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_u64(self.addr().to_u64());
        h.write_u64(u64::from(self.next_sn.0));
        self.loct.digest_into(h);
        self.cbf.digest_into(h);
        let write_key = |h: &mut StateHasher, key: &PacketKey| {
            h.write_u64(key.source.to_u64());
            h.write_u64(u64::from(key.sn.0));
        };
        h.write_u64(self.gf_seen.len() as u64);
        for key in &self.gf_seen {
            write_key(h, key);
        }
        h.write_u64(self.gf_pending.len() as u64);
        for (key, p) in &self.gf_pending {
            write_key(h, key);
            h.write_u8(p.retries_left);
            h.write_u64(p.tried.len() as u64);
            for a in &p.tried {
                h.write_u64(a.to_u64());
            }
        }
        h.write_u64(self.gf_buffer.len() as u64);
        for (key, b) in &self.gf_buffer {
            write_key(h, key);
            h.write_u8(b.attempts_left);
            h.write_u64(b.exclude.len() as u64);
            for a in &b.exclude {
                h.write_u64(a.to_u64());
            }
        }
        h.write_u64(self.tsb_seen.len() as u64);
        for key in &self.tsb_seen {
            write_key(h, key);
        }
    }

    /// Records one routing decision: folds the event into the stats
    /// counters and hands it to the attached tracer (if any).
    fn note(&mut self, now: SimTime, event: TraceEvent) {
        self.stats.record(&event);
        self.tracer.emit(now, || event);
    }

    /// This node's GeoNetworking address.
    #[must_use]
    pub fn addr(&self) -> GnAddress {
        self.credentials.certificate().subject
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> &GnConfig {
        &self.config
    }

    /// The location table (read access for evaluation).
    #[must_use]
    pub fn loct(&self) -> &LocationTable {
        &self.loct
    }

    /// Counters for evaluation.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// The greedy next hop this router would pick *right now* for a
    /// packet heading to `dest_center` — a read-only probe of the
    /// location-table gradient (no state mutated, nothing traced) that
    /// honours the configured plausibility mitigation. Topology
    /// observers use it to classify each node's gradient as
    /// healthy/stuck/poisoned against the physical radio graph.
    #[must_use]
    pub fn gradient_query(
        &self,
        position: Position,
        dest_center: Position,
        now: SimTime,
    ) -> GfDecision {
        greedy_select_excluding(
            &self.loct,
            self.addr(),
            position,
            dest_center,
            &[],
            self.config.mitigations.gf_plausibility_threshold,
            now,
        )
    }

    /// Builds this node's signed beacon frame.
    #[must_use]
    pub fn make_beacon(
        &self,
        now: SimTime,
        position: Position,
        speed: f64,
        heading: Heading,
    ) -> Frame {
        let pv = LongPositionVector::from_sim(
            self.addr(),
            now,
            position,
            speed,
            heading,
            &self.reference,
        );
        let msg = self.credentials.sign(GnPacket::beacon(pv));
        Frame::broadcast(self.addr(), position, msg)
    }

    /// The delay until this node's next beacon: the standard's 3 s period
    /// plus a uniform jitter within 750 ms.
    #[must_use]
    pub fn next_beacon_delay(&self, rng: &mut SimRng) -> SimDuration {
        let jitter = rng.uniform(0.0, self.config.beacon_jitter.as_secs_f64().max(1e-9));
        self.config.beacon_interval + SimDuration::from_secs_f64(jitter)
    }

    /// Originates a GeoBroadcast packet into `area`.
    ///
    /// Returns the packet's key (for tracking reception) and the actions
    /// to execute. If the source is inside the area the packet starts
    /// flooding by CBF; otherwise greedy forwarding carries it towards the
    /// area.
    pub fn originate(
        &mut self,
        area: &Area,
        payload: Vec<u8>,
        now: SimTime,
        position: Position,
        speed: f64,
        heading: Heading,
    ) -> (PacketKey, Vec<RouterAction>) {
        let sn = self.next_sn;
        self.next_sn = self.next_sn.next();
        let pv = LongPositionVector::from_sim(
            self.addr(),
            now,
            position,
            speed,
            heading,
            &self.reference,
        );
        let packet = GnPacket::geobroadcast(
            sn,
            pv,
            area,
            &self.reference,
            payload,
            self.config.default_hop_limit,
        );
        let msg = self.credentials.sign(packet);
        let key = PacketKey { source: self.addr(), sn };
        self.note(now, TraceEvent::Originated { packet: packet_ref(key) });
        // The source never re-forwards its own packet.
        self.cbf.mark_handled(key, now);
        self.gf_seen.insert(key);

        let actions = if area.contains(position) {
            // Intra-area: start the flood.
            vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, msg))]
        } else {
            // Inter-area: greedy-forward towards the area.
            self.forward_greedy(msg, position, Vec::new(), now)
        };
        (key, actions)
    }

    /// Originates a topologically-scoped broadcast: a hop-limited flood
    /// to every node reachable within `hops`, regardless of position.
    pub fn originate_tsb(
        &mut self,
        payload: Vec<u8>,
        hops: u8,
        now: SimTime,
        position: Position,
        speed: f64,
        heading: Heading,
    ) -> (PacketKey, Vec<RouterAction>) {
        let sn = self.next_sn;
        self.next_sn = self.next_sn.next();
        let pv = LongPositionVector::from_sim(
            self.addr(),
            now,
            position,
            speed,
            heading,
            &self.reference,
        );
        let msg = self.credentials.sign(GnPacket::topo_broadcast(sn, pv, payload, hops));
        let key = PacketKey { source: self.addr(), sn };
        self.note(now, TraceEvent::Originated { packet: packet_ref(key) });
        self.tsb_seen.insert(key);
        (key, vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, msg))])
    }

    /// Originates a single-hop broadcast (CAM-style message): delivered to
    /// direct neighbours only, never forwarded.
    pub fn originate_shb(
        &mut self,
        payload: Vec<u8>,
        now: SimTime,
        position: Position,
        speed: f64,
        heading: Heading,
    ) -> Vec<RouterAction> {
        let pv = LongPositionVector::from_sim(
            self.addr(),
            now,
            position,
            speed,
            heading,
            &self.reference,
        );
        let msg = self.credentials.sign(GnPacket::single_hop_broadcast(pv, payload));
        vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, msg))]
    }

    /// Processes a frame received from the radio.
    ///
    /// `position` is the node's own position at reception time.
    pub fn handle_frame(
        &mut self,
        frame: &Frame,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        self.accept(frame, |verifier| verifier.verify(&frame.msg), position, now)
    }

    /// Processes a transmission shared by several receivers. Behaves
    /// exactly like [`GnRouter::handle_frame`] on `on_air.frame()`, but
    /// reuses the transmission's signature verdict when it was reached
    /// under this router's trust domain (see [`OnAir::authentic_under`]).
    pub fn receive(
        &mut self,
        on_air: &OnAir,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        self.accept(on_air.frame(), |verifier| on_air.authentic_under(verifier), position, now)
    }

    /// The reception path behind [`GnRouter::handle_frame`] and
    /// [`GnRouter::receive`]; `authentic` decides the signature check
    /// under this router's verifier.
    fn accept(
        &mut self,
        frame: &Frame,
        authentic: impl FnOnce(&Verifier) -> bool,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let _span = self.telemetry.time("router_handle_frame_ns");
        // Link-layer address filter: unicasts for someone else are ignored.
        if !frame.addressed_to(self.addr()) {
            return Vec::new();
        }
        let pv = *frame.msg.packet.so_pv();
        if let Err(reason) = admit(&self.config, authentic(&self.verifier), &pv, now) {
            self.note(now, TraceEvent::Dropped { packet: packet_ref_of(&frame.msg), reason });
            return Vec::new();
        }
        match &frame.msg.packet.extended {
            crate::wire::Extended::Shb { .. } => {
                // Single-hop broadcast: a beacon with a payload. The
                // source is by construction a direct neighbour, so the
                // LocT update is always plausible.
                self.loct.update(pv, now);
                self.note(now, TraceEvent::BeaconAccepted { from: pv.addr.to_u64() });
                // SHB carries no sequence number; the reserved sentinel
                // keeps SHB deliveries from colliding with real
                // sequence-numbered keys in reception accounting.
                vec![RouterAction::Deliver {
                    key: PacketKey { source: pv.addr, sn: SequenceNumber(u16::MAX) },
                    payload: frame.msg.packet.payload.clone(),
                }]
            }
            crate::wire::Extended::Tsb { .. } => self.handle_tsb(frame, position, now),
            crate::wire::Extended::Guc(_) => self.handle_guc(frame, position, now),
            _ => self.handle_beacon_or_gbc(frame, position, now),
        }
    }

    /// The decision [`GnRouter::receive`] would record for a beacon
    /// advertising `pv` that arrives at `now`, without applying it:
    /// [`TraceEvent::BeaconAccepted`], or the [`TraceEvent::Dropped`] of
    /// the failed check. `authentic` is the frame's signature verdict
    /// under this router's trust domain ([`OnAir::authentic_under`]).
    #[must_use]
    pub fn beacon_outcome(
        &self,
        pv: &LongPositionVector,
        authentic: bool,
        now: SimTime,
    ) -> TraceEvent {
        match admit(&self.config, authentic, pv, now) {
            Ok(()) => TraceEvent::BeaconAccepted { from: pv.addr.to_u64() },
            Err(reason) => {
                TraceEvent::Dropped { packet: PacketRef::new(pv.addr.to_u64(), 0), reason }
            }
        }
    }

    /// Applies a beacon advertising `pv` that arrived at `now`, leaving
    /// the location table and the counters exactly as
    /// [`GnRouter::receive`] of that broadcast beacon would. Nothing is
    /// traced or timed: a host that traces its deliveries emits
    /// [`GnRouter::beacon_outcome`] itself. A host may hand beacons over
    /// late, as long as it applies them in arrival order before anything
    /// reads this router's table.
    ///
    /// It is [`GnRouter::count_admission`] of [`admit`]'s verdict, then
    /// [`GnRouter::write_beacon`] if the beacon was accepted. The two
    /// halves may also be taken apart: the verdict reads no router state a
    /// beacon changes, so beacons can be counted in any order, and a table
    /// write overwrites its address's entry unconditionally, so of a run
    /// of beacons only the last accepted one per address needs writing.
    pub fn apply_beacon(&mut self, pv: &LongPositionVector, authentic: bool, now: SimTime) {
        let verdict = admit(&self.config, authentic, pv, now);
        self.count_admission(verdict);
        if verdict.is_ok() {
            self.write_beacon(pv, now);
        }
    }

    /// Records [`admit`]'s verdict on a received beacon in the counters,
    /// as [`GnRouter::receive`] of the beacon would. The location table is
    /// left alone.
    #[inline]
    pub fn count_admission(&mut self, verdict: Result<(), DropReason>) {
        self.stats.count_admission(verdict);
    }

    /// Writes an accepted beacon advertising `pv` that arrived at `now`
    /// into the location table, the update [`GnRouter::receive`] makes.
    /// The counters are left alone.
    pub fn write_beacon(&mut self, pv: &LongPositionVector, now: SimTime) {
        self.loct.update(*pv, now);
    }

    fn handle_beacon_or_gbc(
        &mut self,
        frame: &Frame,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let pv = *frame.msg.packet.so_pv();
        match frame.msg.packet.gbc() {
            None => {
                // Beacon: update the location table from the advertised
                // position vector. No distance-plausibility check — per
                // the standard, and per the paper's vulnerability
                // analysis. (Multi-hop GBC source PVs are deliberately
                // *not* folded into the LocT: their sources are typically
                // many hops away and would dominate greedy forwarding
                // with unreachable "neighbours"; the paper's GF operates
                // on beacon-advertised neighbour positions.)
                self.loct.update(pv, now);
                self.note(now, TraceEvent::BeaconAccepted { from: pv.addr.to_u64() });
                Vec::new()
            }
            Some(_) => self.handle_gbc(frame, position, now),
        }
    }

    /// Originates a GeoUnicast packet towards the node whose position
    /// vector is `de_pv` (typically taken from the local location table).
    pub fn originate_guc(
        &mut self,
        de_pv: crate::wire::ShortPositionVector,
        payload: Vec<u8>,
        now: SimTime,
        position: Position,
        speed: f64,
        heading: Heading,
    ) -> (PacketKey, Vec<RouterAction>) {
        let sn = self.next_sn;
        self.next_sn = self.next_sn.next();
        let pv = LongPositionVector::from_sim(
            self.addr(),
            now,
            position,
            speed,
            heading,
            &self.reference,
        );
        let msg = self.credentials.sign(GnPacket::geounicast(
            sn,
            pv,
            de_pv,
            payload,
            self.config.default_hop_limit,
        ));
        let key = PacketKey { source: self.addr(), sn };
        self.note(now, TraceEvent::Originated { packet: packet_ref(key) });
        self.gf_seen.insert(key);
        let actions = self.forward_towards(msg, position, de_pv, Vec::new(), now);
        (key, actions)
    }

    /// GeoUnicast handling: deliver if we are the destination, otherwise
    /// greedy-forward towards the destination's advertised position.
    fn handle_guc(&mut self, frame: &Frame, position: Position, now: SimTime) -> Vec<RouterAction> {
        let msg = &frame.msg;
        let key = PacketKey::of(msg).expect("GUC carries a sequence number");
        let crate::wire::Extended::Guc(guc) = &msg.packet.extended else {
            return Vec::new();
        };
        let de_pv = guc.de_pv;
        if de_pv.addr == self.addr() {
            if self.gf_seen.insert(key) {
                self.note(now, TraceEvent::Delivered { packet: packet_ref(key) });
                return vec![RouterAction::Deliver { key, payload: msg.packet.payload.clone() }];
            }
            self.note(now, TraceEvent::DuplicateDiscarded { packet: packet_ref(key) });
            return Vec::new();
        }
        if !self.gf_seen.insert(key) {
            self.note(now, TraceEvent::DuplicateDiscarded { packet: packet_ref(key) });
            return Vec::new();
        }
        let rhl = msg.rhl().saturating_sub(1);
        if rhl == 0 {
            self.note(
                now,
                TraceEvent::Dropped { packet: packet_ref(key), reason: DropReason::RhlExhausted },
            );
            return Vec::new();
        }
        self.forward_towards(msg.with_rhl(rhl), position, de_pv, vec![frame.src], now)
    }

    /// Greedy forwarding towards an explicit destination position (the
    /// GeoUnicast path; GBC uses the destination-area centre instead).
    fn forward_towards(
        &mut self,
        msg: SecuredPacket,
        position: Position,
        de_pv: crate::wire::ShortPositionVector,
        exclude: Vec<GnAddress>,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let dest = self
            .loct
            .get(de_pv.addr, now)
            .map_or_else(|| self.reference.to_plane(de_pv.coord), |e| e.position);
        // If the destination itself is a live (plausible) neighbour,
        // address it directly.
        let plaus = self.config.mitigations.gf_plausibility_threshold;
        if let Some(e) = self.loct.get(de_pv.addr, now) {
            if plaus.is_none_or(|r| position.distance(e.position) <= r)
                && !exclude.contains(&de_pv.addr)
            {
                self.note(
                    now,
                    TraceEvent::GfNextHop {
                        packet: packet_ref_of(&msg),
                        next_hop: de_pv.addr.to_u64(),
                    },
                );
                return vec![RouterAction::Transmit(Frame::unicast(
                    self.addr(),
                    de_pv.addr,
                    position,
                    msg,
                ))];
            }
        }
        let decision =
            greedy_select_excluding(&self.loct, self.addr(), position, dest, &exclude, plaus, now);
        match decision {
            GfDecision::NextHop { addr, .. } => {
                self.note(
                    now,
                    TraceEvent::GfNextHop { packet: packet_ref_of(&msg), next_hop: addr.to_u64() },
                );
                vec![RouterAction::Transmit(Frame::unicast(self.addr(), addr, position, msg))]
            }
            GfDecision::NoProgress => {
                self.note(now, TraceEvent::GfFallback { packet: packet_ref_of(&msg) });
                vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, msg))]
            }
        }
    }

    /// Topologically-scoped broadcast: classic hop-limited flooding with
    /// duplicate suppression.
    fn handle_tsb(&mut self, frame: &Frame, position: Position, now: SimTime) -> Vec<RouterAction> {
        let msg = &frame.msg;
        let key = PacketKey::of(msg).expect("TSB carries a sequence number");
        if !self.tsb_seen.insert(key) {
            self.note(now, TraceEvent::DuplicateDiscarded { packet: packet_ref(key) });
            return Vec::new();
        }
        self.note(now, TraceEvent::Delivered { packet: packet_ref(key) });
        let mut actions = vec![RouterAction::Deliver { key, payload: msg.packet.payload.clone() }];
        let rhl = msg.rhl().saturating_sub(1);
        if rhl > 0 {
            actions.push(RouterAction::Transmit(Frame::broadcast(
                self.addr(),
                position,
                msg.with_rhl(rhl),
            )));
        } else {
            self.note(
                now,
                TraceEvent::Dropped { packet: packet_ref(key), reason: DropReason::RhlExhausted },
            );
        }
        actions
    }

    /// GeoBroadcast handling: CBF inside the area, GF outside.
    fn handle_gbc(&mut self, frame: &Frame, position: Position, now: SimTime) -> Vec<RouterAction> {
        let msg = &frame.msg;
        let key = PacketKey::of(msg).expect("caller checked gbc");
        let Ok(area) = msg.packet.destination_area(&self.reference) else {
            return Vec::new();
        };

        if area.contains(position) {
            // Destination-area member: contention-based forwarding.
            let verdict = self.cbf.on_packet(
                msg,
                frame.sender_position,
                position,
                &self.config.cbf_params(),
                now,
            );
            match verdict {
                CbfVerdict::FirstCopy { contend } => {
                    self.note(now, TraceEvent::Delivered { packet: packet_ref(key) });
                    let mut actions =
                        vec![RouterAction::Deliver { key, payload: msg.packet.payload.clone() }];
                    if let Some((delay, generation)) = contend {
                        self.note(
                            now,
                            TraceEvent::CbfArmed {
                                packet: packet_ref(key),
                                delay_us: delay.as_micros(),
                            },
                        );
                        actions.push(RouterAction::CbfTimer { key, generation, delay });
                    } else {
                        self.note(
                            now,
                            TraceEvent::Dropped {
                                packet: packet_ref(key),
                                reason: DropReason::RhlExhausted,
                            },
                        );
                    }
                    actions
                }
                CbfVerdict::DuplicateDiscarded => {
                    self.note(
                        now,
                        TraceEvent::CbfCancelled {
                            packet: packet_ref(key),
                            by: frame.src.to_u64(),
                        },
                    );
                    Vec::new()
                }
                CbfVerdict::DuplicateRejectedByMitigation => {
                    self.note(
                        now,
                        TraceEvent::CbfMitigationRejected {
                            packet: packet_ref(key),
                            by: frame.src.to_u64(),
                        },
                    );
                    Vec::new()
                }
                CbfVerdict::AlreadyHandled => {
                    self.note(now, TraceEvent::DuplicateDiscarded { packet: packet_ref(key) });
                    Vec::new()
                }
            }
        } else {
            // Outside the area: forwarder role.
            if self.gf_seen.contains(&key) {
                self.note(now, TraceEvent::DuplicateDiscarded { packet: packet_ref(key) });
                return Vec::new();
            }
            self.gf_seen.insert(key);
            let rhl = msg.rhl().saturating_sub(1);
            if rhl == 0 {
                self.note(
                    now,
                    TraceEvent::Dropped {
                        packet: packet_ref(key),
                        reason: DropReason::RhlExhausted,
                    },
                );
                return Vec::new();
            }
            self.forward_greedy(msg.with_rhl(rhl), position, vec![frame.src], now)
        }
    }

    /// Greedy-forwards `msg` towards its destination area, excluding the
    /// addresses in `exclude` (the previous hop, plus — with the
    /// link-acknowledgement extension — every next hop that already
    /// failed to acknowledge).
    fn forward_greedy(
        &mut self,
        msg: SecuredPacket,
        position: Position,
        exclude: Vec<GnAddress>,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let Ok(area) = msg.packet.destination_area(&self.reference) else {
            return Vec::new();
        };
        let decision = greedy_select_excluding(
            &self.loct,
            self.addr(),
            position,
            area.center(),
            &exclude,
            self.config.mitigations.gf_plausibility_threshold,
            now,
        );
        match decision {
            GfDecision::NextHop { addr, .. } => {
                self.note(
                    now,
                    TraceEvent::GfNextHop { packet: packet_ref_of(&msg), next_hop: addr.to_u64() },
                );
                if let Some(ack) = self.config.link_ack {
                    if let Some(key) = PacketKey::of(&msg) {
                        let mut tried = exclude;
                        tried.push(addr);
                        self.gf_pending.insert(
                            key,
                            PendingGf { msg: msg.clone(), tried, retries_left: ack.max_retries },
                        );
                    }
                }
                vec![RouterAction::Transmit(Frame::unicast(self.addr(), addr, position, msg))]
            }
            GfDecision::NoProgress => self.on_no_progress(msg, position, exclude, now),
        }
    }

    /// Applies the configured no-progress policy.
    fn on_no_progress(
        &mut self,
        msg: SecuredPacket,
        position: Position,
        exclude: Vec<GnAddress>,
        now: SimTime,
    ) -> Vec<RouterAction> {
        use crate::config::NoProgressPolicy;
        match self.config.no_progress {
            NoProgressPolicy::Broadcast => {
                // Any receiver closer to the area continues forwarding.
                self.note(now, TraceEvent::GfFallback { packet: packet_ref_of(&msg) });
                vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, msg))]
            }
            NoProgressPolicy::BufferRetry { delay, max_attempts } => {
                let Some(key) = PacketKey::of(&msg) else {
                    return Vec::new();
                };
                let attempts_left = match self.gf_buffer.get(&key) {
                    Some(b) if b.attempts_left == 0 => {
                        self.gf_buffer.remove(&key);
                        self.note(
                            now,
                            TraceEvent::Dropped {
                                packet: packet_ref(key),
                                reason: DropReason::NoNextHop,
                            },
                        );
                        return Vec::new();
                    }
                    Some(b) => b.attempts_left - 1,
                    None => {
                        self.note(
                            now,
                            TraceEvent::GfBuffered { packet: packet_ref(key), attempt: 1 },
                        );
                        max_attempts
                    }
                };
                self.gf_buffer.insert(key, BufferedGf { msg, exclude, attempts_left });
                vec![RouterAction::GfRetry { key, delay }]
            }
            NoProgressPolicy::Drop => {
                self.note(
                    now,
                    TraceEvent::Dropped {
                        packet: packet_ref_of(&msg),
                        reason: DropReason::NoNextHop,
                    },
                );
                Vec::new()
            }
        }
    }

    /// Handles a forwarding-buffer recheck scheduled by an earlier
    /// [`RouterAction::GfRetry`]: re-runs greedy forwarding over the
    /// (possibly refreshed) location table.
    pub fn handle_gf_retry(
        &mut self,
        key: PacketKey,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let Some(buffered) = self.gf_buffer.remove(&key) else {
            return Vec::new();
        };
        // Re-insert so a repeated NoProgress decrements the budget.
        self.gf_buffer.insert(key, BufferedGf { msg: buffered.msg.clone(), ..buffered.clone() });
        let actions = self.forward_greedy(buffered.msg, position, buffered.exclude, now);
        // If forwarding succeeded (or the packet was dropped) the entry is
        // stale; only a fresh GfRetry keeps it alive.
        if !matches!(actions.first(), Some(RouterAction::GfRetry { .. })) {
            self.gf_buffer.remove(&key);
        }
        actions
    }

    /// Link-acknowledgement extension: the MAC confirmed delivery of the
    /// greedy unicast for `key`; forget the pending retry state.
    pub fn handle_ack_success(&mut self, key: PacketKey) {
        self.gf_pending.remove(&key);
    }

    /// Link-acknowledgement extension: the MAC gave up on the greedy
    /// unicast for `key`. Retries towards the next-best neighbour, or
    /// falls back to a broadcast once the retry budget is spent.
    ///
    /// Returns no actions when the extension is disabled or the packet is
    /// no longer pending.
    pub fn handle_ack_failure(
        &mut self,
        key: PacketKey,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        let Some(mut pending) = self.gf_pending.remove(&key) else {
            return Vec::new();
        };
        if pending.retries_left == 0 {
            // Out of retries: last resort is the broadcast fallback.
            self.note(
                now,
                TraceEvent::Dropped { packet: packet_ref(key), reason: DropReason::AckExhausted },
            );
            self.note(now, TraceEvent::GfFallback { packet: packet_ref(key) });
            return vec![RouterAction::Transmit(Frame::broadcast(
                self.addr(),
                position,
                pending.msg,
            ))];
        }
        pending.retries_left -= 1;
        let budget = self.config.link_ack.map_or(0, |a| a.max_retries);
        self.note(
            now,
            TraceEvent::GfAckRetry {
                packet: packet_ref(key),
                attempt: u32::from(budget.saturating_sub(pending.retries_left)),
            },
        );
        let retries_left = pending.retries_left;
        let tried = pending.tried.clone();
        let actions = self.forward_greedy(pending.msg, position, tried, now);
        // `forward_greedy` re-registered the pending entry with a full
        // budget; restore the decremented one.
        if let Some(p) = self.gf_pending.get_mut(&key) {
            p.retries_left = retries_left;
        }
        actions
    }

    /// Handles a CBF contention-timer expiry scheduled by an earlier
    /// [`RouterAction::CbfTimer`].
    pub fn handle_cbf_timer(
        &mut self,
        key: PacketKey,
        generation: u64,
        position: Position,
        now: SimTime,
    ) -> Vec<RouterAction> {
        match self.cbf.take_expired(key, generation) {
            Some(packet) => {
                self.note(now, TraceEvent::CbfFired { packet: packet_ref(key) });
                vec![RouterAction::Transmit(Frame::broadcast(self.addr(), position, packet))]
            }
            None => Vec::new(),
        }
    }
}

impl std::fmt::Debug for GnRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnRouter")
            .field("addr", &self.addr())
            .field("loct", &self.loct.stored_count())
            .field("cbf_buffered", &self.cbf.buffered_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MitigationConfig;
    use crate::security::CertificateAuthority;
    use geonet_sim::SimTime;

    const NOW: SimTime = SimTime::from_secs(30);

    struct Harness {
        ca: CertificateAuthority,
        reference: GeoReference,
        config: GnConfig,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                ca: CertificateAuthority::new(0xABCD),
                reference: GeoReference::default(),
                config: GnConfig::paper_default(1_283.0),
            }
        }

        fn router(&self, addr: u64) -> GnRouter {
            GnRouter::new(
                self.ca.enroll(GnAddress::vehicle(addr)),
                self.ca.verifier(),
                self.config,
                self.reference,
            )
        }

        fn router_with(&self, addr: u64, config: GnConfig) -> GnRouter {
            GnRouter::new(
                self.ca.enroll(GnAddress::vehicle(addr)),
                self.ca.verifier(),
                config,
                self.reference,
            )
        }
    }

    fn east_area() -> Area {
        Area::circle(Position::new(4_020.0, 0.0), 50.0)
    }

    #[test]
    fn beacon_populates_neighbor_loct() {
        let h = Harness::new();
        let sender = h.router(1);
        let mut receiver = h.router(2);
        let beacon = sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        let actions = receiver.handle_frame(&beacon, Position::ORIGIN, NOW);
        assert!(actions.is_empty());
        assert_eq!(receiver.stats().beacons_accepted, 1);
        let e = receiver.loct().get(GnAddress::vehicle(1), NOW).unwrap();
        assert!(e.position.distance(Position::new(300.0, 0.0)) < 0.05);
    }

    #[test]
    fn tampered_beacon_rejected() {
        let h = Harness::new();
        let sender = h.router(1);
        let mut receiver = h.router(2);
        let mut beacon = sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        // Attacker tries the classic false-position attack: move the PV.
        match &mut beacon.msg.packet.extended {
            crate::wire::Extended::Beacon { so_pv } => so_pv.coord.lon += 10_000,
            _ => unreachable!(),
        }
        receiver.handle_frame(&beacon, Position::ORIGIN, NOW);
        assert_eq!(receiver.stats().auth_failures, 1);
        assert!(receiver.loct().get(GnAddress::vehicle(1), NOW).is_none());
    }

    #[test]
    fn stale_beacon_rejected_by_freshness() {
        let h = Harness::new();
        let sender = h.router(1);
        let mut receiver = h.router(2);
        let beacon = sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        // Replay 5 s later (max_pv_age is 1 s): rejected.
        let later = NOW + SimDuration::from_secs(5);
        receiver.handle_frame(&beacon, Position::ORIGIN, later);
        assert_eq!(receiver.stats().freshness_failures, 1);
        assert!(receiver.loct().get(GnAddress::vehicle(1), later).is_none());
    }

    #[test]
    fn apply_beacon_matches_receive() {
        // Accepted, tampered and stale beacons, and a refresh: applying
        // each logged beacon leaves the same table and counters as
        // receiving its frame, and `beacon_outcome` names the decision.
        let h = Harness::new();
        let verifier = h.ca.verifier();
        let sender = h.router(1);
        let other = h.router(3);
        let mut tampered = sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        match &mut tampered.msg.packet.extended {
            crate::wire::Extended::Beacon { so_pv } => so_pv.coord.lon += 10_000,
            _ => unreachable!(),
        }
        let later = NOW + SimDuration::from_millis(400);
        let arrivals = [
            (sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST), NOW),
            (tampered, NOW),
            (other.make_beacon(NOW, Position::new(500.0, 0.0), 20.0, Heading::WEST), later),
            (sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST), later),
            (
                sender.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST),
                NOW + SimDuration::from_secs(5),
            ),
        ];
        let mut received = h.router(2);
        let mut applied = h.router(2);
        let mut outcomes = vec![];
        for (frame, at) in &arrivals {
            received.receive(&OnAir::new(frame.clone(), &verifier), Position::ORIGIN, *at);
            let pv = frame.msg.packet.so_pv();
            let authentic = verifier.verify(&frame.msg);
            outcomes.push(applied.beacon_outcome(pv, authentic, *at));
            applied.apply_beacon(pv, authentic, *at);
        }
        assert_eq!(applied.stats(), received.stats());
        let digest = |r: &GnRouter| {
            let mut d = StateHasher::new();
            r.digest_into(&mut d);
            d.finish()
        };
        assert_eq!(digest(&applied), digest(&received));
        let accepted = |o: &TraceEvent| matches!(o, TraceEvent::BeaconAccepted { .. });
        let dropped =
            |o: &TraceEvent, why| matches!(o, TraceEvent::Dropped { reason, .. } if *reason == why);
        assert!(accepted(&outcomes[0]) && accepted(&outcomes[2]) && accepted(&outcomes[3]));
        assert!(dropped(&outcomes[1], DropReason::AuthFailure));
        assert!(dropped(&outcomes[4], DropReason::StaleTimestamp));
        let e = applied.loct().get(GnAddress::vehicle(1), later).unwrap();
        assert_eq!(e.expires, later + applied.config().loct_ttl, "the refresh set the expiry");
    }

    #[test]
    fn replayed_fresh_beacon_accepted_without_plausibility_check() {
        // The paper's inter-area vulnerability in one test: an authentic
        // beacon from a node 700 m away (out of radio range) lands in the
        // LocT when replayed promptly, and GF then selects it.
        let h = Harness::new();
        let far = h.router(3);
        let near = h.router(2);
        let mut victim = h.router(1);

        let far_beacon = far.make_beacon(NOW, Position::new(700.0, 0.0), 30.0, Heading::EAST);
        let near_beacon = near.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
        // Attacker relays the far beacon 1 ms later — passes freshness.
        let replay_time = NOW + SimDuration::from_millis(1);
        victim.handle_frame(&far_beacon, Position::ORIGIN, replay_time);
        victim.handle_frame(&near_beacon, Position::ORIGIN, replay_time);

        let (_, actions) = victim.originate(
            &east_area(),
            vec![1],
            replay_time,
            Position::ORIGIN,
            30.0,
            Heading::EAST,
        );
        match &actions[..] {
            [RouterAction::Transmit(f)] => {
                assert_eq!(f.dst, Some(GnAddress::vehicle(3)), "poisoned entry wins GF");
            }
            other => panic!("expected one unicast, got {other:?}"),
        }
    }

    #[test]
    fn plausibility_mitigation_prefers_reachable_neighbor() {
        let h = Harness::new();
        let config = h.config.with_mitigations(MitigationConfig::plausibility(486.0));
        let far = h.router(3);
        let near = h.router(2);
        let mut victim = h.router_with(1, config);

        let t = NOW + SimDuration::from_millis(1);
        victim.handle_frame(
            &far.make_beacon(NOW, Position::new(700.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        victim.handle_frame(
            &near.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (_, actions) =
            victim.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        match &actions[..] {
            [RouterAction::Transmit(f)] => {
                assert_eq!(f.dst, Some(GnAddress::vehicle(2)), "mitigated GF picks real neighbor");
            }
            other => panic!("expected one unicast, got {other:?}"),
        }
    }

    #[test]
    fn gradient_query_probes_without_mutating() {
        let h = Harness::new();
        let far = h.router(3);
        let mut victim = h.router(1);
        let dest = Position::new(4_020.0, 0.0);
        let t = NOW + SimDuration::from_millis(1);
        assert_eq!(
            victim.gradient_query(Position::ORIGIN, dest, t),
            GfDecision::NoProgress,
            "empty location table"
        );
        // A replayed beacon advertises a neighbour 700 m away — beyond
        // radio reach, the poisoned-gradient case the topology observer
        // classifies.
        victim.handle_frame(
            &far.make_beacon(NOW, Position::new(700.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let before = victim.stats();
        match victim.gradient_query(Position::ORIGIN, dest, t) {
            GfDecision::NextHop { addr, advertised } => {
                assert_eq!(addr, GnAddress::vehicle(3));
                // The advertised position survives the beacon's wire
                // quantization (within a metre).
                assert!(advertised.distance(Position::new(700.0, 0.0)) < 1.0);
            }
            other => panic!("expected the poisoned next hop, got {other}"),
        }
        assert_eq!(victim.stats(), before, "the probe must not count as a decision");
    }

    #[test]
    fn gradient_query_breaks_distance_ties_to_the_smaller_address() {
        // Neighbours beaconing from one spot are exactly equidistant from
        // any destination; they arrive in descending address order.
        let h = Harness::new();
        let dest = Position::new(4_020.0, 0.0);
        for (hi, lo) in [(9, 4), (0x1000_0102, 0x1000_0101), (500, 6)] {
            let mut victim = h.router(1);
            for addr in [hi, lo] {
                let beacon =
                    h.router(addr).make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST);
                victim.handle_frame(&beacon, Position::ORIGIN, NOW);
            }
            match victim.gradient_query(Position::ORIGIN, dest, NOW) {
                GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(lo)),
                other => panic!("expected a next hop, got {other}"),
            }
        }
    }

    #[test]
    fn originate_inside_area_broadcasts() {
        let h = Harness::new();
        let mut src = h.router(1);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let (key, actions) =
            src.originate(&area, vec![7], NOW, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        assert_eq!(key.source, GnAddress::vehicle(1));
        match &actions[..] {
            [RouterAction::Transmit(f)] => {
                assert_eq!(f.dst, None);
                assert_eq!(f.msg.rhl(), 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn originate_with_no_neighbors_falls_back_to_broadcast() {
        let h = Harness::new();
        let mut src = h.router(1);
        let (_, actions) =
            src.originate(&east_area(), vec![1], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        match &actions[..] {
            [RouterAction::Transmit(f)] => assert_eq!(f.dst, None),
            other => panic!("{other:?}"),
        }
        assert_eq!(src.stats().gf_fallback, 1);
    }

    #[test]
    fn sequence_numbers_increment_per_packet() {
        let h = Harness::new();
        let mut src = h.router(1);
        let (k1, _) =
            src.originate(&east_area(), vec![], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        let (k2, _) =
            src.originate(&east_area(), vec![], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        assert_eq!(k1.sn.next(), k2.sn);
    }

    #[test]
    fn in_area_reception_delivers_and_contends() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut dst = h.router(2);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let (key, actions) =
            src.originate(&area, vec![9], NOW, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };
        let got = dst.handle_frame(frame, Position::new(1_400.0, 2.5), NOW);
        assert_eq!(got.len(), 2);
        assert!(
            matches!(&got[0], RouterAction::Deliver { key: k, payload } if *k == key && payload == &vec![9])
        );
        match &got[1] {
            RouterAction::CbfTimer { key: k, delay, .. } => {
                assert_eq!(*k, key);
                assert_eq!(*delay, h.config.cbf_params().contention_timeout(400.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cbf_timer_rebroadcasts_with_decremented_rhl() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut dst = h.router(2);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let (key, actions) =
            src.originate(&area, vec![9], NOW, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };
        let got = dst.handle_frame(frame, Position::new(1_400.0, 2.5), NOW);
        let RouterAction::CbfTimer { generation, delay, .. } = got[1] else { panic!() };
        let fire = NOW + delay;
        let out = dst.handle_cbf_timer(key, generation, Position::new(1_400.0, 2.5), fire);
        match &out[..] {
            [RouterAction::Transmit(f)] => {
                assert_eq!(f.dst, None);
                assert_eq!(f.msg.rhl(), 9);
                assert_eq!(f.src, GnAddress::vehicle(2));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(dst.stats().cbf_rebroadcast, 1);
    }

    #[test]
    fn duplicate_cancels_contention() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut dst = h.router(2);
        let mut peer = h.router(3);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let (key, actions) =
            src.originate(&area, vec![9], NOW, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };
        // dst buffers; peer (farther) wins contention and re-broadcasts.
        let got = dst.handle_frame(frame, Position::new(1_200.0, 2.5), NOW);
        let RouterAction::CbfTimer { generation, .. } = got[1] else { panic!() };
        let peer_got = peer.handle_frame(frame, Position::new(1_450.0, 2.5), NOW);
        let RouterAction::CbfTimer { generation: pg, delay: pd, .. } = peer_got[1] else {
            panic!()
        };
        let rebroadcast = peer.handle_cbf_timer(key, pg, Position::new(1_450.0, 2.5), NOW + pd);
        let RouterAction::Transmit(dup) = &rebroadcast[0] else { panic!() };
        // dst hears the duplicate before its own (larger) timer fires.
        let dup_actions = dst.handle_frame(dup, Position::new(1_200.0, 2.5), NOW + pd);
        assert!(dup_actions.is_empty());
        assert_eq!(dst.stats().cbf_discards, 1);
        // dst's stale timer yields nothing.
        let nothing = dst.handle_cbf_timer(key, generation, Position::new(1_200.0, 2.5), NOW + pd);
        assert!(nothing.is_empty());
    }

    #[test]
    fn unicast_for_other_node_ignored() {
        let h = Harness::new();
        let mut a = h.router(1);
        let b = h.router(2);
        let mut c = h.router(3);
        // a learns of b, forwards to b; c overhears but must not process.
        let t = NOW + SimDuration::from_millis(1);
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (_, actions) =
            a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        assert_eq!(f.dst, Some(GnAddress::vehicle(2)));
        assert!(c.handle_frame(f, Position::new(350.0, 0.0), t).is_empty());
        assert_eq!(c.stats(), RouterStats::default());
    }

    #[test]
    fn forwarder_outside_area_unicasts_onward() {
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let c = h.router(3);
        let t = NOW + SimDuration::from_millis(1);
        // a knows b; b knows c (closer to the area).
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        b.handle_frame(
            &c.make_beacon(NOW, Position::new(800.0, 0.0), 30.0, Heading::EAST),
            Position::new(400.0, 0.0),
            t,
        );
        let (_, actions) =
            a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f1) = &actions[0] else { panic!() };
        let actions2 = b.handle_frame(f1, Position::new(400.0, 0.0), t);
        match &actions2[..] {
            [RouterAction::Transmit(f2)] => {
                assert_eq!(f2.dst, Some(GnAddress::vehicle(3)));
                assert_eq!(f2.msg.rhl(), 9, "RHL decremented at the forwarder");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rhl_exhaustion_stops_forwarding() {
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let t = NOW + SimDuration::from_millis(1);
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (_, actions) =
            a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        // Clamp the RHL to 1 (as the attacker can): b decrements to 0 and
        // drops instead of forwarding.
        let clamped = Frame { msg: f.msg.with_rhl(1), ..f.clone() };
        let out = b.handle_frame(&clamped, Position::new(400.0, 0.0), t);
        assert!(out.is_empty());
        assert_eq!(b.stats().rhl_exhausted, 1);
    }

    #[test]
    fn forwarder_handles_each_packet_once() {
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let t = NOW + SimDuration::from_millis(1);
        let (_, actions) =
            a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        let first = b.handle_frame(f, Position::new(400.0, 0.0), t);
        assert_eq!(first.len(), 1);
        let second = b.handle_frame(f, Position::new(400.0, 0.0), t);
        assert!(second.is_empty(), "GF loop suppression");
    }

    #[test]
    fn buffer_retry_policy_parks_and_recovers() {
        use crate::config::NoProgressPolicy;
        let h = Harness::new();
        let config = h.config.with_no_progress(NoProgressPolicy::BufferRetry {
            delay: SimDuration::from_millis(500),
            max_attempts: 2,
        });
        let mut a = h.router_with(1, config);
        // No neighbours yet: the packet parks in the forwarding buffer.
        let (key, actions) =
            a.originate(&east_area(), vec![1], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        match &actions[..] {
            [RouterAction::GfRetry { key: k, delay }] => {
                assert_eq!(*k, key);
                assert_eq!(*delay, SimDuration::from_millis(500));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.stats().gf_buffered, 1);
        // A beacon arrives before the recheck fires.
        let b = h.router(2);
        let t1 = NOW + SimDuration::from_millis(400);
        a.handle_frame(
            &b.make_beacon(t1, Position::new(300.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t1,
        );
        // The recheck now finds the neighbour and forwards.
        let t2 = NOW + SimDuration::from_millis(500);
        let retry = a.handle_gf_retry(key, Position::ORIGIN, t2);
        match &retry[..] {
            [RouterAction::Transmit(f)] => assert_eq!(f.dst, Some(GnAddress::vehicle(2))),
            other => panic!("{other:?}"),
        }
        // The buffer entry is gone: another recheck is a no-op.
        assert!(a.handle_gf_retry(key, Position::ORIGIN, t2).is_empty());
    }

    #[test]
    fn buffer_retry_budget_exhausts_into_drop() {
        use crate::config::NoProgressPolicy;
        let h = Harness::new();
        let config = h.config.with_no_progress(NoProgressPolicy::BufferRetry {
            delay: SimDuration::from_millis(500),
            max_attempts: 1,
        });
        let mut a = h.router_with(1, config);
        let (key, actions) =
            a.originate(&east_area(), vec![1], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        assert!(matches!(&actions[..], [RouterAction::GfRetry { .. }]));
        // Still no neighbours at each recheck: one more retry, then drop.
        let t1 = NOW + SimDuration::from_millis(500);
        let r1 = a.handle_gf_retry(key, Position::ORIGIN, t1);
        assert!(matches!(&r1[..], [RouterAction::GfRetry { .. }]), "{r1:?}");
        let t2 = t1 + SimDuration::from_millis(500);
        let r2 = a.handle_gf_retry(key, Position::ORIGIN, t2);
        assert!(r2.is_empty(), "{r2:?}");
        assert_eq!(a.stats().gf_dropped, 1);
    }

    #[test]
    fn drop_policy_discards_immediately() {
        use crate::config::NoProgressPolicy;
        let h = Harness::new();
        let config = h.config.with_no_progress(NoProgressPolicy::Drop);
        let mut a = h.router_with(1, config);
        let (_, actions) =
            a.originate(&east_area(), vec![1], NOW, Position::ORIGIN, 30.0, Heading::EAST);
        assert!(actions.is_empty());
        assert_eq!(a.stats().gf_dropped, 1);
    }

    #[test]
    fn ack_failure_retries_next_best_neighbor() {
        let h = Harness::new();
        let config = h.config.with_link_ack(crate::config::LinkAckConfig::default());
        let mut a = h.router_with(1, config);
        let b = h.router(2);
        let c = h.router(3);
        let t = NOW + SimDuration::from_millis(1);
        // a knows both; GF prefers c (farther east), which will "fail".
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        a.handle_frame(
            &c.make_beacon(NOW, Position::new(460.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (key, actions) =
            a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f1) = &actions[0] else { panic!() };
        assert_eq!(f1.dst, Some(GnAddress::vehicle(3)));
        // No acknowledgement arrives: the router retries towards b.
        let retry = a.handle_ack_failure(key, Position::ORIGIN, t + SimDuration::from_millis(5));
        match &retry[..] {
            [RouterAction::Transmit(f2)] => {
                assert_eq!(f2.dst, Some(GnAddress::vehicle(2)), "retry must exclude v3");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.stats().gf_ack_retries, 1);
        // Success clears the pending state: further failures are no-ops.
        a.handle_ack_success(key);
        assert!(a
            .handle_ack_failure(key, Position::ORIGIN, t + SimDuration::from_millis(10))
            .is_empty());
    }

    #[test]
    fn ack_retry_budget_exhausts_into_broadcast() {
        let h = Harness::new();
        let config = h.config.with_link_ack(crate::config::LinkAckConfig {
            timeout: SimDuration::from_millis(5),
            max_retries: 1,
        });
        let mut a = h.router_with(1, config);
        let b = h.router(2);
        let c = h.router(3);
        let t = NOW + SimDuration::from_millis(1);
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        a.handle_frame(
            &c.make_beacon(NOW, Position::new(460.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (key, _) = a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        // First failure: one retry allowed (to v2).
        let r1 = a.handle_ack_failure(key, Position::ORIGIN, t + SimDuration::from_millis(5));
        assert!(
            matches!(&r1[..], [RouterAction::Transmit(f)] if f.dst == Some(GnAddress::vehicle(2)))
        );
        // Second failure: budget spent, fall back to broadcast.
        let r2 = a.handle_ack_failure(key, Position::ORIGIN, t + SimDuration::from_millis(10));
        assert!(matches!(&r2[..], [RouterAction::Transmit(f)] if f.dst.is_none()), "{r2:?}");
        assert_eq!(a.stats().gf_ack_exhausted, 1);
    }

    #[test]
    fn ack_disabled_means_no_pending_state() {
        let h = Harness::new();
        let mut a = h.router(1);
        let b = h.router(2);
        let t = NOW + SimDuration::from_millis(1);
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(300.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let (key, _) = a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        assert!(a.handle_ack_failure(key, Position::ORIGIN, t).is_empty());
    }

    #[test]
    fn guc_routes_hop_by_hop_to_destination() {
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let mut c = h.router(3);
        let t = NOW + SimDuration::from_millis(1);
        let b_pos = Position::new(400.0, 0.0);
        let c_pos = Position::new(800.0, 0.0);
        // a knows b; b knows c (the destination).
        let c_beacon = c.make_beacon(NOW, c_pos, 30.0, Heading::EAST);
        a.handle_frame(&b.make_beacon(NOW, b_pos, 30.0, Heading::EAST), Position::ORIGIN, t);
        b.handle_frame(&c_beacon, b_pos, t);
        let de_pv = crate::wire::ShortPositionVector::from_long(c_beacon.msg.packet.so_pv());

        let (key, actions) =
            a.originate_guc(de_pv, vec![0x61], t, Position::ORIGIN, 30.0, Heading::EAST);
        // a does not know c: greedy hop towards c's position goes via b.
        let RouterAction::Transmit(f1) = &actions[0] else { panic!() };
        assert_eq!(f1.dst, Some(GnAddress::vehicle(2)));
        let actions2 = b.handle_frame(f1, b_pos, t);
        // b knows the destination directly: addressed unicast.
        let RouterAction::Transmit(f2) = &actions2[0] else { panic!() };
        assert_eq!(f2.dst, Some(GnAddress::vehicle(3)));
        assert_eq!(f2.msg.rhl(), 9);
        let actions3 = c.handle_frame(f2, c_pos, t);
        assert!(
            matches!(&actions3[..], [RouterAction::Deliver { key: k, payload }]
                if *k == key && payload == &vec![0x61]),
            "{actions3:?}"
        );
        // A replayed copy is not delivered twice.
        assert!(c.handle_frame(f2, c_pos, t).is_empty());
    }

    #[test]
    fn guc_rhl_exhaustion_drops() {
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let t = NOW + SimDuration::from_millis(1);
        let c = h.router(3);
        let c_beacon = c.make_beacon(NOW, Position::new(900.0, 0.0), 30.0, Heading::EAST);
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        let de_pv = crate::wire::ShortPositionVector::from_long(c_beacon.msg.packet.so_pv());
        let (_, actions) =
            a.originate_guc(de_pv, vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f1) = &actions[0] else { panic!() };
        // Clamp the (unprotected) RHL to 1: b decrements to 0 and drops.
        let clamped = Frame { msg: f1.msg.with_rhl(1), ..f1.clone() };
        assert!(b.handle_frame(&clamped, Position::new(400.0, 0.0), t).is_empty());
        assert_eq!(b.stats().rhl_exhausted, 1);
    }

    #[test]
    fn tsb_floods_with_duplicate_suppression() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut relay = h.router(2);
        let (key, actions) =
            src.originate_tsb(vec![0x77], 5, NOW, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        assert_eq!(f.dst, None);
        let got = relay.handle_frame(f, Position::new(300.0, 0.0), NOW);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(matches!(&got[0], RouterAction::Deliver { key: k, .. } if *k == key));
        match &got[1] {
            RouterAction::Transmit(rf) => {
                assert_eq!(rf.dst, None);
                assert_eq!(rf.msg.rhl(), 4, "hop limit decremented");
            }
            other => panic!("{other:?}"),
        }
        // A duplicate copy is ignored entirely.
        assert!(relay.handle_frame(f, Position::new(300.0, 0.0), NOW).is_empty());
        // The source ignores its own echo.
        assert!(src.handle_frame(f, Position::ORIGIN, NOW).is_empty());
    }

    #[test]
    fn tsb_stops_at_hop_limit() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut last = h.router(2);
        let (_, actions) =
            src.originate_tsb(vec![1], 1, NOW, Position::ORIGIN, 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        let got = last.handle_frame(f, Position::new(100.0, 0.0), NOW);
        assert_eq!(got.len(), 1, "delivered but not re-broadcast: {got:?}");
        assert!(matches!(got[0], RouterAction::Deliver { .. }));
        assert_eq!(last.stats().rhl_exhausted, 1);
    }

    #[test]
    fn shb_delivers_and_updates_loct() {
        let h = Harness::new();
        let mut src = h.router(1);
        let mut rx = h.router(2);
        let actions =
            src.originate_shb(vec![0xCA], NOW, Position::new(250.0, 0.0), 30.0, Heading::EAST);
        let RouterAction::Transmit(f) = &actions[0] else { panic!() };
        assert_eq!(f.msg.rhl(), 1);
        let got = rx.handle_frame(f, Position::ORIGIN, NOW);
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0], RouterAction::Deliver { payload, .. } if payload == &vec![0xCA]));
        // The SHB source is a genuine neighbour: LocT updated.
        let e = rx.loct().get(GnAddress::vehicle(1), NOW).expect("LocT entry");
        assert!(e.position.distance(Position::new(250.0, 0.0)) < 0.05);
    }

    #[test]
    fn beacon_jitter_within_bounds() {
        let h = Harness::new();
        let r = h.router(1);
        let mut rng = SimRng::seed(9);
        for _ in 0..200 {
            let d = r.next_beacon_delay(&mut rng);
            assert!(d >= SimDuration::from_secs(3));
            assert!(d <= SimDuration::from_secs(3) + SimDuration::from_millis(750));
        }
    }

    #[test]
    fn debug_mentions_addr() {
        let h = Harness::new();
        let r = h.router(1);
        assert!(format!("{r:?}").contains("GnRouter"));
    }

    #[test]
    fn tracer_records_cbf_cancellation_with_culprit() {
        use geonet_sim::{shared, Tracer, VecSink};
        let h = Harness::new();
        let mut src = h.router(1);
        let mut dst = h.router(2);
        let mut peer = h.router(3);
        let sink = shared(VecSink::new());
        dst.set_tracer(Tracer::attached(sink.clone()).for_node(2));
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0);
        let (key, actions) =
            src.originate(&area, vec![9], NOW, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };
        dst.handle_frame(frame, Position::new(1_200.0, 2.5), NOW);
        let peer_got = peer.handle_frame(frame, Position::new(1_450.0, 2.5), NOW);
        let RouterAction::CbfTimer { generation: pg, delay: pd, .. } = peer_got[1] else {
            panic!()
        };
        let rebroadcast = peer.handle_cbf_timer(key, pg, Position::new(1_450.0, 2.5), NOW + pd);
        let RouterAction::Transmit(dup) = &rebroadcast[0] else { panic!() };
        dst.handle_frame(dup, Position::new(1_200.0, 2.5), NOW + pd);

        let records = sink.borrow().records().to_vec();
        let pkt = super::packet_ref(key);
        let names: Vec<&str> = records.iter().map(|r| r.event.name()).collect();
        assert_eq!(names, ["delivered", "cbf_armed", "cbf_cancelled"], "{records:?}");
        assert!(records.iter().all(|r| r.node == 2));
        assert!(records.iter().all(|r| r.event.packet() == Some(pkt)));
        match records.last().unwrap().event {
            TraceEvent::CbfCancelled { by, .. } => {
                assert_eq!(by, GnAddress::vehicle(3).to_u64(), "cancelled by the peer's dup");
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_equal_fold_of_emitted_events() {
        use geonet_sim::{shared, Tracer, VecSink};
        let h = Harness::new();
        let mut a = h.router(1);
        let mut b = h.router(2);
        let sink = shared(VecSink::new());
        a.set_tracer(Tracer::attached(sink.clone()).for_node(1));
        let t = NOW + SimDuration::from_millis(1);
        // Exercise a mix of paths: beacon accept, GF unicast, fallback,
        // RHL exhaustion, stale + tampered beacons.
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t,
        );
        a.originate(&east_area(), vec![1], t, Position::ORIGIN, 30.0, Heading::EAST);
        let (_, actions) =
            b.originate(&east_area(), vec![2], t, Position::new(4_500.0, 0.0), 30.0, Heading::EAST);
        if let Some(RouterAction::Transmit(f)) = actions.first() {
            let clamped = Frame { msg: f.msg.with_rhl(1), ..f.clone() };
            a.handle_frame(&clamped, Position::ORIGIN, t);
        }
        a.handle_frame(
            &b.make_beacon(NOW, Position::new(400.0, 0.0), 30.0, Heading::EAST),
            Position::ORIGIN,
            t + SimDuration::from_secs(5),
        );

        let mut derived = RouterStats::default();
        for r in sink.borrow().records() {
            derived.record(&r.event);
        }
        assert_ne!(a.stats(), RouterStats::default(), "the scenario exercised something");
        assert_eq!(a.stats(), derived, "stats are exactly the fold of the trace");
    }
}
