//! Deterministic run auditing: state digests, divergence diffing and
//! online invariant checking.
//!
//! The simulator's headline property — a run is a pure function of
//! `(config, attacker setup, seed)` — is easy to claim and hard to keep.
//! This module turns it into a machine-checked property, in three parts:
//!
//! * **State digests.** A [`StateHasher`] (stable, dependency-free
//!   FNV-1a 64) folds each component's canonical state — event queue,
//!   RNG stream positions, per-node LocT/CBF/duplicate-cache contents,
//!   vehicle kinematics, radio entries, delivery sets — into one `u64`
//!   per component. A [`Checkpoint`] collects the per-component hashes
//!   at one simulation time; a [`SharedAuditor`] (a
//!   [`Timeline`] of checkpoints)
//!   accumulates them at a configurable sim-time interval. Worlds hold
//!   it as an `Option`: absent by default, a single branch per traffic
//!   step when detached.
//!
//! * **Record / diff.** The timeline plus free-form run metadata is
//!   itself the `.audit.json` artifact ([`AuditArtifact`] names
//!   `Timeline<Checkpoint>`; encoded through [`crate::json`] like every
//!   other artifact).
//!   [`diff_artifacts`] compares two artifacts — a same-seed re-run, a
//!   baseline-vs-attacked pair, or pre/post-refactor runs — and reports
//!   the first diverging checkpoint, which components diverged, and the
//!   sim-time window to inspect; [`trace_window`] joins that window
//!   against a packet-lifecycle trace (PR 1's JSONL schema) for the
//!   events that caused it.
//!
//! * **Invariants.** An [`InvariantChecker`] is a
//!   [`TraceSink`] that replays the event
//!   stream online against the EN 302 636-4-1 rules the attacks abuse:
//!   packets originate once and deliver at most once per node, CBF
//!   contention delays stay within `[TO_MIN, TO_MAX]` and timers fire
//!   exactly when armed, handled packets are never re-armed or re-fired
//!   (duplicate-cache no-reforward), and greedy next hops are backed by
//!   a location-table entry younger than the TTL. A violation cites the
//!   offending event's index in the stream, so `--check-invariants`
//!   failures point straight at the evidence.
//!
//! # Example
//!
//! ```
//! use geonet_sim::audit::{shared_auditor, Checkpoint, StateHasher};
//! use geonet_sim::{SimDuration, SimTime};
//!
//! let auditor = shared_auditor(SimDuration::from_secs(1));
//! let mut b = Checkpoint::builder(SimTime::from_secs(1));
//! let mut h = StateHasher::new();
//! h.write_u64(42);
//! b.push("rng", h.finish());
//! auditor.borrow_mut().record(b.finish());
//! assert_eq!(auditor.borrow().samples().len(), 1);
//! ```

use crate::json;
use crate::time::{SimDuration, SimTime};
use crate::timeline::{shared_timeline, Sample, SharedTimeline, Timeline};
use crate::trace::{PacketRef, TraceEvent, TraceRecord, TraceSink};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable, dependency-free 64-bit state hasher (FNV-1a).
///
/// Unlike `std::hash::DefaultHasher`, the output is specified and
/// identical across processes, platforms and toolchain versions — the
/// property that makes digests comparable between two artifacts written
/// by different invocations. Not collision-resistant against an
/// adversary; it fingerprints honest state.
#[derive(Debug, Clone)]
pub struct StateHasher {
    state: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

impl StateHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StateHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Folds an `f64` by its exact bit pattern (no rounding, `-0.0` and
    /// `0.0` digest differently — byte-identical state is the contract).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so `("ab","c")` and
    /// `("a","bc")` digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        // One splitmix-style finalization round so short inputs spread
        // over the whole output space.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An order-independent digest combiner for sets whose iteration order
/// is unspecified (the event queue's heap layout).
///
/// Each absorbed element hash contributes through commutative operations
/// (wrapping sum and xor), so two queues holding the same `(time, seq)`
/// set digest identically regardless of heap shape.
#[derive(Debug, Clone, Default)]
pub struct UnorderedDigest {
    sum: u64,
    xor: u64,
    count: u64,
}

impl UnorderedDigest {
    /// Creates an empty combiner.
    #[must_use]
    pub fn new() -> Self {
        UnorderedDigest::default()
    }

    /// Absorbs one element's hash.
    pub fn absorb(&mut self, element_hash: u64) {
        self.sum = self.sum.wrapping_add(element_hash);
        self.xor ^= element_hash;
        self.count += 1;
    }

    /// Folds the combined digest into `h`.
    pub fn fold_into(&self, h: &mut StateHasher) {
        h.write_u64(self.count);
        h.write_u64(self.sum);
        h.write_u64(self.xor);
    }
}

// ---------------------------------------------------------------------
// Checkpoints and the recorder
// ---------------------------------------------------------------------

/// One component's digest within a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDigest {
    /// Component name (`"event_queue"`, `"rng"`, `"routers"`, …).
    pub component: String,
    /// The component's state hash.
    pub hash: u64,
}

/// The per-component digests of one simulation instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Simulation time of the sample.
    pub at: SimTime,
    /// Per-component digests, in the order the sampler pushed them.
    pub components: Vec<ComponentDigest>,
    /// Hash over all component digests — compare this first.
    pub combined: u64,
}

impl Checkpoint {
    /// Starts building a checkpoint for time `at`.
    #[must_use]
    pub fn builder(at: SimTime) -> CheckpointBuilder {
        CheckpointBuilder { at, components: Vec::new() }
    }

    /// The hash of one component, if sampled.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<u64> {
        self.components.iter().find(|c| c.component == name).map(|c| c.hash)
    }
}

/// Accumulates component digests into a [`Checkpoint`].
#[derive(Debug)]
pub struct CheckpointBuilder {
    at: SimTime,
    components: Vec<ComponentDigest>,
}

impl CheckpointBuilder {
    /// Adds one component's digest.
    pub fn push(&mut self, component: &str, hash: u64) {
        self.components.push(ComponentDigest { component: component.to_string(), hash });
    }

    /// Seals the checkpoint, computing the combined hash.
    #[must_use]
    pub fn finish(self) -> Checkpoint {
        let mut h = StateHasher::new();
        h.write_u64(self.at.as_micros());
        for c in &self.components {
            h.write_str(&c.component);
            h.write_u64(c.hash);
        }
        Checkpoint { at: self.at, components: self.components, combined: h.finish() }
    }
}

impl Sample for Checkpoint {
    const ITEMS: &'static str = "checkpoints";

    fn at(&self) -> SimTime {
        self.at
    }

    fn write_item(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"t_us\":{},\"combined\":{},\"components\":{{",
            self.at.as_micros(),
            self.combined
        );
        for (j, c) in self.components.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.component, c.hash);
        }
        out.push_str("}}");
    }

    /// Decodes one checkpoint, recomputing its combined hash from the
    /// components: a hand-edited artifact cannot silently claim
    /// agreement.
    fn parse_item(value: &json::Value) -> Result<Self, String> {
        let at = SimTime::from_micros(value.get("t_us")?.as_u64("t_us")?);
        let combined = value.get("combined")?.as_u64("combined")?;
        value.only_keys("checkpoint", &["t_us", "combined", "components"])?;
        let mut b = Checkpoint::builder(at);
        for (name, hash) in value.get("components")?.as_object("components")? {
            b.push(name, hash.as_u64(name)?);
        }
        let rebuilt = b.finish();
        if rebuilt.combined != combined {
            return Err(format!(
                "checkpoint at {} µs: combined hash {} does not match components (expected {})",
                at.as_micros(),
                combined,
                rebuilt.combined
            ));
        }
        Ok(rebuilt)
    }
}

/// A shared digest timeline handed to a world via `set_auditor`.
pub type SharedAuditor = SharedTimeline<Checkpoint>;

/// Creates a [`SharedAuditor`] sampling every `interval`.
#[must_use]
pub fn shared_auditor(interval: SimDuration) -> SharedAuditor {
    shared_timeline(interval)
}

/// A digest timeline is its own `.audit.json` artifact: run metadata,
/// sampling interval and the checkpoint sequence, written by
/// [`Timeline::to_json`]. Two artifacts from identically-seeded runs
/// are byte-identical.
pub type AuditArtifact = Timeline<Checkpoint>;

// ---------------------------------------------------------------------
// Divergence diffing
// ---------------------------------------------------------------------

/// The first point where two digest timelines disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first diverging checkpoint.
    pub index: usize,
    /// Simulation time of that checkpoint.
    pub at: SimTime,
    /// Time of the last agreeing checkpoint ([`SimTime::ZERO`] if the
    /// very first checkpoint diverged) — the divergence happened in
    /// `(window_start, at]`.
    pub window_start: SimTime,
    /// Names of the components whose hashes differ (including components
    /// present on only one side, and `"checkpoint_time"` if the sample
    /// times themselves disagree).
    pub components: Vec<String>,
}

/// The outcome of comparing two audit artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// The first diverging checkpoint, or `None` if every compared
    /// checkpoint agrees.
    pub first_divergence: Option<Divergence>,
    /// How many checkpoint pairs were compared (the shorter length).
    pub compared: usize,
    /// Timeline lengths of the two artifacts.
    pub lengths: (usize, usize),
    /// Metadata keys whose values differ (or are present on one side
    /// only), as `(key, a-value, b-value)`.
    pub meta_differences: Vec<(String, Option<String>, Option<String>)>,
}

impl DivergenceReport {
    /// Whether the two timelines are digest-identical (metadata may
    /// still differ — a baseline-vs-attacked pair is *expected* to
    /// differ in metadata).
    #[must_use]
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none() && self.lengths.0 == self.lengths.1
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, a, b) in &self.meta_differences {
            writeln!(
                f,
                "meta {key}: {} vs {}",
                a.as_deref().unwrap_or("<absent>"),
                b.as_deref().unwrap_or("<absent>")
            )?;
        }
        match &self.first_divergence {
            None if self.lengths.0 == self.lengths.1 => {
                writeln!(f, "identical: {} checkpoints agree", self.compared)
            }
            None => writeln!(
                f,
                "no diverging checkpoint, but timelines have different lengths: {} vs {}",
                self.lengths.0, self.lengths.1
            ),
            Some(d) => {
                writeln!(
                    f,
                    "DIVERGENCE at checkpoint {} (t = {} µs): component(s) {}",
                    d.index,
                    d.at.as_micros(),
                    d.components.join(", ")
                )?;
                writeln!(
                    f,
                    "window: ({} µs, {} µs] — join the runs' traces over this window",
                    d.window_start.as_micros(),
                    d.at.as_micros()
                )
            }
        }
    }
}

/// Compares two digest timelines and reports the first divergence.
#[must_use]
pub fn diff_artifacts(a: &AuditArtifact, b: &AuditArtifact) -> DivergenceReport {
    let mut meta_differences = Vec::new();
    let keys: BTreeSet<&String> = a.meta().keys().chain(b.meta().keys()).collect();
    for key in keys {
        let (va, vb) = (a.meta().get(key), b.meta().get(key));
        if va != vb {
            meta_differences.push((key.clone(), va.cloned(), vb.cloned()));
        }
    }
    let (a, b) = (a.samples(), b.samples());
    let compared = a.len().min(b.len());
    let mut first_divergence = None;
    for i in 0..compared {
        let (ca, cb) = (&a[i], &b[i]);
        if ca.combined == cb.combined && ca.at == cb.at {
            continue;
        }
        let mut components = Vec::new();
        if ca.at != cb.at {
            components.push("checkpoint_time".to_string());
        }
        let names: BTreeSet<&String> = ca
            .components
            .iter()
            .map(|c| &c.component)
            .chain(cb.components.iter().map(|c| &c.component))
            .collect();
        for name in names {
            if ca.component(name) != cb.component(name) {
                components.push(name.clone());
            }
        }
        let window_start = if i == 0 { SimTime::ZERO } else { a[i - 1].at };
        first_divergence = Some(Divergence { index: i, at: ca.at, window_start, components });
        break;
    }
    DivergenceReport { first_divergence, compared, lengths: (a.len(), b.len()), meta_differences }
}

/// The trace records falling inside a divergence window `(from, to]` —
/// the events to inspect once [`diff_artifacts`] has localized a
/// divergence. Pass `from = SimTime::ZERO` to include the run start.
pub fn trace_window(
    records: &[TraceRecord],
    from: SimTime,
    to: SimTime,
) -> impl Iterator<Item = &TraceRecord> {
    records.iter().filter(move |r| r.at > from && r.at <= to)
}

// ---------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------

/// The protocol parameters the invariants are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantParams {
    /// CBF minimum contention time (`TO_MIN`).
    pub to_min: SimDuration,
    /// CBF maximum contention time (`TO_MAX`).
    pub to_max: SimDuration,
    /// Location-table entry lifetime.
    pub loct_ttl: SimDuration,
}

/// One invariant violation, citing the offending event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Zero-based index of the offending event in the consumed stream.
    pub event_index: u64,
    /// Simulation time of the offending event.
    pub at: SimTime,
    /// Node that emitted it.
    pub node: u32,
    /// Short stable rule name (`"no-reforward"`, `"cbf-delay-range"`, …).
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{} (t = {} µs, node {}): [{}] {}",
            self.event_index,
            self.at.as_micros(),
            self.node,
            self.rule,
            self.detail
        )
    }
}

/// Keeps at most this many violations (a broken run can emit millions of
/// identical ones; the first few carry all the signal).
const MAX_VIOLATIONS: usize = 64;

/// An online checker of the EN 302 636-4-1 forwarding invariants,
/// consuming [`TraceEvent`]s as a [`TraceSink`].
///
/// Rules:
///
/// * **originate-once** — a `(source, sn)` pair is originated at most
///   once across the whole run.
/// * **deliver-once** — a node delivers a given packet at most once
///   (packet conservation's at-most-once half; the at-least-once half
///   is a liveness property the run horizon can legitimately cut).
/// * **cbf-delay-range** — every armed contention delay lies within
///   `[TO_MIN, TO_MAX]`.
/// * **cbf-fire-time** — a contention timer fires exactly `delay` after
///   it was armed.
/// * **no-reforward** — once a node has fired or cancelled a packet's
///   timer (its duplicate cache marks the packet handled), it never
///   fires or re-arms that packet again; firing or cancelling without a
///   pending timer is flagged too.
/// * **loct-ttl** — a greedy next hop must be backed by a beacon
///   accepted from that neighbour within the location-table TTL.
#[derive(Debug)]
pub struct InvariantChecker {
    params: InvariantParams,
    next_index: u64,
    violations: Vec<Violation>,
    suppressed: u64,
    /// `(source, sn)` → originating node, for originate-once.
    originated: BTreeMap<PacketRef, u32>,
    /// Per-node delivered packets, for deliver-once.
    delivered: BTreeSet<(u32, PacketRef)>,
    /// Armed (pending) contention timers: arm time and delay.
    armed: BTreeMap<(u32, PacketRef), (SimTime, u64)>,
    /// Packets a node has already fired or cancelled (handled).
    handled: BTreeSet<(u32, PacketRef)>,
    /// Last beacon acceptance per `(node, neighbour address)`.
    beacons: BTreeMap<(u32, u64), SimTime>,
}

impl InvariantChecker {
    /// Creates a checker for the given protocol parameters.
    #[must_use]
    pub fn new(params: InvariantParams) -> Self {
        InvariantChecker {
            params,
            next_index: 0,
            violations: Vec::new(),
            suppressed: 0,
            originated: BTreeMap::new(),
            delivered: BTreeSet::new(),
            armed: BTreeMap::new(),
            handled: BTreeSet::new(),
            beacons: BTreeMap::new(),
        }
    }

    /// Events consumed so far.
    #[must_use]
    pub fn events_checked(&self) -> u64 {
        self.next_index
    }

    /// All recorded violations (capped at an internal limit; see
    /// [`InvariantChecker::suppressed`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations beyond the recording cap that were counted but not
    /// stored.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// The earliest violation, if any — the fail-fast citation.
    #[must_use]
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Whether every consumed event satisfied the invariants.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    fn violate(&mut self, index: u64, at: SimTime, node: u32, rule: &'static str, detail: String) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation { event_index: index, at, node, rule, detail });
    }

    fn check(&mut self, at: SimTime, node: u32, event: &TraceEvent) {
        let index = self.next_index;
        self.next_index += 1;
        match event {
            TraceEvent::Originated { packet } => {
                if let Some(&prev) = self.originated.get(packet) {
                    self.violate(
                        index,
                        at,
                        node,
                        "originate-once",
                        format!("packet {packet} already originated by node {prev}"),
                    );
                } else {
                    self.originated.insert(*packet, node);
                }
            }
            TraceEvent::Delivered { packet } if !self.delivered.insert((node, *packet)) => {
                self.violate(
                    index,
                    at,
                    node,
                    "deliver-once",
                    format!("packet {packet} delivered twice at this node"),
                );
            }
            TraceEvent::Delivered { .. } => {}
            TraceEvent::BeaconAccepted { from } => {
                self.beacons.insert((node, *from), at);
            }
            TraceEvent::CbfArmed { packet, delay_us } => {
                let (lo, hi) = (self.params.to_min.as_micros(), self.params.to_max.as_micros());
                if *delay_us < lo || *delay_us > hi {
                    self.violate(
                        index,
                        at,
                        node,
                        "cbf-delay-range",
                        format!("delay {delay_us} µs outside [{lo}, {hi}] µs for {packet}"),
                    );
                }
                if self.handled.contains(&(node, *packet)) {
                    self.violate(
                        index,
                        at,
                        node,
                        "no-reforward",
                        format!("re-armed {packet} after it was already handled"),
                    );
                }
                if self.armed.insert((node, *packet), (at, *delay_us)).is_some() {
                    self.violate(
                        index,
                        at,
                        node,
                        "no-reforward",
                        format!("re-armed {packet} while its timer was still pending"),
                    );
                }
            }
            TraceEvent::CbfFired { packet } => match self.armed.remove(&(node, *packet)) {
                Some((armed_at, delay_us)) => {
                    let expected = armed_at + SimDuration::from_micros(delay_us);
                    if at != expected {
                        self.violate(
                            index,
                            at,
                            node,
                            "cbf-fire-time",
                            format!(
                                "{packet} fired at {} µs, armed at {} µs + {delay_us} µs",
                                at.as_micros(),
                                armed_at.as_micros()
                            ),
                        );
                    }
                    self.handled.insert((node, *packet));
                }
                None => {
                    let rule_detail = if self.handled.contains(&(node, *packet)) {
                        format!("{packet} fired again after being handled (duplicate forward)")
                    } else {
                        format!("{packet} fired without a pending contention timer")
                    };
                    self.violate(index, at, node, "no-reforward", rule_detail);
                    self.handled.insert((node, *packet));
                }
            },
            TraceEvent::CbfCancelled { packet, .. } => {
                if self.armed.remove(&(node, *packet)).is_none() {
                    self.violate(
                        index,
                        at,
                        node,
                        "no-reforward",
                        format!("{packet} cancelled without a pending contention timer"),
                    );
                }
                self.handled.insert((node, *packet));
            }
            TraceEvent::GfNextHop { packet, next_hop } => {
                let fresh = self
                    .beacons
                    .get(&(node, *next_hop))
                    .is_some_and(|&t| at.saturating_since(t) < self.params.loct_ttl);
                if !fresh {
                    self.violate(
                        index,
                        at,
                        node,
                        "loct-ttl",
                        format!(
                            "next hop {next_hop:#x} for {packet} has no beacon younger than \
                             the {} s LocT TTL",
                            self.params.loct_ttl.as_secs()
                        ),
                    );
                }
            }
            // Remaining events carry no online-checkable obligation.
            _ => {}
        }
    }

    /// One-line summary for reports.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.ok() {
            format!("ok: {} events, 0 violations", self.next_index)
        } else {
            format!(
                "{} violations over {} events (first: {})",
                self.violations.len() as u64 + self.suppressed,
                self.next_index,
                self.violations.first().map(ToString::to_string).unwrap_or_default()
            )
        }
    }
}

impl TraceSink for InvariantChecker {
    fn record(&mut self, at: SimTime, node: u32, event: &TraceEvent) {
        self.check(at, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_stable_across_invocations() {
        // Golden value: the digest is part of the artifact format, so a
        // hash-function change must be a conscious, test-breaking act.
        let mut h = StateHasher::new();
        h.write_u64(42);
        h.write_str("abc");
        h.write_f64(1.5);
        h.write_bool(true);
        assert_eq!(h.finish(), 0xbb6b_b5fb_988d_e59c);
    }

    #[test]
    fn hasher_is_order_sensitive_and_prefix_free() {
        let mut a = StateHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StateHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = StateHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        let mut d = StateHasher::new();
        d.write_u64(2);
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn unordered_digest_ignores_order() {
        let mut a = UnorderedDigest::new();
        let mut b = UnorderedDigest::new();
        for x in [1u64, 2, 3, 99] {
            a.absorb(x);
        }
        for x in [99u64, 3, 1, 2] {
            b.absorb(x);
        }
        let fin = |u: &UnorderedDigest| {
            let mut h = StateHasher::new();
            u.fold_into(&mut h);
            h.finish()
        };
        assert_eq!(fin(&a), fin(&b));
        let mut c = UnorderedDigest::new();
        c.absorb(1);
        assert_ne!(fin(&a), fin(&c));
    }

    fn checkpoint(at_s: u64, rng: u64) -> Checkpoint {
        let mut b = Checkpoint::builder(SimTime::from_secs(at_s));
        b.push("rng", rng);
        b.push("routers", 7);
        b.finish()
    }

    #[test]
    fn combined_hash_reflects_components() {
        assert_eq!(checkpoint(1, 5), checkpoint(1, 5));
        assert_ne!(checkpoint(1, 5).combined, checkpoint(1, 6).combined);
        assert_ne!(checkpoint(1, 5).combined, checkpoint(2, 5).combined);
    }

    fn artifact_with(seed: &str, rngs: &[u64]) -> AuditArtifact {
        let mut r = Timeline::new(SimDuration::from_secs(1));
        r.set_meta("seed", seed);
        r.set_meta("scenario", "interarea");
        for (s, &rng) in rngs.iter().enumerate() {
            r.record(checkpoint(s as u64, rng));
        }
        r
    }

    fn artifact() -> AuditArtifact {
        artifact_with("42", &[10, 11, 12])
    }

    #[test]
    fn artifact_json_roundtrip() {
        let a = artifact();
        let text = a.to_json();
        let parsed = AuditArtifact::from_json(&text).expect("own output parses");
        assert_eq!(parsed, a);
        // Determinism of the encoding itself.
        assert_eq!(text, parsed.to_json());
    }

    #[test]
    fn artifact_rejects_tampered_combined_hash() {
        let text = artifact().to_json();
        let tampered = text.replacen("\"routers\":7", "\"routers\":8", 1);
        let err = AuditArtifact::from_json(&tampered).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
    }

    #[test]
    fn diff_identical_artifacts() {
        let report = diff_artifacts(&artifact(), &artifact());
        assert!(report.identical());
        assert_eq!(report.compared, 3);
        assert!(report.to_string().contains("identical"));
    }

    #[test]
    fn diff_names_first_divergence_and_component() {
        let a = artifact();
        let b = artifact_with("42", &[10, 999, 12]); // rng diverged at 1 s
        let report = diff_artifacts(&a, &b);
        let d = report.first_divergence.clone().expect("divergence found");
        assert_eq!(d.index, 1);
        assert_eq!(d.at, SimTime::from_secs(1));
        assert_eq!(d.window_start, SimTime::from_secs(0));
        assert_eq!(d.components, vec!["rng".to_string()]);
        assert!(!report.identical());
        assert!(report.to_string().contains("DIVERGENCE"));
    }

    #[test]
    fn diff_reports_meta_and_length_differences() {
        let a = artifact();
        let b = artifact_with("43", &[10, 11]);
        let report = diff_artifacts(&a, &b);
        assert!(report.first_divergence.is_none());
        assert!(!report.identical(), "length mismatch is not identical");
        assert_eq!(report.lengths, (3, 2));
        assert_eq!(report.meta_differences.len(), 1);
        assert_eq!(report.meta_differences[0].0, "seed");
    }

    #[test]
    fn trace_window_is_half_open() {
        let rec = |s: u64| TraceRecord {
            at: SimTime::from_secs(s),
            node: 0,
            event: TraceEvent::Originated { packet: PacketRef::new(1, 1) },
        };
        let records = vec![rec(1), rec(2), rec(3), rec(4)];
        let window: Vec<u64> = trace_window(&records, SimTime::from_secs(1), SimTime::from_secs(3))
            .map(|r| r.at.as_secs())
            .collect();
        assert_eq!(window, vec![2, 3]);
    }

    // ---------------- invariant checker ----------------

    fn params() -> InvariantParams {
        InvariantParams {
            to_min: SimDuration::from_millis(1),
            to_max: SimDuration::from_millis(100),
            loct_ttl: SimDuration::from_secs(20),
        }
    }

    fn pkt() -> PacketRef {
        PacketRef::new(0x1000_0001, 7)
    }

    #[test]
    fn clean_cbf_lifecycle_passes() {
        let mut c = InvariantChecker::new(params());
        let t0 = SimTime::from_secs(1);
        c.record(t0, 1, &TraceEvent::Originated { packet: pkt() });
        c.record(t0, 2, &TraceEvent::CbfArmed { packet: pkt(), delay_us: 50_000 });
        c.record(t0, 3, &TraceEvent::CbfArmed { packet: pkt(), delay_us: 2_000 });
        c.record(t0 + SimDuration::from_micros(2_000), 3, &TraceEvent::CbfFired { packet: pkt() });
        c.record(
            t0 + SimDuration::from_micros(2_500),
            2,
            &TraceEvent::CbfCancelled { packet: pkt(), by: 3 },
        );
        c.record(t0 + SimDuration::from_secs(1), 2, &TraceEvent::Delivered { packet: pkt() });
        assert!(c.ok(), "{:?}", c.violations());
        assert_eq!(c.events_checked(), 6);
        assert!(c.summary().starts_with("ok"));
    }

    #[test]
    fn duplicate_forward_is_caught_with_event_id() {
        let mut c = InvariantChecker::new(params());
        let t0 = SimTime::from_secs(1);
        c.record(t0, 3, &TraceEvent::CbfArmed { packet: pkt(), delay_us: 2_000 });
        let fire_at = t0 + SimDuration::from_micros(2_000);
        c.record(fire_at, 3, &TraceEvent::CbfFired { packet: pkt() });
        // The injected violation: the same node forwards the same packet
        // again.
        c.record(fire_at, 3, &TraceEvent::CbfFired { packet: pkt() });
        let v = c.first_violation().expect("violation recorded");
        assert_eq!(v.event_index, 2, "cites the offending event");
        assert_eq!(v.rule, "no-reforward");
        assert!(v.detail.contains("duplicate forward"), "{v}");
    }

    #[test]
    fn fire_after_cancel_is_caught() {
        let mut c = InvariantChecker::new(params());
        let t0 = SimTime::from_secs(1);
        c.record(t0, 3, &TraceEvent::CbfArmed { packet: pkt(), delay_us: 2_000 });
        c.record(t0, 3, &TraceEvent::CbfCancelled { packet: pkt(), by: 9 });
        c.record(t0 + SimDuration::from_micros(2_000), 3, &TraceEvent::CbfFired { packet: pkt() });
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, "no-reforward");
    }

    #[test]
    fn delay_out_of_range_is_caught() {
        let mut c = InvariantChecker::new(params());
        c.record(
            SimTime::from_secs(1),
            3,
            &TraceEvent::CbfArmed { packet: pkt(), delay_us: 200_000 },
        );
        assert_eq!(c.violations()[0].rule, "cbf-delay-range");
    }

    #[test]
    fn late_fire_is_caught() {
        let mut c = InvariantChecker::new(params());
        let t0 = SimTime::from_secs(1);
        c.record(t0, 3, &TraceEvent::CbfArmed { packet: pkt(), delay_us: 2_000 });
        c.record(t0 + SimDuration::from_micros(3_000), 3, &TraceEvent::CbfFired { packet: pkt() });
        assert_eq!(c.violations()[0].rule, "cbf-fire-time");
    }

    #[test]
    fn double_origination_and_delivery_are_caught() {
        let mut c = InvariantChecker::new(params());
        let t = SimTime::from_secs(1);
        c.record(t, 1, &TraceEvent::Originated { packet: pkt() });
        c.record(t, 2, &TraceEvent::Originated { packet: pkt() });
        c.record(t, 5, &TraceEvent::Delivered { packet: pkt() });
        c.record(t, 5, &TraceEvent::Delivered { packet: pkt() });
        let rules: Vec<&str> = c.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["originate-once", "deliver-once"]);
    }

    #[test]
    fn stale_next_hop_is_caught_and_fresh_one_passes() {
        let mut c = InvariantChecker::new(params());
        let t0 = SimTime::from_secs(1);
        c.record(t0, 4, &TraceEvent::BeaconAccepted { from: 0xBEEF });
        c.record(
            t0 + SimDuration::from_secs(5),
            4,
            &TraceEvent::GfNextHop { packet: pkt(), next_hop: 0xBEEF },
        );
        assert!(c.ok(), "fresh beacon must pass: {:?}", c.violations());
        c.record(
            t0 + SimDuration::from_secs(25),
            4,
            &TraceEvent::GfNextHop { packet: pkt(), next_hop: 0xBEEF },
        );
        assert_eq!(c.violations()[0].rule, "loct-ttl");
        // A next hop never heard from at all.
        c.record(t0, 9, &TraceEvent::GfNextHop { packet: pkt(), next_hop: 0xF00D });
        assert_eq!(c.violations()[1].rule, "loct-ttl");
    }

    #[test]
    fn violation_flood_is_capped() {
        let mut c = InvariantChecker::new(params());
        let t = SimTime::from_secs(1);
        // The first delivery is legal; every repeat after that violates.
        for _ in 0..(MAX_VIOLATIONS + 11) {
            c.record(t, 5, &TraceEvent::Delivered { packet: pkt() });
        }
        assert_eq!(c.violations().len(), MAX_VIOLATIONS);
        assert_eq!(c.suppressed(), 10);
        assert!(!c.ok());
        assert!(c.summary().contains("violations"));
    }
}
