//! The beacon log: how [`World`](crate::World) delivers beacons.
//!
//! An accepted beacon only overwrites one location-table entry of its
//! receiver, and almost nothing reads those tables: a run makes hundreds of
//! thousands of beacon deliveries for a few dozen greedy-forwarding
//! decisions. Writing each delivery into its receiver's table at arrival
//! time costs one cache miss per receiver, scattered over every table of
//! the world. So the world instead appends one [`Record`] per beacon
//! transmission to this log and one 4-byte [`Entry`] per legitimate
//! receiver to that receiver's inbox ([`LazyRouter`]), and applies an
//! inbox to its router only when something is about to read the router:
//! a *fold*. The fold applies the entries that arrived before the current
//! event's `(time, sequence)` key — the *barrier*. Entries past the
//! barrier are still on the air and stay in the inbox.
//!
//! A location table is a cache filled when it is read. Four facts make a
//! fold exact without applying every entry in turn:
//! - [`geonet::admit`], the verdict a router counts, reads only the record
//!   (its signature verdict and position-vector timestamp), the world's
//!   [`GnConfig`] and the arrival time, never router state, so entries can
//!   be counted in any order;
//! - [`GnRouter::write_beacon`] overwrites its address's entry
//!   unconditionally, so after a run of beacons only the newest accepted
//!   one per address is visible;
//! - a location table promises no iteration order;
//! - the verdict reads the arrival time only as a wire millisecond, and an
//!   entry arrives 1 to [`MAX_OFFSET_US`] µs after the send, so that
//!   millisecond takes at most two values across a record's entries. So a
//!   record has one verdict for all its receivers, decided once when it is
//!   logged, except where a millisecond boundary inside that window flips
//!   the freshness check: a *split* record, decided per entry.
//!
//! So a fold walks its due entries newest first, counts each, and writes
//! only the first accepted one per address: what
//! [`GnRouter::apply_beacon`] of each entry in arrival order leaves. An
//! inbox that reaches [`INBOX_CAP`] entries is *compacted*: every due entry
//! but the newest accepted one per address is counted and dropped, and
//! the survivors wait, uncounted, for a fold. Only an inbox that is still
//! half full after that is folded.
//!
//! A record is stored in two parts. The [`Head`] is what every fold,
//! compaction and count reads of it: the send time, a dense *slot* per PV
//! address and the verdict, 16 bytes, in blocks of 1,024 beside the
//! record chunks. The 48-byte [`Record`] holds the position vector and the
//! sequence numbers: a fold loads it only to write a table entry, to
//! decide a split record's entry, or to order an entry that arrives at the
//! barrier's own time. Folds and compactions find the first
//! entry per address by slot, in an array, not by hashing addresses, and
//! a replay carries its victim's address and so shares the victim's slot.
//!
//! Records are retired by age, a chunk of 1,024 at a time: once the
//! newest record of the oldest chunk is a location-table TTL old, the
//! world folds every inbox whose oldest entry is a TTL old, after which
//! no inbox references the chunk ([`BeaconLog::retire_before`]).
//!
//! The log also keeps the receivers and arrival offsets of the
//! transmissions still on the air ([`InFlight`]), so that event counts,
//! audit digests of the pending events and the clock come out exactly as
//! if every delivery had been an event of its own. Receivers are appended
//! in the radio's fan-out order; a delivery's sequence number follows its
//! receiver's rank in id order. A world with a trace sink walks them to
//! trace each reception in event order ([`BeaconLog::due`],
//! [`BeaconLog::trace`]); the entries stay for a fold, as in any world.

use geonet::{
    admit, CertificateAuthority, GnAddress, GnConfig, GnRouter, LongPositionVector, RouterStats,
};
use geonet_geo::{GeoReference, Heading, Position};
use geonet_sim::{DropReason, SimDuration, SimTime, TraceEvent, Tracer, U64Map};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// A point in the event order: `(time, kernel sequence number)`. A
/// delivery whose key is below the barrier has happened.
pub(crate) type Key = (SimTime, u64);

/// Record ids live in the low 28 bits of an [`Entry`].
const ID_BITS: u32 = 28;
const ID_MASK: u32 = (1 << ID_BITS) - 1;

/// The largest arrival offset an [`Entry`] holds, in µs: 4 bits, 4.5 km
/// of propagation. A beacon whose range reaches further is not logged.
pub(crate) const MAX_OFFSET_US: u64 = (1 << (32 - ID_BITS)) - 1;

/// Inbox length at which an inbox is compacted on append, so that a
/// router nothing reads holds a bounded backlog.
const INBOX_CAP: usize = 256;

/// One logged beacon transmission: what its receivers' routers write, and
/// where its deliveries sit in the event order. Its [`Head`] holds the
/// rest.
#[derive(Debug)]
struct Record {
    pv: LongPositionVector,
    /// The kernel sequence number of receiver 0; receiver `i` holds
    /// `first_seq + i`.
    first_seq: u64,
}

/// The part of a record that folds, compactions and counts read for every
/// entry.
#[derive(Debug, Clone, Copy)]
struct Head {
    sent: SimTime,
    /// The dense id of the record's PV address.
    slot: u32,
    /// [`admit`]'s verdict at every arrival an entry can hold, or `None`
    /// for a split record, whose verdict depends on the arrival.
    verdict: Option<Result<(), DropReason>>,
}

impl Head {
    /// The frame's signature verdict, shared by every receiver: only a
    /// forged frame fails [`admit`]'s signature check, and it fails it at
    /// every arrival.
    fn authentic(self) -> bool {
        self.verdict != Some(Err(DropReason::AuthFailure))
    }
}

/// `pv`'s verdict under `config` at every arrival 1 to [`MAX_OFFSET_US`] µs
/// after `sent`, or `None` if it differs across them. The arrival's wire
/// millisecond steps at most once in that window, so the two ends decide.
fn record_verdict(
    config: &GnConfig,
    pv: &LongPositionVector,
    authentic: bool,
    sent: SimTime,
) -> Option<Result<(), DropReason>> {
    let at = |us| admit(config, authentic, pv, sent + SimDuration::from_micros(us));
    let first = at(1);
    (first == at(MAX_OFFSET_US)).then_some(first)
}

/// Records per chunk of [`Records`].
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The records in fixed-size chunks: an append never moves the records
/// already held, so the log never holds two copies while it grows, and
/// retirement frees whole chunks. Only the last chunk is partly filled.
/// Each chunk's heads sit in a block of their own, in a table indexed like
/// the chunks: a head is one block lookup and one load away, and like the
/// chunks the blocks are allocated at one size and freed whole. (A single
/// `Vec` of heads, grown by doubling, left freed buffers in the heap that
/// raised `highway-scale`'s peak RSS by ~0.3 MB.)
#[derive(Debug, Default)]
struct Records {
    chunks: VecDeque<Vec<Record>>,
    /// `heads[c][k]` is the head of record `k` of chunk `c`.
    heads: Vec<Box<[Head; CHUNK]>>,
}

/// The head of a slot no record has filled yet.
const NO_HEAD: Head = Head { sent: SimTime::ZERO, slot: 0, verdict: None };

impl Records {
    fn len(&self) -> usize {
        self.chunks.len().saturating_sub(1) * CHUNK + self.chunks.back().map_or(0, Vec::len)
    }

    /// Drops the record pushed last.
    fn pop(&mut self) {
        self.chunks.back_mut().and_then(Vec::pop).expect("a record to drop");
    }

    fn push(&mut self, r: Record, head: Head) {
        let i = self.len();
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(r),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(r);
                self.chunks.push_back(chunk);
                self.heads.push(Box::new([NO_HEAD; CHUNK]));
            }
        }
        self.heads[i >> CHUNK_BITS][i & (CHUNK - 1)] = head;
    }

    fn head(&self, i: usize) -> Head {
        self.heads[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    fn get(&self, i: usize) -> &Record {
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    /// The send time of the last record of the oldest full chunk.
    fn oldest_chunk_end(&self) -> Option<SimTime> {
        self.heads.first().filter(|_| self.chunks.len() > 1).map(|h| h[CHUNK - 1].sent)
    }

    /// Drops the full chunks whose records were all sent before `t` and
    /// returns how many records went.
    fn retire_before(&mut self, t: SimTime) -> usize {
        let mut n = 0;
        while self.oldest_chunk_end().is_some_and(|end| end < t) {
            self.chunks.pop_front();
            self.heads.remove(0);
            n += CHUNK;
        }
        n
    }
}

/// One receiver's pending delivery: the record id modulo 2²⁸ and the
/// arrival offset from the send time in µs (1–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry(u32);

impl Entry {
    /// Marks an entry a fold or compaction consumed, until it is removed.
    /// No entry arrives at offset 0.
    const CONSUMED: Entry = Entry(0);

    /// The entry of a receiver of record `id` arriving `offset_us` after
    /// the send.
    fn new(id: u64, offset_us: u64) -> Self {
        debug_assert!((1..=MAX_OFFSET_US).contains(&offset_us));
        Entry((id as u32 & ID_MASK) | ((offset_us as u32) << ID_BITS))
    }

    fn offset(self) -> SimDuration {
        SimDuration::from_micros(u64::from(self.0 >> ID_BITS))
    }
}

/// A logged transmission whose deliveries are not all behind the barrier
/// yet. Its `receivers` are the next run of [`BeaconLog`]'s receiver
/// queue, sorted by id once `ranked`; the receiver of rank `i` in id
/// order arrives under `first_seq + i`. `id` is its record's.
#[derive(Debug)]
struct InFlight {
    id: u64,
    sent: SimTime,
    first_seq: u64,
    receivers: usize,
    last: SimTime,
    ranked: Cell<bool>,
}

/// A router and the logged beacons it has not applied yet.
#[derive(Debug)]
pub(crate) struct LazyRouter {
    pub(crate) router: GnRouter,
    /// In record order, which is sequence-number order.
    pub(crate) inbox: Vec<Entry>,
}

impl LazyRouter {
    pub(crate) fn new(router: GnRouter) -> Self {
        LazyRouter { router, inbox: Vec::new() }
    }
}

/// What made a fold happen (see [`BeaconLogStats`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fold {
    Read,
    Cap,
    Ttl,
    Exit,
    Audit,
}

/// Counters of a world's beacon log ([`World::beacon_log_stats`]).
///
/// [`World::beacon_log_stats`]: crate::World::beacon_log_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeaconLogStats {
    /// Beacon transmissions logged instead of queued as deliveries.
    pub records_logged: u64,
    /// Logged transmissions retired once no inbox referenced them.
    pub records_retired: u64,
    /// Inbox entries appended: one per legitimate receiver of a logged
    /// transmission.
    pub inbox_entries: u64,
    /// Folds before a router's state was read: an eager delivery
    /// addressed to it, a timer, an origination, [`World::router`], a
    /// topology snapshot or a telemetry depth sample.
    ///
    /// [`World::router`]: crate::World::router
    pub folds_read: u64,
    /// Folds of an inbox still half full after its compaction.
    pub folds_cap: u64,
    /// Compactions of an inbox that reached its length cap.
    pub compactions: u64,
    /// Inbox entries counted and dropped by compactions.
    pub entries_compacted: u64,
    /// Location-table writes made by folds: one per address among a
    /// fold's accepted entries.
    pub loct_writes: u64,
    /// Folds of an inbox whose oldest entry passed the LocT TTL.
    pub folds_ttl: u64,
    /// Folds of a vehicle's inbox as it left the road.
    pub folds_exit: u64,
    /// Inbox entries still on the air when their vehicle left the road:
    /// dropped, as their deliveries would have been.
    pub exit_drops: u64,
    /// Folds before an audit checkpoint digested the routers.
    pub folds_audit: u64,
}

/// The world's beacon records, the transmissions still on the air, and
/// the counters.
#[derive(Debug)]
pub(crate) struct BeaconLog {
    records: Records,
    /// The id of the first record held.
    base: u64,
    /// The configuration every router of the world shares: records are
    /// decided under it.
    config: GnConfig,
    /// The slot of each PV address logged, numbered from 0 in the order
    /// the addresses first appeared.
    slots: U64Map<u32>,
    in_flight: VecDeque<InFlight>,
    /// The receivers of the in-flight transmissions, transmission after
    /// transmission, each in fan-out order until a walk through `&self`
    /// sorts it: node id and arrival offset in µs. One queue rather than a
    /// buffer per transmission: buffers grown by doubling left holes in
    /// the heap that raised `interception`'s peak RSS by ~70 KB.
    receivers: RefCell<Vec<(u32, u8)>>,
    /// The record id of the transmission begun last, and where its
    /// receivers start in `receivers`.
    open: (u64, usize),
    stats: Cell<BeaconLogStats>,
    /// Working space of folds and compactions, which run through `&self`.
    scratch: RefCell<Scratch>,
}

/// A due inbox entry: its arrival, its record's index, its position in the
/// inbox, and its record's slot and verdict, copied from the head so that
/// the walk after the collection reads no head again.
type Due = (SimTime, u32, u32, u32, Option<Result<(), DropReason>>);

#[derive(Debug, Default)]
struct Scratch {
    due: Vec<Due>,
    seen: SlotSet,
}

/// A set of slots that empties in O(1): slot `s` is in it when
/// `epochs[s]` is the current epoch.
#[derive(Debug, Default)]
struct SlotSet {
    epochs: Vec<u32>,
    epoch: u32,
}

impl SlotSet {
    /// Empties the set and makes room for slots below `slots`.
    fn clear(&mut self, slots: usize) {
        if self.epochs.len() < slots {
            self.epochs.resize(slots, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Slots of the epoch that just came round again would count.
            self.epochs.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `slot` and returns whether it was new.
    fn insert(&mut self, slot: u32) -> bool {
        let epoch = &mut self.epochs[slot as usize];
        let new = *epoch != self.epoch;
        *epoch = self.epoch;
        new
    }
}

impl BeaconLog {
    /// An empty log for a world whose routers all run `config`.
    pub(crate) fn new(config: GnConfig) -> Self {
        BeaconLog {
            records: Records::default(),
            base: 0,
            config,
            slots: U64Map::default(),
            in_flight: VecDeque::new(),
            receivers: RefCell::default(),
            open: (0, 0),
            stats: Cell::default(),
            scratch: RefCell::default(),
        }
    }

    /// Starts logging a beacon transmission sent at `sent` whose receivers
    /// hold the sequence numbers from `first_seq` on, and retires the
    /// in-flight transmissions that are behind `barrier`. Its receivers
    /// follow through [`BeaconLog::append`], then [`BeaconLog::finish`].
    pub(crate) fn begin(
        &mut self,
        pv: LongPositionVector,
        authentic: bool,
        sent: SimTime,
        first_seq: u64,
        barrier: Key,
    ) {
        while let Some(done) = self.in_flight.pop_front_if(|f| f.last < barrier.0) {
            self.receivers.get_mut().drain(..done.receivers);
        }
        let id = self.base + self.records.len() as u64;
        assert!(self.records.len() < ID_MASK as usize, "beacon log outgrew its record ids");
        let fresh = self.slots.len() as u32;
        let slot = *self.slots.entry(pv.addr.to_u64()).or_insert(fresh);
        let verdict = record_verdict(&self.config, &pv, authentic, sent);
        let head = Head { sent, slot, verdict };
        self.records.push(Record { pv, first_seq }, head);
        self.open = (id, self.receivers.get_mut().len());
        let f = InFlight { id, sent, first_seq, receivers: 0, last: sent, ranked: Cell::default() };
        self.in_flight.push_back(f);
    }

    /// Adds node `rx`, arriving `offset_us` after the send, to the
    /// transmission begun last: one inbox entry in `lazy`, which is
    /// compacted up to `barrier` if that fills it, and folded if it is
    /// still half full after that.
    pub(crate) fn append(&mut self, lazy: &mut LazyRouter, rx: u32, offset_us: u64, barrier: Key) {
        lazy.inbox.push(Entry::new(self.open.0, offset_us));
        self.receivers.get_mut().push((rx, offset_us as u8));
        if lazy.inbox.len() >= INBOX_CAP {
            self.compact(lazy, barrier);
            if lazy.inbox.len() >= INBOX_CAP / 2 {
                self.fold(lazy, barrier, Fold::Cap);
            }
        }
    }

    /// Closes the transmission begun last and returns its receiver count.
    /// A transmission nobody appended to is dropped, record and all.
    pub(crate) fn finish(&mut self) -> u64 {
        let f = self.in_flight.back_mut().expect("a transmission begun");
        let received = &self.receivers.get_mut()[self.open.1..];
        let n = received.len();
        let Some(max) = received.iter().map(|&(_, off)| off).max() else {
            self.in_flight.pop_back();
            self.records.pop();
            return 0;
        };
        f.receivers = n;
        f.last = f.sent + SimDuration::from_micros(u64::from(max));
        let mut s = self.stats.get();
        s.records_logged += 1;
        s.inbox_entries += n as u64;
        self.stats.set(s);
        n as u64
    }

    /// The index of an entry's record.
    fn index(&self, e: Entry) -> usize {
        (e.0.wrapping_sub(self.base as u32) & ID_MASK) as usize
    }

    /// The index and head of an entry's record, and the entry's arrival
    /// time.
    fn arrival(&self, e: Entry) -> (usize, Head, SimTime) {
        let i = self.index(e);
        let head = self.records.head(i);
        (i, head, head.sent + e.offset())
    }

    /// Whether an entry of record `i` arriving at `at` is ordered before
    /// `barrier`: by its arrival time, then by its record's block of
    /// sequence numbers. No other event holds a number inside the block,
    /// so comparing with the block's first number orders the entry against
    /// any other event. Only a tie in time loads the record.
    fn before(&self, i: usize, at: SimTime, barrier: Key) -> bool {
        at < barrier.0 || at == barrier.0 && self.records.get(i).first_seq < barrier.1
    }

    /// The verdict on an entry of record `i` arriving at `at`, whose head
    /// holds `verdict`: that one, or for a split record, [`admit`]'s at
    /// `at`. A split record is authentic.
    fn verdict(
        &self,
        i: usize,
        at: SimTime,
        verdict: Option<Result<(), DropReason>>,
    ) -> Result<(), DropReason> {
        verdict.unwrap_or_else(|| admit(&self.config, true, &self.records.get(i).pv, at))
    }

    /// Whether `lazy` holds an entry that arrived before `barrier`.
    pub(crate) fn has_due(&self, lazy: &LazyRouter, barrier: Key) -> bool {
        lazy.inbox.iter().any(|&e| {
            let (i, _, at) = self.arrival(e);
            self.before(i, at, barrier)
        })
    }

    /// Fills `due` with the entries of `inbox` that arrived before
    /// `barrier`, in (arrival, record) order: the order their deliveries
    /// would have popped in.
    fn collect_due(&self, inbox: &[Entry], barrier: Key, due: &mut Vec<Due>) {
        due.clear();
        for (pos, &e) in inbox.iter().enumerate() {
            let (i, head, at) = self.arrival(e);
            if self.before(i, at, barrier) {
                due.push((at, i as u32, pos as u32, head.slot, head.verdict));
            }
        }
        // Record order is sequence order, so (arrival, index) is the pop
        // order. Only records sent within a few µs of each other can
        // cross, and those come from different sources (a replay never
        // arrives before its original), so the sort is for exactness and
        // rarely runs.
        if !due.is_sorted() {
            due.sort_unstable();
        }
    }

    /// Applies every entry of `lazy`'s inbox that arrived before
    /// `barrier` to its router and removes them; entries still on the air
    /// stay. The router ends as [`GnRouter::apply_beacon`] of each entry
    /// in arrival order leaves it, but the entries are walked newest
    /// first: each is counted, and only the first accepted one per
    /// address is written to the location table.
    pub(crate) fn fold(&self, lazy: &mut LazyRouter, barrier: Key, trigger: Fold) {
        if lazy.inbox.is_empty() {
            return;
        }
        debug_assert_eq!(lazy.router.config(), &self.config, "routers share the world's config");
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { due, seen } = &mut *scratch;
        self.collect_due(&lazy.inbox, barrier, due);
        if due.is_empty() {
            return;
        }
        seen.clear(self.slots.len());
        let mut writes = 0;
        for &(at, i, pos, slot, verdict) in due.iter().rev() {
            let i = i as usize;
            let verdict = self.verdict(i, at, verdict);
            lazy.router.count_admission(verdict);
            if verdict.is_ok() && seen.insert(slot) {
                lazy.router.write_beacon(&self.records.get(i).pv, at);
                writes += 1;
            }
            lazy.inbox[pos as usize] = Entry::CONSUMED;
        }
        lazy.inbox.retain(|&e| e != Entry::CONSUMED);
        let mut s = self.stats.get();
        s.loct_writes += writes;
        match trigger {
            Fold::Read => s.folds_read += 1,
            Fold::Cap => s.folds_cap += 1,
            Fold::Ttl => s.folds_ttl += 1,
            Fold::Exit => s.folds_exit += 1,
            Fold::Audit => s.folds_audit += 1,
        }
        self.stats.set(s);
    }

    /// Counts and drops every entry of `lazy`'s inbox that arrived before
    /// `barrier` except the newest accepted one per address, which no
    /// later fold can skip writing. The survivors stay in the inbox,
    /// uncounted and in record order, with the entries still on the air.
    pub(crate) fn compact(&self, lazy: &mut LazyRouter, barrier: Key) {
        debug_assert_eq!(lazy.router.config(), &self.config, "routers share the world's config");
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { due, seen } = &mut *scratch;
        self.collect_due(&lazy.inbox, barrier, due);
        seen.clear(self.slots.len());
        let mut dropped = 0;
        for &(at, i, pos, slot, verdict) in due.iter().rev() {
            let verdict = self.verdict(i as usize, at, verdict);
            if verdict.is_err() || !seen.insert(slot) {
                lazy.router.count_admission(verdict);
                lazy.inbox[pos as usize] = Entry::CONSUMED;
                dropped += 1;
            }
        }
        lazy.inbox.retain(|&e| e != Entry::CONSUMED);
        let mut s = self.stats.get();
        s.compactions += 1;
        s.entries_compacted += dropped;
        self.stats.set(s);
    }

    /// `lazy`'s router counters with the entries that arrived before
    /// `barrier` counted, as a fold would leave them, without folding:
    /// counts need no order and no table.
    pub(crate) fn counted(&self, lazy: &LazyRouter, barrier: Key) -> RouterStats {
        debug_assert_eq!(lazy.router.config(), &self.config, "routers share the world's config");
        let mut stats = lazy.router.stats();
        for &e in &lazy.inbox {
            let (i, head, at) = self.arrival(e);
            if self.before(i, at, barrier) {
                stats.count_admission(self.verdict(i, at, head.verdict));
            }
        }
        stats
    }

    /// Empties the inbox of a router that went off the air, after a fold
    /// up to `barrier`: the entries left arrive after it.
    pub(crate) fn close(&self, lazy: &mut LazyRouter, barrier: Key) {
        self.fold(lazy, barrier, Fold::Exit);
        let mut s = self.stats.get();
        s.exit_drops += lazy.inbox.len() as u64;
        self.stats.set(s);
        lazy.inbox = Vec::new();
    }

    /// The send time of an inbox entry's record.
    pub(crate) fn sent(&self, e: Entry) -> SimTime {
        self.records.head(self.index(e)).sent
    }

    /// The send time of the newest record the next retirement can drop.
    pub(crate) fn oldest_chunk_end(&self) -> Option<SimTime> {
        self.records.oldest_chunk_end()
    }

    /// Drops records sent before `t`, a chunk at a time. The caller
    /// guarantees that no inbox references them.
    pub(crate) fn retire_before(&mut self, t: SimTime) {
        let n = self.records.retire_before(t);
        self.base += n as u64;
        let mut s = self.stats.get();
        s.records_retired += n as u64;
        self.stats.set(s);
    }

    /// Calls `f` with the `(arrival, sequence)` key, receiver and record id
    /// of each delivery on the air. The first walk to reach a transmission
    /// sorts its receivers by id, in place: sequence numbers go by rank.
    fn walk(&self, mut f: impl FnMut(Key, u32, u64)) {
        let mut receivers = self.receivers.borrow_mut();
        let mut from = 0;
        for t in &self.in_flight {
            let run = &mut receivers[from..from + t.receivers];
            from += t.receivers;
            if !t.ranked.replace(true) {
                run.sort_unstable_by_key(|&(rx, _)| rx);
            }
            for (rank, &(rx, off)) in (0..).zip(run.iter()) {
                let at = t.sent + SimDuration::from_micros(u64::from(off));
                f((at, t.first_seq + rank), rx, t.id);
            }
        }
    }

    /// The `(arrival, sequence)` keys of the logged deliveries at or past
    /// `barrier`: the ones still on the air.
    pub(crate) fn pending(&self, barrier: Key) -> Vec<Key> {
        let mut keys = Vec::new();
        self.walk(|k, _, _| keys.extend((k >= barrier).then_some(k)));
        keys
    }

    /// Logged deliveries that have happened by `barrier`.
    pub(crate) fn delivered(&self, barrier: Key) -> u64 {
        self.stats.get().inbox_entries - self.pending(barrier).len() as u64
    }

    /// The latest arrival of a logged delivery before `barrier`, among
    /// those possibly later than the last popped event.
    pub(crate) fn latest_before(&self, barrier: Key) -> Option<SimTime> {
        let mut latest = None;
        self.walk(|k, _, _| latest = latest.max((k < barrier).then_some(k.0)));
        latest
    }

    /// Whether a logged delivery arrives in `(after, until]`.
    pub(crate) fn arrives_within(&self, after: SimTime, until: SimTime) -> bool {
        self.pending((after, u64::MAX)).iter().any(|&(at, _)| at <= until)
    }

    /// The logged deliveries with keys in `[from, until)`, in key order:
    /// key, receiver and record id.
    pub(crate) fn due(&self, from: Key, until: Key) -> Vec<(Key, u32, u64)> {
        let mut due = Vec::new();
        self.walk(|k, rx, id| due.extend((from <= k && k < until).then_some((k, rx, id))));
        due.sort_unstable_by_key(|&(k, _, _)| k);
        due
    }

    /// Traces record `id`'s beacon arriving at `at` at `router`'s node as
    /// a delivery event would have: the reception (a beacon's link-layer
    /// source is its PV address), then the router's decision, which reads
    /// only its configuration. The inbox entry stays for a fold.
    pub(crate) fn trace(&self, router: &GnRouter, id: u64, at: SimTime, tracer: &Tracer) {
        let i = (id - self.base) as usize;
        let pv = &self.records.get(i).pv;
        let from = pv.addr.to_u64();
        tracer.emit(at, || TraceEvent::FrameRx { packet: None, from, beacon: true });
        tracer.emit(at, || router.beacon_outcome(pv, self.records.head(i).authentic(), at));
    }

    pub(crate) fn stats(&self) -> BeaconLogStats {
        self.stats.get()
    }
}

/// A router with an inbox of `senders × per_sender` due beacons, each
/// sender's beacons 100 ms apart, which it folds, compacts or counts again
/// and again: the `beacon_fold_*`, `beacon_compact_*` and
/// `beacon_counted_*` microbenches.
#[doc(hidden)]
#[derive(Debug)]
pub struct InboxBench {
    log: BeaconLog,
    lazy: LazyRouter,
    inbox: Vec<Entry>,
    barrier: Key,
}

impl InboxBench {
    #[must_use]
    pub fn new(senders: u64, per_sender: u64) -> Self {
        let reference = GeoReference::default();
        let ca = CertificateAuthority::new(1);
        let config = GnConfig::paper_default(486.0);
        let router =
            GnRouter::new(ca.enroll(GnAddress::vehicle(0)), ca.verifier(), config, reference);
        let mut log = BeaconLog::new(config);
        let mut lazy = LazyRouter::new(router);
        // Logged before anything is due, so that the append at the cap
        // neither compacts nor folds anything.
        let start = (SimTime::from_secs(1), 0);
        let mut seq = 0;
        for round in 0..per_sender {
            for s in 1..=senders {
                let sent = start.0 + SimDuration::from_micros(100_000 * round + 1_000 * s);
                let at = Position::new(30.0 * s as f64, 2.5);
                let pv = LongPositionVector::from_sim(
                    GnAddress::vehicle(s),
                    sent,
                    at,
                    30.0,
                    Heading::EAST,
                    &reference,
                );
                log.begin(pv, true, sent, seq, start);
                log.append(&mut lazy, 0, 1, start);
                log.finish();
                seq += 1;
            }
        }
        let inbox = lazy.inbox.clone();
        let barrier = (start.0 + SimDuration::from_micros(100_000 * per_sender), seq);
        InboxBench { log, lazy, inbox, barrier }
    }

    /// Refills the inbox and folds it.
    pub fn fold(&mut self) {
        self.lazy.inbox.clone_from(&self.inbox);
        self.log.fold(&mut self.lazy, self.barrier, Fold::Read);
    }

    /// Refills the inbox and compacts it; returns the survivors.
    pub fn compact(&mut self) -> usize {
        self.lazy.inbox.clone_from(&self.inbox);
        self.log.compact(&mut self.lazy, self.barrier);
        self.lazy.inbox.len()
    }

    /// Refills the inbox and returns its router's counters with it
    /// counted, as [`World::aggregate_stats`] reads them.
    ///
    /// [`World::aggregate_stats`]: crate::World::aggregate_stats
    pub fn counted(&mut self) -> RouterStats {
        self.lazy.inbox.clone_from(&self.inbox);
        self.log.counted(&self.lazy, self.barrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::StateHasher;
    use proptest::prelude::*;

    #[test]
    fn entries_and_records_stay_small() {
        // Inboxes hold an entry per receiver, the log a record and a
        // head per transmission for up to a TTL.
        assert_eq!(std::mem::size_of::<Record>(), 48);
        assert_eq!(std::mem::size_of::<Head>(), 16);
        assert_eq!(std::mem::size_of::<Entry>(), 4);
        let e = Entry::new((1 << ID_BITS) + 7, MAX_OFFSET_US);
        assert_eq!(e.0 & ID_MASK, 7, "ids wrap at 2^28");
        assert_eq!(e.offset(), SimDuration::from_micros(15));
    }

    fn pv(src: u64, sent: SimTime) -> LongPositionVector {
        LongPositionVector::from_sim(
            GnAddress::vehicle(src),
            sent,
            Position::ORIGIN,
            0.0,
            Heading::from_degrees(0.0),
            &GeoReference::default(),
        )
    }

    #[test]
    fn in_flight_keys_follow_receiver_id_order() {
        // Appended in fan-out order; sequence numbers go by node id, in
        // each transmission's own block.
        let ca = CertificateAuthority::new(3);
        let mut lazy = LazyRouter::new(router(&ca));
        let mut log = log();
        let start = (SimTime::ZERO, 0);
        for (first_seq, sent, receivers) in
            [(40, 100, &[(9, 2), (3, 1), (5, 2)][..]), (90, 101, &[(4, 1), (2, 2)])]
        {
            let sent = SimTime::from_micros(sent);
            log.begin(pv(1, sent), true, sent, first_seq, start);
            for &(rx, off) in receivers {
                log.append(&mut lazy, rx, off, start);
            }
            log.finish();
        }
        let mut keys = Vec::new();
        log.walk(|(t, seq), rx, _| keys.push((rx, t.as_micros(), seq)));
        assert_eq!(keys, [(3, 101, 40), (5, 102, 41), (9, 102, 42), (2, 103, 90), (4, 102, 91)]);
        let due = log.due((SimTime::from_micros(102), 41), (SimTime::from_micros(103), 0));
        let due: Vec<_> = due.iter().map(|&((t, seq), rx, _)| (rx, t.as_micros(), seq)).collect();
        assert_eq!(due, [(5, 102, 41), (9, 102, 42), (4, 102, 91)]);
        assert_eq!(log.pending((SimTime::from_micros(102), 42)).len(), 3);
    }

    #[test]
    fn trace_emits_the_reception_and_decision_only() {
        let ca = CertificateAuthority::new(3);
        let mut lazy = LazyRouter::new(router(&ca));
        let mut log = log();
        let start = (SimTime::ZERO, 0);
        for (src, authentic) in [(1, true), (2, false)] {
            let sent = SimTime::from_micros(100 + src);
            log.begin(pv(src, sent), authentic, sent, 10 * src, start);
            log.append(&mut lazy, 0, 3, start);
            log.finish();
        }
        let sink = geonet_sim::shared(geonet_sim::VecSink::new());
        let tracer = Tracer::attached(sink.clone()).for_node(0);
        let end = (SimTime::from_secs(1), 0);
        for ((at, _), _, i) in log.due(start, end) {
            log.trace(&lazy.router, i, at, &tracer);
        }
        // The router is untouched and its entries wait for a fold.
        assert_eq!(lazy.inbox.len(), 2);
        assert_eq!(digest(&lazy.router), digest(&router(&ca)));
        let events: Vec<_> = sink.borrow().records().iter().map(|r| r.event.clone()).collect();
        let rx = |src| TraceEvent::FrameRx { packet: None, from: src, beacon: true };
        let (one, two) = (GnAddress::vehicle(1).to_u64(), GnAddress::vehicle(2).to_u64());
        assert_eq!(events.len(), 4);
        assert_eq!((&events[0], &events[2]), (&rx(one), &rx(two)));
        assert_eq!(events[1], TraceEvent::BeaconAccepted { from: one });
        assert!(matches!(events[3], TraceEvent::Dropped { .. }));
        // The fold's counters are the traced decisions'.
        let mut traced = RouterStats::default();
        events.iter().for_each(|e| traced.record(e));
        log.fold(&mut lazy, end, Fold::Read);
        assert_eq!(lazy.router.stats(), traced);
    }

    #[test]
    fn a_transmission_nobody_hears_leaves_no_record() {
        let mut log = log();
        let sent = SimTime::from_micros(10);
        log.begin(pv(1, sent), true, sent, 7, (sent, 7));
        assert_eq!(log.finish(), 0);
        assert_eq!(log.records.len(), 0);
        assert_eq!(log.stats(), BeaconLogStats::default());
        assert!(log.pending((SimTime::ZERO, 0)).is_empty());
    }

    #[test]
    fn heads_follow_their_records_across_chunks() {
        let mut records = Records::default();
        let push = |records: &mut Records, k: usize| {
            let head = Head { sent: SimTime::from_micros(k as u64), slot: k as u32, verdict: None };
            records.push(Record { pv: pv(1, SimTime::ZERO), first_seq: k as u64 }, head);
        };
        (0..CHUNK).for_each(|k| push(&mut records, k));
        // A record dropped at a chunk boundary leaves an empty chunk,
        // which the next push fills.
        push(&mut records, 0);
        records.pop();
        (CHUNK..2 * CHUNK + 3).for_each(|k| push(&mut records, k));
        let aligned = |records: &Records, first: usize| {
            (0..records.len()).all(|i| {
                records.head(i).slot as usize == first + i
                    && records.get(i).first_seq == (first + i) as u64
            })
        };
        assert_eq!(records.len(), 2 * CHUNK + 3);
        assert!(aligned(&records, 0));
        // Only full chunks retire.
        assert_eq!(records.retire_before(SimTime::from_secs(1)), 2 * CHUNK);
        assert_eq!(records.len(), 3);
        assert!(aligned(&records, 2 * CHUNK));
    }

    #[test]
    fn slot_set_empties_on_clear_and_across_an_epoch_wrap() {
        let mut seen = SlotSet::default();
        seen.clear(8);
        assert!(seen.insert(7) && seen.insert(3) && !seen.insert(7));
        seen.clear(8);
        assert!(seen.insert(7) && !seen.insert(7));
        // Room for slots that appeared since.
        seen.clear(10);
        seen.epoch = u32::MAX;
        seen.insert(9);
        seen.clear(10);
        assert_eq!(seen.epoch, 1);
        assert!(seen.insert(9) && seen.insert(3));
    }

    #[test]
    fn begin_decides_each_record_once_unless_split() {
        // Sent 990 µs into a millisecond: entries arrive in that
        // millisecond at offsets up to 9 µs, and in the next from 10 µs.
        let sent = SimTime::from_micros(5_000_990);
        let at = |us| sent + SimDuration::from_micros(us);
        let mut log = log();
        let records = [
            (pv(1, sent), true, Some(Ok(()))),
            (pv(2, sent), false, Some(Err(DropReason::AuthFailure))),
            (pv(1, SimTime::from_secs(2)), true, Some(Err(DropReason::StaleTimestamp))),
            // 1,000 ms old (fresh) in the first millisecond, 1,001 in the
            // next.
            (pv(3, SimTime::from_secs(4)), true, None),
        ];
        for (k, &(pv, authentic, verdict)) in (0..).zip(&records) {
            log.begin(pv, authentic, sent, k, (sent, k));
            let head = log.records.head(k as usize);
            assert_eq!(head.verdict, verdict, "record {k}");
            assert_eq!(head.authentic(), authentic);
            let decided = |us| log.verdict(k as usize, at(us), head.verdict);
            assert_eq!(decided(1), admit(&config(), authentic, &pv, at(1)));
            assert_eq!(decided(MAX_OFFSET_US), admit(&config(), authentic, &pv, at(MAX_OFFSET_US)));
        }
        assert_eq!(log.verdict(3, at(9), None), Ok(()));
        assert_eq!(log.verdict(3, at(10), None), Err(DropReason::StaleTimestamp));
        // A replay of address 1 shares its slot.
        let slots: Vec<_> = (0..4).map(|i| log.records.head(i).slot).collect();
        assert_eq!(slots, [0, 1, 0, 2]);
    }

    #[test]
    fn inbox_bench_compacts_to_one_entry_per_sender() {
        let mut bench = InboxBench::new(64, 4);
        assert_eq!(bench.inbox.len(), 256);
        assert_eq!(bench.counted().beacons_accepted, 256);
        assert_eq!(bench.compact(), 64);
        bench.fold();
        assert!(bench.lazy.inbox.is_empty());
        let s = bench.log.stats();
        assert_eq!((s.entries_compacted, s.loct_writes), (192, 64));
        assert_eq!(bench.lazy.router.loct().stored_count(), 64);
    }

    /// One logged beacon of the random inboxes below.
    #[derive(Debug, Clone, Copy)]
    struct Beacon {
        src: u64,
        /// µs after the previous beacon; under 16 µs, arrivals can cross.
        gap_us: u64,
        offset_us: u64,
        /// 0: a replay of an earlier beacon's position vector, stale when
        /// that is over a second old; 1: a forged signature; 2: a replay
        /// whose verdict a millisecond boundary splits (see
        /// `compact_then_fold_equals_apply_all_in_order`); else fresh.
        kind: u8,
        /// Compact the inbox right after this beacon is logged.
        compact: bool,
    }

    fn beacon() -> impl Strategy<Value = Beacon> {
        (0u64..6, prop_oneof![0u64..16, 1_000u64..300_000], 1..=MAX_OFFSET_US, 0u8..7, any::<u8>())
            .prop_map(|(src, gap_us, offset_us, kind, c)| Beacon {
                src,
                gap_us,
                offset_us,
                kind,
                compact: c % 8 == 0,
            })
    }

    fn config() -> GnConfig {
        GnConfig::paper_default(486.0)
    }

    fn log() -> BeaconLog {
        BeaconLog::new(config())
    }

    fn router(ca: &CertificateAuthority) -> GnRouter {
        GnRouter::new(
            ca.enroll(GnAddress::vehicle(99)),
            ca.verifier(),
            config(),
            GeoReference::default(),
        )
    }

    fn digest(r: &GnRouter) -> u64 {
        let mut h = StateHasher::new();
        r.digest_into(&mut h);
        h.finish()
    }

    proptest! {
        /// Compactions at random points (and at the cap), then a fold,
        /// leave a router's table and counters as applying every due
        /// beacon in arrival order does; the entries past the barrier
        /// stay, and `counted` agrees with the fold.
        #[test]
        fn compact_then_fold_equals_apply_all_in_order(
            beacons in prop::collection::vec(beacon(), 1..400),
            tail_us in 0u64..20,
        ) {
            let ca = CertificateAuthority::new(3);
            let reference = GeoReference::default();
            let mut log = log();
            let mut lazy = LazyRouter::new(router(&ca));
            let mut sent = SimTime::from_secs(1);
            let mut seq = 0u64;
            let mut pvs = Vec::new();
            let mut arrivals = Vec::new();
            let max_age = config().max_pv_age;
            for (k, b) in beacons.iter().enumerate() {
                sent += SimDuration::from_micros(b.gap_us);
                if b.kind == 2 {
                    // 990 µs into a millisecond, so that the arrivals
                    // 1–9 µs later fall in it and 10–15 µs in the next.
                    sent += SimDuration::from_micros((1_990 - sent.as_micros() % 1_000) % 1_000);
                }
                let pv_at = |t| {
                    LongPositionVector::from_sim(
                        GnAddress::vehicle(b.src),
                        t,
                        Position::new(30.0 * b.src as f64 + k as f64, 2.5),
                        30.0,
                        Heading::EAST,
                        &reference,
                    )
                };
                let fresh = pv_at(sent);
                let (pv, authentic) = match b.kind {
                    0 => (pvs.get(k / 2).copied().unwrap_or(fresh), true),
                    1 => (fresh, false),
                    // Exactly `max_pv_age` old at the first arrival
                    // offset, one millisecond more from 10 µs on.
                    2 => (pv_at(SimTime::from_millis(sent.as_millis()) - max_age), true),
                    _ => (fresh, true),
                };
                pvs.push(pv);
                // The barrier of the beacon event, just below the
                // sequence numbers its receivers get.
                let barrier = (sent, seq);
                seq += 1;
                log.begin(pv, authentic, sent, seq, barrier);
                if b.kind == 2 {
                    prop_assert!(log.records.head(log.records.len() - 1).verdict.is_none());
                }
                log.append(&mut lazy, 0, b.offset_us, barrier);
                log.finish();
                arrivals.push((sent + SimDuration::from_micros(b.offset_us), seq, pv, authentic));
                seq += 1;
                if b.compact {
                    log.compact(&mut lazy, barrier);
                }
            }
            let barrier = (sent + SimDuration::from_micros(tail_us), seq);
            let mut expected = router(&ca);
            arrivals.sort_by_key(|&(at, first_seq, _, _)| (at, first_seq));
            let due: Vec<_> =
                arrivals.iter().filter(|&&(at, first_seq, _, _)| (at, first_seq) < barrier).collect();
            for &&(at, _, pv, authentic) in &due {
                expected.apply_beacon(&pv, authentic, at);
            }
            prop_assert_eq!(log.counted(&lazy, barrier), expected.stats());
            log.fold(&mut lazy, barrier, Fold::Read);
            prop_assert_eq!(lazy.router.stats(), expected.stats());
            prop_assert_eq!(digest(&lazy.router), digest(&expected));
            prop_assert_eq!(lazy.inbox.len(), arrivals.len() - due.len());
        }
    }
}
