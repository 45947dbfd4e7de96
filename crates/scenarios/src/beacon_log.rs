//! The beacon log: how [`World`](crate::World) delivers beacons while no
//! per-delivery observer is attached.
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
//! event's `(time, sequence)` key — the *barrier* — in arrival order,
//! through [`GnRouter::apply_beacon`], which makes the same checks and
//! the same table update as [`GnRouter::receive`]. Entries past the
//! barrier are still on the air and stay in the inbox.
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
//! receiver's rank in id order, which is worked out on demand.

use geonet::{GnRouter, LongPositionVector};
use geonet_sim::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::VecDeque;

/// A point in the event order: `(time, kernel sequence number)`. A
/// delivery whose key is below the barrier has happened.
pub(crate) type Key = (SimTime, u64);

/// Record ids live in the low 28 bits of an [`Entry`].
const ID_BITS: u32 = 28;
const ID_MASK: u32 = (1 << ID_BITS) - 1;

/// The largest arrival offset an [`Entry`] holds, in µs: 4 bits, 4.5 km
/// of propagation. A sender whose range reaches further transmits eagerly.
pub(crate) const MAX_OFFSET_US: u64 = (1 << (32 - ID_BITS)) - 1;

/// Inbox length at which an inbox is folded on append, so that a router
/// nothing reads holds a bounded backlog.
const INBOX_CAP: usize = 256;

/// One logged beacon transmission: what its receivers' routers need to
/// apply it, and where its deliveries sit in the event order.
#[derive(Debug)]
struct Record {
    pv: LongPositionVector,
    /// The frame's signature verdict, shared by every receiver.
    authentic: bool,
    sent: SimTime,
    /// The kernel sequence number of receiver 0; receiver `i` holds
    /// `first_seq + i`.
    first_seq: u64,
}

/// Records per chunk of [`Records`].
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The records in fixed-size chunks: an append never moves the records
/// already held, so the log never holds two copies while it grows, and
/// retirement frees whole chunks. Only the last chunk is partly filled.
#[derive(Debug, Default)]
struct Records {
    chunks: VecDeque<Vec<Record>>,
}

impl Records {
    fn len(&self) -> usize {
        self.chunks.len().saturating_sub(1) * CHUNK + self.chunks.back().map_or(0, Vec::len)
    }

    /// Drops the record pushed last.
    fn pop(&mut self) {
        self.chunks.back_mut().and_then(Vec::pop).expect("a record to drop");
    }

    fn push(&mut self, r: Record) {
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(r),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(r);
                self.chunks.push_back(chunk);
            }
        }
    }

    fn get(&self, i: usize) -> &Record {
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    /// The send time of the last record of the oldest full chunk.
    fn oldest_chunk_end(&self) -> Option<SimTime> {
        self.chunks.front().filter(|_| self.chunks.len() > 1).and_then(|c| c.last()).map(|r| r.sent)
    }

    /// Drops the full chunks whose records were all sent before `t` and
    /// returns how many records went.
    fn retire_before(&mut self, t: SimTime) -> usize {
        let mut n = 0;
        while self.oldest_chunk_end().is_some_and(|end| end < t) {
            self.chunks.pop_front();
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
/// queue; the receiver of rank `i` in id order arrives under
/// `first_seq + i`.
#[derive(Debug)]
struct InFlight {
    sent: SimTime,
    first_seq: u64,
    receivers: usize,
    last: SimTime,
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
    /// Folds before a router's state was read: an eager delivery, a
    /// timer, an origination, [`World::router`],
    /// [`World::aggregate_stats`], a topology snapshot or a telemetry
    /// depth sample.
    ///
    /// [`World::router`]: crate::World::router
    /// [`World::aggregate_stats`]: crate::World::aggregate_stats
    pub folds_read: u64,
    /// Folds of an inbox that reached its length cap.
    pub folds_cap: u64,
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
#[derive(Debug, Default)]
pub(crate) struct BeaconLog {
    records: Records,
    /// The id of the first record held.
    base: u64,
    in_flight: VecDeque<InFlight>,
    /// The receivers of the in-flight transmissions, transmission after
    /// transmission, each in fan-out order: node id and arrival offset
    /// in µs. One queue rather than a buffer per transmission: buffers
    /// grown by doubling left holes in the heap that raised
    /// `interception`'s peak RSS by ~70 KB.
    receivers: Vec<(u32, u8)>,
    /// The record id of the transmission begun last, and where its
    /// receivers start in `receivers`.
    open: (u64, usize),
    stats: Cell<BeaconLogStats>,
}

impl BeaconLog {
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
        while self.in_flight.front().is_some_and(|f| f.last < barrier.0) {
            let done = self.in_flight.pop_front().expect("front exists");
            self.receivers.drain(..done.receivers);
        }
        let id = self.base + self.records.len() as u64;
        assert!(self.records.len() < ID_MASK as usize, "beacon log outgrew its record ids");
        self.records.push(Record { pv, authentic, sent, first_seq });
        self.open = (id, self.receivers.len());
        self.in_flight.push_back(InFlight { sent, first_seq, receivers: 0, last: sent });
    }

    /// Adds node `rx`, arriving `offset_us` after the send, to the
    /// transmission begun last: one inbox entry in `lazy`, which is folded
    /// up to `barrier` if that fills it. `scratch` is working space.
    pub(crate) fn append(
        &mut self,
        lazy: &mut LazyRouter,
        rx: u32,
        offset_us: u64,
        barrier: Key,
        scratch: &mut Vec<(SimTime, u32)>,
    ) {
        lazy.inbox.push(Entry::new(self.open.0, offset_us));
        self.receivers.push((rx, offset_us as u8));
        if lazy.inbox.len() >= INBOX_CAP {
            self.fold(lazy, barrier, Fold::Cap, scratch);
        }
    }

    /// Closes the transmission begun last and returns its receiver count.
    /// A transmission nobody appended to is dropped, record and all.
    pub(crate) fn finish(&mut self) -> u64 {
        let f = self.in_flight.back_mut().expect("a transmission begun");
        let received = &self.receivers[self.open.1..];
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

    fn record(&self, e: Entry) -> (usize, &Record) {
        let i = (e.0.wrapping_sub(self.base as u32) & ID_MASK) as usize;
        (i, self.records.get(i))
    }

    /// The arrival key order of an entry against a barrier: its arrival
    /// time, then its record's block of sequence numbers. No other event
    /// holds a number inside the block, so comparing with the block's
    /// first number orders the entry against any other event.
    fn arrival(&self, e: Entry) -> (usize, SimTime, u64) {
        let (i, r) = self.record(e);
        (i, r.sent + e.offset(), r.first_seq)
    }

    /// Whether `lazy` holds an entry that arrived before `barrier`.
    pub(crate) fn has_due(&self, lazy: &LazyRouter, barrier: Key) -> bool {
        lazy.inbox.iter().any(|&e| {
            let (_, at, seq) = self.arrival(e);
            (at, seq) < barrier
        })
    }

    /// Applies every entry of `lazy`'s inbox that arrived before
    /// `barrier` to its router, in (arrival, sequence) order, and removes
    /// them. Entries still on the air stay. `scratch` is working space.
    pub(crate) fn fold(
        &self,
        lazy: &mut LazyRouter,
        barrier: Key,
        trigger: Fold,
        scratch: &mut Vec<(SimTime, u32)>,
    ) {
        if lazy.inbox.is_empty() {
            return;
        }
        scratch.clear();
        lazy.inbox.retain(|&e| {
            let (i, at, seq) = self.arrival(e);
            let due = (at, seq) < barrier;
            if due {
                scratch.push((at, i as u32));
            }
            !due
        });
        if scratch.is_empty() {
            return;
        }
        // Record order is sequence order, so (arrival, index) is the
        // order the deliveries would have popped in. Only records sent
        // within a few µs of each other can cross, and those come from
        // different sources (a replay never arrives before its original),
        // so the sort is for exactness and rarely runs.
        if !scratch.is_sorted() {
            scratch.sort_unstable();
        }
        for &(at, i) in scratch.iter() {
            let r = self.records.get(i as usize);
            lazy.router.apply_beacon(&r.pv, r.authentic, at);
        }
        let mut s = self.stats.get();
        match trigger {
            Fold::Read => s.folds_read += 1,
            Fold::Cap => s.folds_cap += 1,
            Fold::Ttl => s.folds_ttl += 1,
            Fold::Exit => s.folds_exit += 1,
            Fold::Audit => s.folds_audit += 1,
        }
        self.stats.set(s);
    }

    /// Empties the inbox of a router that went off the air, after a fold
    /// up to `barrier`: the entries left arrive after it.
    pub(crate) fn close(
        &self,
        lazy: &mut LazyRouter,
        barrier: Key,
        scratch: &mut Vec<(SimTime, u32)>,
    ) {
        self.fold(lazy, barrier, Fold::Exit, scratch);
        let mut s = self.stats.get();
        s.exit_drops += lazy.inbox.len() as u64;
        self.stats.set(s);
        lazy.inbox = Vec::new();
    }

    /// The send time of an inbox entry's record.
    pub(crate) fn sent(&self, e: Entry) -> SimTime {
        self.record(e).1.sent
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

    /// The `(arrival, sequence)` keys of the logged deliveries at or past
    /// `barrier`: the ones still on the air.
    pub(crate) fn pending(&self, barrier: Key) -> impl Iterator<Item = Key> + '_ {
        self.keys().filter(move |&k| k >= barrier)
    }

    /// The `(arrival, sequence)` keys of the transmissions on the air. A
    /// receiver's rank is the number of lower ids among its
    /// transmission's receivers. Few transmissions are on the air at
    /// once, and only event counts, audit digests and the end of a run
    /// ask, so the ranks are worked out here rather than on every
    /// transmission.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        let mut from = 0;
        self.in_flight.iter().flat_map(move |f| {
            let receivers = &self.receivers[from..from + f.receivers];
            from += f.receivers;
            receivers.iter().map(move |&(rx, off)| {
                let rank = receivers.iter().filter(|&&(other, _)| other < rx).count();
                (f.sent + SimDuration::from_micros(u64::from(off)), f.first_seq + rank as u64)
            })
        })
    }

    /// Logged deliveries that have happened by `barrier`.
    pub(crate) fn delivered(&self, barrier: Key) -> u64 {
        self.stats.get().inbox_entries - self.pending(barrier).count() as u64
    }

    /// The latest arrival of a logged delivery before `barrier`, among
    /// those possibly later than the last popped event.
    pub(crate) fn latest_before(&self, barrier: Key) -> Option<SimTime> {
        self.keys().filter(|&k| k < barrier).map(|k| k.0).max()
    }

    /// Whether a logged delivery arrives in `(after, until]`.
    pub(crate) fn arrives_within(&self, after: SimTime, until: SimTime) -> bool {
        self.keys().any(|(at, _)| after < at && at <= until)
    }

    pub(crate) fn stats(&self) -> BeaconLogStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_and_records_stay_small() {
        // Inboxes hold an entry per receiver, the log a record per
        // transmission for up to a TTL.
        assert_eq!(std::mem::size_of::<Record>(), 64);
        assert_eq!(std::mem::size_of::<Entry>(), 4);
        let e = Entry::new((1 << ID_BITS) + 7, MAX_OFFSET_US);
        assert_eq!(e.0 & ID_MASK, 7, "ids wrap at 2^28");
        assert_eq!(e.offset(), SimDuration::from_micros(15));
    }

    #[test]
    fn in_flight_keys_follow_receiver_id_order() {
        // Listed in fan-out order; sequence numbers go by node id, in
        // each transmission's own block.
        let mut log = BeaconLog::default();
        for (first_seq, sent, n) in [(40, 100, 3), (90, 101, 2)] {
            let (sent, last) = (SimTime::from_micros(sent), SimTime::from_micros(sent + 2));
            log.in_flight.push_back(InFlight { sent, first_seq, receivers: n, last });
        }
        log.receivers.extend([(9, 2), (3, 1), (5, 2), (4, 1), (2, 2)]);
        let keys: Vec<(u64, u64)> = log.keys().map(|(t, s)| (t.as_micros(), s)).collect();
        assert_eq!(keys, [(102, 42), (101, 40), (102, 41), (102, 91), (103, 90)]);
    }

    #[test]
    fn a_transmission_nobody_hears_leaves_no_record() {
        let mut log = BeaconLog::default();
        let sent = SimTime::from_micros(10);
        let pv = LongPositionVector::from_sim(
            geonet::GnAddress::vehicle(1),
            sent,
            geonet_geo::Position::ORIGIN,
            0.0,
            geonet_geo::Heading::from_degrees(0.0),
            &geonet_geo::GeoReference::default(),
        );
        log.begin(pv, true, sent, 7, (sent, 7));
        assert_eq!(log.finish(), 0);
        assert_eq!(log.records.len(), 0);
        assert_eq!(log.stats(), BeaconLogStats::default());
        assert_eq!(log.keys().count(), 0);
    }
}
