//! The location table (LocT, EN 302 636-4-1 §8.1).
//!
//! Every node stores the position vectors advertised by its neighbours,
//! keyed by GeoNetworking address, with a per-entry time-to-live (default
//! 20 s). Greedy forwarding ranks the live entries by distance to the
//! destination.
//!
//! The paper's second GF vulnerability lives here: entries are updated
//! from any authenticated beacon **without a distance-plausibility
//! check**, so a beacon replayed by a roadside attacker plants an
//! unreachable "neighbour" whose authentic position may be closer to the
//! destination than any real neighbour.
//!
//! The table is a hash map on the packed address, so an accepted beacon
//! costs one probe, and it makes **no promise about iteration order**.
//! Callers that need an order impose it: greedy forwarding breaks
//! exact-distance ties to the smaller address explicitly, and
//! [`LocationTable::digest_into`] sorts.
//!
//! # Layout
//!
//! Accepted beacons write into thousands of these tables, so the stored
//! value is kept to 24 bytes and a `(key, value)` bucket to 32, two per
//! cache line. The address is not stored twice: it is the key. The
//! planar position is not stored at all: the table keeps the node's
//! [`GeoReference`] and derives it on read with
//! [`GeoReference::to_plane`], a pure function of the stored wire
//! coordinate, so the derived value is bit-identical to projecting at
//! insertion time. The position-accuracy indicator rides in the top bit
//! of the stored expiry. Reads therefore return [`LocTEntry`] by value.

use crate::pv::LongPositionVector;
use crate::types::{GnAddress, Timestamp};
use geonet_geo::{GeoCoord, GeoReference, Position};
use geonet_sim::{SimDuration, SimTime, StateHasher, U64Map};
use std::fmt;

/// One location-table entry: the neighbour's last position vector, its
/// projected planar position, and when the entry expires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocTEntry {
    /// The advertised position vector.
    pub pv: LongPositionVector,
    /// The advertised position projected onto the simulation plane.
    pub position: Position,
    /// When the entry stops being valid (insertion time + TTL).
    pub expires: SimTime,
}

/// The top bit of [`Stored::expires_pai`]: the position-accuracy indicator.
const PAI_BIT: u64 = 1 << 63;

/// What the table stores per address: the position vector without its
/// address (the key) and the expiry, with PAI packed into the expiry's top
/// bit. Every field of a [`LongPositionVector`] survives the round trip.
#[derive(Debug, Clone, Copy)]
struct Stored {
    /// Expiry in µs since the epoch, OR-ed with [`PAI_BIT`] when PAI is set.
    expires_pai: u64,
    lat: i32,
    lon: i32,
    timestamp: u32,
    speed_cm_s: i16,
    heading_decideg: u16,
}

impl Stored {
    fn pack(pv: LongPositionVector, expires: SimTime) -> Self {
        let us = expires.as_micros();
        assert!(us & PAI_BIT == 0, "LocT expiry {us} µs collides with the packed PAI bit");
        Stored {
            expires_pai: us | if pv.pai { PAI_BIT } else { 0 },
            lat: pv.coord.lat,
            lon: pv.coord.lon,
            timestamp: pv.timestamp.0,
            speed_cm_s: pv.speed_cm_s,
            heading_decideg: pv.heading_decideg,
        }
    }

    fn expires(&self) -> SimTime {
        SimTime::from_micros(self.expires_pai & !PAI_BIT)
    }

    fn is_live(&self, now: SimTime) -> bool {
        self.expires() > now
    }

    fn unpack(&self, addr: GnAddress, reference: &GeoReference) -> LocTEntry {
        let coord = GeoCoord { lat: self.lat, lon: self.lon };
        LocTEntry {
            pv: LongPositionVector {
                addr,
                timestamp: Timestamp(self.timestamp),
                coord,
                pai: self.expires_pai & PAI_BIT != 0,
                speed_cm_s: self.speed_cm_s,
                heading_decideg: self.heading_decideg,
            },
            position: reference.to_plane(coord),
            expires: self.expires(),
        }
    }
}

/// The location table of one node, keyed by the packed address
/// ([`GnAddress::to_u64`]). Iteration order is unspecified and positions
/// are derived on read (see the module docs).
///
/// # Example
///
/// ```
/// use geonet::loct::LocationTable;
/// use geonet_geo::GeoReference;
/// use geonet_sim::{SimDuration, SimTime};
///
/// let mut loct = LocationTable::new(SimDuration::from_secs(20), GeoReference::default());
/// assert_eq!(loct.live_count(SimTime::ZERO), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LocationTable {
    ttl: SimDuration,
    reference: GeoReference,
    entries: U64Map<Stored>,
}

impl LocationTable {
    /// Creates an empty table whose entries live for `ttl` (paper default:
    /// 20 s; swept down to 10 s and 5 s in Figure 7c) and whose positions
    /// are projected with `reference`, the owning node's frame.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    #[must_use]
    pub fn new(ttl: SimDuration, reference: GeoReference) -> Self {
        assert!(ttl > SimDuration::ZERO, "LocT TTL must be positive");
        LocationTable { ttl, reference, entries: U64Map::default() }
    }

    /// The configured TTL.
    #[must_use]
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Inserts or refreshes the entry for `pv.addr` at time `now`.
    ///
    /// Mirrors the standard: if the address is present the position vector
    /// is replaced, otherwise a new entry is created; either way the
    /// expiry is pushed out to `now + TTL`. No plausibility check is
    /// performed — see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `now + TTL` reaches 2⁶³ µs (about 292,000 years), where
    /// the packed PAI bit lives.
    pub fn update(&mut self, pv: LongPositionVector, now: SimTime) {
        self.entries.insert(pv.addr.to_u64(), Stored::pack(pv, now + self.ttl));
    }

    /// The live (unexpired) entry for `addr`, if any.
    #[must_use]
    pub fn get(&self, addr: GnAddress, now: SimTime) -> Option<LocTEntry> {
        self.entries
            .get(&addr.to_u64())
            .filter(|s| s.is_live(now))
            .map(|s| s.unpack(addr, &self.reference))
    }

    /// Iterates over the live entries, in unspecified order.
    pub fn live_entries(&self, now: SimTime) -> impl Iterator<Item = (GnAddress, LocTEntry)> + '_ {
        self.entries.iter().filter(move |(_, s)| s.is_live(now)).map(|(&key, s)| {
            let addr = GnAddress::from_u64(key);
            (addr, s.unpack(addr, &self.reference))
        })
    }

    /// Number of live entries.
    #[must_use]
    pub fn live_count(&self, now: SimTime) -> usize {
        self.entries.values().filter(|s| s.is_live(now)).count()
    }

    /// Drops expired entries (housekeeping; correctness never depends on
    /// calling this, since all reads filter by expiry).
    pub fn purge(&mut self, now: SimTime) {
        self.entries.retain(|_, s| s.is_live(now));
    }

    /// Removes the entry for `addr` regardless of expiry.
    pub fn remove(&mut self, addr: GnAddress) {
        self.entries.remove(&addr.to_u64());
    }

    /// Total number of stored entries including expired ones awaiting
    /// purge.
    #[must_use]
    pub fn stored_count(&self) -> usize {
        self.entries.len()
    }

    /// Folds the table's canonical state — TTL, then every stored entry's
    /// address, position vector, projected position and expiry, in address
    /// order — into an audit digest.
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_u64(self.ttl.as_micros());
        h.write_u64(self.entries.len() as u64);
        let mut entries: Vec<(&u64, &Stored)> = self.entries.iter().collect();
        entries.sort_unstable_by_key(|&(&key, _)| key);
        for (&key, s) in entries {
            let e = s.unpack(GnAddress::from_u64(key), &self.reference);
            h.write_u64(key);
            h.write_u64(u64::from(e.pv.timestamp.0));
            h.write_u64(e.pv.coord.lat as u64);
            h.write_u64(e.pv.coord.lon as u64);
            h.write_bool(e.pv.pai);
            h.write_u64(e.pv.speed_cm_s as u64);
            h.write_u64(u64::from(e.pv.heading_decideg));
            h.write_f64(e.position.x);
            h.write_f64(e.position.y);
            h.write_u64(e.expires.as_micros());
        }
    }
}

impl fmt::Display for LocationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocT[{} entries, ttl {}]", self.entries.len(), self.ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_geo::Heading;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn table(ttl: SimDuration) -> LocationTable {
        LocationTable::new(ttl, GeoReference::default())
    }

    fn pv_at(addr: u64, x: f64, now: SimTime) -> LongPositionVector {
        LongPositionVector::from_sim(
            GnAddress::vehicle(addr),
            now,
            Position::new(x, 2.5),
            30.0,
            Heading::EAST,
            &GeoReference::default(),
        )
    }

    #[test]
    fn update_and_get() {
        let mut t = table(SimDuration::from_secs(20));
        let now = SimTime::from_secs(1);
        let pv = pv_at(1, 100.0, now);
        t.update(pv, now);
        let e = t.get(GnAddress::vehicle(1), now).unwrap();
        assert_eq!(e.pv, pv);
        assert_eq!(e.position, pv.position(&GeoReference::default()));
        assert_eq!(e.expires, now + SimDuration::from_secs(20));
    }

    #[test]
    fn stored_values_stay_small() {
        // Two (key, value) buckets per 64-byte cache line: the beacon
        // plane writes into thousands of these tables.
        assert_eq!(std::mem::size_of::<Stored>(), 24);
        assert_eq!(std::mem::size_of::<(u64, Stored)>(), 32);
    }

    #[test]
    fn entries_expire_at_ttl() {
        let mut t = table(SimDuration::from_secs(20));
        t.update(pv_at(1, 100.0, SimTime::ZERO), SimTime::ZERO);
        assert!(t.get(GnAddress::vehicle(1), SimTime::from_secs(19)).is_some());
        // Expiry boundary: exactly at TTL the entry is gone.
        assert!(t.get(GnAddress::vehicle(1), SimTime::from_secs(20)).is_none());
        assert_eq!(t.live_count(SimTime::from_secs(20)), 0);
        assert_eq!(t.stored_count(), 1, "not yet purged");
        t.purge(SimTime::from_secs(20));
        assert_eq!(t.stored_count(), 0);
    }

    #[test]
    fn refresh_extends_expiry() {
        let mut t = table(SimDuration::from_secs(5));
        t.update(pv_at(1, 100.0, SimTime::ZERO), SimTime::ZERO);
        let pv2 = pv_at(1, 200.0, SimTime::from_secs(3));
        t.update(pv2, SimTime::from_secs(3));
        let e = t.get(GnAddress::vehicle(1), SimTime::from_secs(7)).unwrap();
        assert_eq!(e.position, pv2.position(&GeoReference::default()), "newer PV replaces older");
        assert_eq!(e.expires, SimTime::from_secs(8));
    }

    #[test]
    fn live_entries_yield_each_live_address_once() {
        let mut t = table(SimDuration::from_secs(20));
        let now = SimTime::ZERO;
        for addr in [5u64, 1, 3] {
            t.update(pv_at(addr, addr as f64 * 10.0, now), now);
        }
        let mut addrs: Vec<u64> = t.live_entries(now).map(|(a, _)| a.mid()).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![1, 3, 5]);
    }

    #[test]
    fn digest_is_independent_of_insertion_order() {
        let now = SimTime::ZERO;
        let digest = |order: &[u64]| {
            let mut t = table(SimDuration::from_secs(20));
            for &addr in order {
                t.update(pv_at(addr, addr as f64 * 10.0, now), now);
            }
            let mut h = StateHasher::new();
            t.digest_into(&mut h);
            h.finish()
        };
        let order: Vec<u64> = (1..200).collect();
        let reversed: Vec<u64> = order.iter().rev().copied().collect();
        assert_eq!(digest(&order), digest(&reversed));
        assert_ne!(digest(&order), digest(&order[1..]));
    }

    #[test]
    fn remove_drops_entry() {
        let mut t = table(SimDuration::from_secs(20));
        t.update(pv_at(1, 0.0, SimTime::ZERO), SimTime::ZERO);
        t.remove(GnAddress::vehicle(1));
        assert!(t.get(GnAddress::vehicle(1), SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        let _ = table(SimDuration::ZERO);
    }

    #[test]
    fn display_shows_count() {
        let t = table(SimDuration::from_secs(20));
        assert!(t.to_string().contains("0 entries"));
    }

    /// The table before the packed layout: whole entries, positions
    /// projected at insertion, in address order.
    struct Model {
        ttl: SimDuration,
        reference: GeoReference,
        entries: BTreeMap<u64, LocTEntry>,
    }

    impl Model {
        fn update(&mut self, pv: LongPositionVector, now: SimTime) {
            let position = pv.position(&self.reference);
            self.entries
                .insert(pv.addr.to_u64(), LocTEntry { pv, position, expires: now + self.ttl });
        }

        fn live(&self, now: SimTime) -> Vec<(GnAddress, LocTEntry)> {
            self.entries.values().filter(|e| e.expires > now).map(|e| (e.pv.addr, *e)).collect()
        }

        /// The digest algorithm of the unpacked table, verbatim.
        fn digest(&self) -> u64 {
            let mut h = StateHasher::new();
            h.write_u64(self.ttl.as_micros());
            h.write_u64(self.entries.len() as u64);
            for (&addr, e) in &self.entries {
                h.write_u64(addr);
                h.write_u64(u64::from(e.pv.timestamp.0));
                h.write_u64(e.pv.coord.lat as u64);
                h.write_u64(e.pv.coord.lon as u64);
                h.write_bool(e.pv.pai);
                h.write_u64(e.pv.speed_cm_s as u64);
                h.write_u64(u64::from(e.pv.heading_decideg));
                h.write_f64(e.position.x);
                h.write_f64(e.position.y);
                h.write_u64(e.expires.as_micros());
            }
            h.finish()
        }
    }

    /// Addresses at both ends of the 48-bit identifier, both station types.
    const ADDRS: [GnAddress; 6] = [
        GnAddress::vehicle(0),
        GnAddress::vehicle(42),
        GnAddress::vehicle((1 << 48) - 1),
        GnAddress::roadside(0),
        GnAddress::roadside(7),
        GnAddress::roadside((1 << 48) - 1),
    ];

    #[derive(Debug, Clone)]
    enum Op {
        Update(LongPositionVector, SimTime),
        Get(GnAddress, SimTime),
        Live(SimTime),
        Remove(GnAddress),
        Purge(SimTime),
        Digest,
    }

    fn extreme_i32() -> impl Strategy<Value = i32> {
        prop_oneof![Just(i32::MIN), Just(i32::MAX), Just(0), -1_000i32..1_000, any::<i32>()]
    }

    fn any_pv() -> impl Strategy<Value = LongPositionVector> {
        (
            (
                prop::sample::select(ADDRS.to_vec()),
                prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            ),
            (extreme_i32(), extreme_i32()),
            (any::<bool>(), any::<i16>(), any::<u16>()),
        )
            .prop_map(|((addr, ts), (lat, lon), (pai, speed_cm_s, heading_decideg))| {
                LongPositionVector {
                    addr,
                    timestamp: Timestamp(ts),
                    coord: GeoCoord { lat, lon },
                    pai,
                    speed_cm_s,
                    heading_decideg,
                }
            })
    }

    /// Mostly near the epoch, where entries expire while the test runs,
    /// and some from 2⁶² on, where the expiry's top bits are in use right
    /// below the packed one.
    fn any_time() -> impl Strategy<Value = SimTime> {
        prop_oneof![0u64..30_000_000, 0u64..30_000_000, (1u64 << 62)..(1u64 << 62) + 30_000_000]
            .prop_map(SimTime::from_micros)
    }

    /// Updates are the most frequent operation, as in a running world.
    fn any_op() -> impl Strategy<Value = Op> {
        let addr = || prop::sample::select(ADDRS.to_vec());
        let update = || (any_pv(), any_time()).prop_map(|(pv, t)| Op::Update(pv, t));
        prop_oneof![
            update(),
            update(),
            update(),
            (addr(), any_time()).prop_map(|(a, t)| Op::Get(a, t)),
            any_time().prop_map(Op::Live),
            addr().prop_map(Op::Remove),
            any_time().prop_map(Op::Purge),
            Just(Op::Digest),
        ]
    }

    proptest! {
        #[test]
        fn prop_packed_table_matches_the_unpacked_model(
            ops in prop::collection::vec(any_op(), 1..80),
            ttl_us in prop_oneof![Just(1u64), 1u64..20_000_000],
            sydney in any::<bool>(),
        ) {
            let reference = if sydney {
                GeoReference::new(-33.9, 151.2)
            } else {
                GeoReference::default()
            };
            let ttl = SimDuration::from_micros(ttl_us);
            let mut t = LocationTable::new(ttl, reference);
            let mut m = Model { ttl, reference, entries: BTreeMap::new() };
            for op in ops {
                match op {
                    Op::Update(pv, now) => {
                        t.update(pv, now);
                        m.update(pv, now);
                    }
                    Op::Get(addr, now) => {
                        let want = m.entries.get(&addr.to_u64()).filter(|e| e.expires > now);
                        prop_assert_eq!(t.get(addr, now), want.copied());
                        prop_assert_eq!(t.stored_count(), m.entries.len());
                    }
                    Op::Live(now) => {
                        let mut got: Vec<(GnAddress, LocTEntry)> = t.live_entries(now).collect();
                        got.sort_unstable_by_key(|(a, _)| a.to_u64());
                        let want = m.live(now);
                        prop_assert_eq!(t.live_count(now), want.len());
                        prop_assert_eq!(got, want);
                    }
                    Op::Remove(addr) => {
                        t.remove(addr);
                        m.entries.remove(&addr.to_u64());
                    }
                    Op::Purge(now) => {
                        t.purge(now);
                        m.entries.retain(|_, e| e.expires > now);
                    }
                    Op::Digest => {
                        let mut h = StateHasher::new();
                        t.digest_into(&mut h);
                        prop_assert_eq!(h.finish(), m.digest());
                    }
                }
                prop_assert_eq!(t.stored_count(), m.entries.len());
            }
            let mut h = StateHasher::new();
            t.digest_into(&mut h);
            prop_assert_eq!(h.finish(), m.digest());
        }

        #[test]
        fn prop_never_returns_expired(updates in prop::collection::vec((0u64..20, 0u64..100), 1..50),
                                      query in 0u64..150) {
            // TTL invariant: get/live_entries never yield an entry older
            // than TTL, regardless of the update pattern.
            let ttl = SimDuration::from_secs(10);
            let mut t = table(ttl);
            let mut sorted = updates.clone();
            sorted.sort_by_key(|&(_, s)| s);
            let mut last_update: BTreeMap<u64, u64> = Default::default();
            for (addr, secs) in &sorted {
                let now = SimTime::from_secs(*secs);
                t.update(pv_at(*addr, *secs as f64, now), now);
                last_update.insert(*addr, *secs);
            }
            let q = SimTime::from_secs(query);
            for (addr, entry) in t.live_entries(q) {
                prop_assert!(entry.expires > q);
                let upd = last_update[&addr.mid()];
                prop_assert!(query < upd + 10, "entry {addr} older than TTL");
            }
        }
    }
}
