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

use crate::pv::LongPositionVector;
use crate::types::GnAddress;
use geonet_geo::Position;
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

/// The location table of one node, keyed by the packed address
/// ([`GnAddress::to_u64`]). Iteration order is unspecified (see the module
/// docs).
///
/// # Example
///
/// ```
/// use geonet::loct::LocationTable;
/// use geonet_sim::{SimDuration, SimTime};
///
/// let mut loct = LocationTable::new(SimDuration::from_secs(20));
/// assert_eq!(loct.live_count(SimTime::ZERO), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LocationTable {
    ttl: SimDuration,
    entries: U64Map<LocTEntry>,
}

impl LocationTable {
    /// Creates an empty table whose entries live for `ttl` (paper default:
    /// 20 s; swept down to 10 s and 5 s in Figure 7c).
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    #[must_use]
    pub fn new(ttl: SimDuration) -> Self {
        assert!(ttl > SimDuration::ZERO, "LocT TTL must be positive");
        LocationTable { ttl, entries: U64Map::default() }
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
    pub fn update(&mut self, pv: LongPositionVector, position: Position, now: SimTime) {
        self.entries.insert(pv.addr.to_u64(), LocTEntry { pv, position, expires: now + self.ttl });
    }

    /// The live (unexpired) entry for `addr`, if any.
    #[must_use]
    pub fn get(&self, addr: GnAddress, now: SimTime) -> Option<&LocTEntry> {
        self.entries.get(&addr.to_u64()).filter(|e| e.expires > now)
    }

    /// Iterates over the live entries, in unspecified order.
    pub fn live_entries(&self, now: SimTime) -> impl Iterator<Item = (GnAddress, &LocTEntry)> {
        self.entries.values().filter(move |e| e.expires > now).map(|e| (e.pv.addr, e))
    }

    /// Number of live entries.
    #[must_use]
    pub fn live_count(&self, now: SimTime) -> usize {
        self.live_entries(now).count()
    }

    /// Drops expired entries (housekeeping; correctness never depends on
    /// calling this, since all reads filter by expiry).
    pub fn purge(&mut self, now: SimTime) {
        self.entries.retain(|_, e| e.expires > now);
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
        let mut entries: Vec<(&u64, &LocTEntry)> = self.entries.iter().collect();
        entries.sort_unstable_by_key(|&(&addr, _)| addr);
        for (&addr, e) in entries {
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
    use geonet_geo::{GeoReference, Heading};
    use proptest::prelude::*;

    fn pv_at(addr: u64, x: f64, now: SimTime) -> (LongPositionVector, Position) {
        let r = GeoReference::default();
        let pos = Position::new(x, 2.5);
        let pv = LongPositionVector::from_sim(
            GnAddress::vehicle(addr),
            now,
            pos,
            30.0,
            Heading::EAST,
            &r,
        );
        (pv, pos)
    }

    #[test]
    fn update_and_get() {
        let mut t = LocationTable::new(SimDuration::from_secs(20));
        let now = SimTime::from_secs(1);
        let (pv, pos) = pv_at(1, 100.0, now);
        t.update(pv, pos, now);
        let e = t.get(GnAddress::vehicle(1), now).unwrap();
        assert_eq!(e.position, pos);
        assert_eq!(e.expires, now + SimDuration::from_secs(20));
    }

    #[test]
    fn entries_expire_at_ttl() {
        let mut t = LocationTable::new(SimDuration::from_secs(20));
        let (pv, pos) = pv_at(1, 100.0, SimTime::ZERO);
        t.update(pv, pos, SimTime::ZERO);
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
        let mut t = LocationTable::new(SimDuration::from_secs(5));
        let (pv, pos) = pv_at(1, 100.0, SimTime::ZERO);
        t.update(pv, pos, SimTime::ZERO);
        let (pv2, pos2) = pv_at(1, 200.0, SimTime::from_secs(3));
        t.update(pv2, pos2, SimTime::from_secs(3));
        let e = t.get(GnAddress::vehicle(1), SimTime::from_secs(7)).unwrap();
        assert_eq!(e.position.x, 200.0, "newer PV replaces older");
        assert_eq!(e.expires, SimTime::from_secs(8));
    }

    #[test]
    fn live_entries_yield_each_live_address_once() {
        let mut t = LocationTable::new(SimDuration::from_secs(20));
        let now = SimTime::ZERO;
        for addr in [5u64, 1, 3] {
            let (pv, pos) = pv_at(addr, addr as f64 * 10.0, now);
            t.update(pv, pos, now);
        }
        let mut addrs: Vec<u64> = t.live_entries(now).map(|(a, _)| a.mid()).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![1, 3, 5]);
    }

    #[test]
    fn digest_is_independent_of_insertion_order() {
        let now = SimTime::ZERO;
        let digest = |order: &[u64]| {
            let mut t = LocationTable::new(SimDuration::from_secs(20));
            for &addr in order {
                let (pv, pos) = pv_at(addr, addr as f64 * 10.0, now);
                t.update(pv, pos, now);
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
        let mut t = LocationTable::new(SimDuration::from_secs(20));
        let (pv, pos) = pv_at(1, 0.0, SimTime::ZERO);
        t.update(pv, pos, SimTime::ZERO);
        t.remove(GnAddress::vehicle(1));
        assert!(t.get(GnAddress::vehicle(1), SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        let _ = LocationTable::new(SimDuration::ZERO);
    }

    #[test]
    fn display_shows_count() {
        let t = LocationTable::new(SimDuration::from_secs(20));
        assert!(t.to_string().contains("0 entries"));
    }

    proptest! {
        #[test]
        fn prop_never_returns_expired(updates in prop::collection::vec((0u64..20, 0u64..100), 1..50),
                                      query in 0u64..150) {
            // TTL invariant: get/live_entries never yield an entry older
            // than TTL, regardless of the update pattern.
            let ttl = SimDuration::from_secs(10);
            let mut t = LocationTable::new(ttl);
            let mut sorted = updates.clone();
            sorted.sort_by_key(|&(_, s)| s);
            let mut last_update: std::collections::BTreeMap<u64, u64> = Default::default();
            for (addr, secs) in &sorted {
                let now = SimTime::from_secs(*secs);
                let (pv, pos) = pv_at(*addr, *secs as f64, now);
                t.update(pv, pos, now);
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
