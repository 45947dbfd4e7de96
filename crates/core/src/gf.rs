//! Greedy Forwarding (GF) next-hop selection (EN 302 636-4-1 annex E.2).
//!
//! A forwarder outside the destination area picks, among its location-table
//! neighbours, the one closest to the destination — provided that
//! neighbour makes *progress* (is strictly closer to the destination than
//! the forwarder itself). If no neighbour makes progress the standard
//! falls back to buffering or broadcasting; this implementation reports
//! [`GfDecision::NoProgress`] and the router broadcasts.
//!
//! The paper's plausibility-check mitigation is implemented here as an
//! optional filter: candidates whose *advertised* position lies farther
//! from the forwarder than a threshold (the expected communication range)
//! are skipped, defeating the replayed-beacon poisoning.
//!
//! The location table iterates in no particular order, so the selection
//! never depends on it: among neighbours at exactly the same distance the
//! smaller address wins, by an explicit comparison.

use crate::loct::LocationTable;
use crate::types::GnAddress;
use geonet_geo::Position;
use geonet_sim::SimTime;
use std::fmt;

/// The outcome of a greedy-forwarding next-hop selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GfDecision {
    /// Forward to this neighbour (link-layer unicast). The position is the
    /// neighbour's advertised position at decision time.
    NextHop {
        /// The selected neighbour.
        addr: GnAddress,
        /// Its advertised position (from the LocT).
        advertised: Position,
    },
    /// No live neighbour makes progress towards the destination; fall back
    /// to a topologically-scoped broadcast.
    NoProgress,
}

impl fmt::Display for GfDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfDecision::NextHop { addr, .. } => write!(f, "next-hop {addr}"),
            GfDecision::NoProgress => f.write_str("no progress"),
        }
    }
}

/// Selects the greedy next hop for a packet heading to `dest_center`.
///
/// * `own_addr` / `own_position` — the forwarder itself (excluded from the
///   candidates).
/// * `exclude` — the link-layer sender the packet just arrived from, if
///   any; forwarding straight back would loop.
/// * `plausibility_threshold` — when `Some(r)`, the paper's mitigation:
///   only neighbours whose advertised position is within `r` metres of
///   the forwarder are considered.
///
/// Ties (two neighbours at exactly the same distance) break towards the
/// smaller address, compared explicitly, so the result does not depend on
/// the location table's iteration order.
#[must_use]
pub fn greedy_select(
    loct: &LocationTable,
    own_addr: GnAddress,
    own_position: Position,
    dest_center: Position,
    exclude: Option<GnAddress>,
    plausibility_threshold: Option<f64>,
    now: SimTime,
) -> GfDecision {
    let exclude: &[GnAddress] = match &exclude {
        Some(a) => std::slice::from_ref(a),
        None => &[],
    };
    greedy_select_excluding(
        loct,
        own_addr,
        own_position,
        dest_center,
        exclude,
        plausibility_threshold,
        now,
    )
}

/// Like [`greedy_select`] with an arbitrary exclusion set — used by the
/// link-layer-acknowledgement extension, where every next hop that failed
/// to acknowledge is excluded from the retry.
#[must_use]
pub fn greedy_select_excluding(
    loct: &LocationTable,
    own_addr: GnAddress,
    own_position: Position,
    dest_center: Position,
    exclude: &[GnAddress],
    plausibility_threshold: Option<f64>,
    now: SimTime,
) -> GfDecision {
    let own_dist = own_position.distance(dest_center);
    let mut best: Option<(f64, GnAddress, Position)> = None;
    for (addr, entry) in loct.live_entries(now) {
        if addr == own_addr || exclude.contains(&addr) {
            continue;
        }
        if let Some(threshold) = plausibility_threshold {
            // Mitigation (paper §V-A): skip neighbours whose advertised
            // position is implausibly far to be reachable.
            if own_position.distance(entry.position) > threshold {
                continue;
            }
        }
        let d = entry.position.distance(dest_center);
        let better = match &best {
            None => true,
            Some((bd, ba, _)) => d < *bd || (d == *bd && addr < *ba),
        };
        if better {
            best = Some((d, addr, entry.position));
        }
    }
    match best {
        Some((d, addr, advertised)) if d < own_dist => GfDecision::NextHop { addr, advertised },
        _ => GfDecision::NoProgress,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pv::LongPositionVector;
    use geonet_geo::{GeoReference, Heading};
    use geonet_sim::SimDuration;
    use proptest::prelude::*;

    const NOW: SimTime = SimTime::from_secs(10);

    /// The position vector of a neighbour advertising `(x, 0)`.
    fn pv_at(addr: u64, x: f64) -> LongPositionVector {
        LongPositionVector::from_sim(
            GnAddress::vehicle(addr),
            NOW,
            Position::new(x, 0.0),
            30.0,
            Heading::EAST,
            &GeoReference::default(),
        )
    }

    fn table_with(neighbors: &[(u64, f64)]) -> LocationTable {
        let mut t = LocationTable::new(SimDuration::from_secs(20), GeoReference::default());
        for &(addr, x) in neighbors {
            t.update(pv_at(addr, x), NOW);
        }
        t
    }

    fn select(t: &LocationTable, own_x: f64, dest_x: f64, threshold: Option<f64>) -> GfDecision {
        greedy_select(
            t,
            GnAddress::vehicle(999),
            Position::new(own_x, 0.0),
            Position::new(dest_x, 0.0),
            None,
            threshold,
            NOW,
        )
    }

    #[test]
    fn picks_neighbor_closest_to_destination() {
        // The paper's Figure 2: V1 at 0 picks V3 (farther east) over V2.
        let t = table_with(&[(2, 200.0), (3, 400.0)]);
        match select(&t, 0.0, 4_020.0, None) {
            GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(3)),
            other => panic!("expected next hop, got {other}"),
        }
    }

    #[test]
    fn requires_progress() {
        // All neighbours are farther from the destination than we are.
        let t = table_with(&[(2, -100.0), (3, -200.0)]);
        assert_eq!(select(&t, 0.0, 4_020.0, None), GfDecision::NoProgress);
    }

    #[test]
    fn empty_table_means_no_progress() {
        let t = table_with(&[]);
        assert_eq!(select(&t, 0.0, 4_020.0, None), GfDecision::NoProgress);
    }

    #[test]
    fn expired_entries_ignored() {
        let t = table_with(&[(2, 500.0)]);
        let later = NOW + SimDuration::from_secs(25); // past 20 s TTL
        let d = greedy_select(
            &t,
            GnAddress::vehicle(999),
            Position::ORIGIN,
            Position::new(4_020.0, 0.0),
            None,
            None,
            later,
        );
        assert_eq!(d, GfDecision::NoProgress);
    }

    #[test]
    fn excludes_previous_hop() {
        let t = table_with(&[(2, 300.0), (3, 250.0)]);
        let d = greedy_select(
            &t,
            GnAddress::vehicle(999),
            Position::ORIGIN,
            Position::new(4_020.0, 0.0),
            Some(GnAddress::vehicle(2)),
            None,
            NOW,
        );
        match d {
            GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(3)),
            other => panic!("expected v3, got {other}"),
        }
    }

    #[test]
    fn excludes_self_entry() {
        // A node may see its own address in the table (e.g. from a replayed
        // beacon); it must never pick itself.
        let mut t = table_with(&[]);
        let own = GnAddress::vehicle(999);
        t.update(pv_at(999, 1_000.0), NOW);
        let d =
            greedy_select(&t, own, Position::ORIGIN, Position::new(4_020.0, 0.0), None, None, NOW);
        assert_eq!(d, GfDecision::NoProgress);
    }

    #[test]
    fn plausibility_check_filters_implausible_neighbors() {
        // The attack scenario: a replayed beacon advertises a node 700 m
        // away while the radio range is 486 m. Without the check it wins;
        // with the check the real 300 m neighbour wins.
        let t = table_with(&[(2, 300.0), (3, 700.0)]);
        match select(&t, 0.0, 4_020.0, None) {
            GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(3)),
            other => panic!("unmitigated GF should pick the poisoned entry, got {other}"),
        }
        match select(&t, 0.0, 4_020.0, Some(486.0)) {
            GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(2)),
            other => panic!("mitigated GF should pick the real neighbour, got {other}"),
        }
    }

    #[test]
    fn plausibility_check_can_empty_the_candidate_set() {
        let t = table_with(&[(2, 700.0)]);
        assert_eq!(select(&t, 0.0, 4_020.0, Some(486.0)), GfDecision::NoProgress);
    }

    #[test]
    fn tie_breaks_to_lower_address() {
        let t = table_with(&[(5, 300.0), (2, 300.0)]);
        match select(&t, 0.0, 4_020.0, None) {
            GfDecision::NextHop { addr, .. } => assert_eq!(addr, GnAddress::vehicle(2)),
            other => panic!("expected v2, got {other}"),
        }
    }

    #[test]
    fn equal_distance_tie_breaks_to_smaller_address_in_any_insertion_order() {
        // `hi` and `lo` advertise 500 m and 300 m and are inserted in
        // descending address order; the third neighbour at 200 m is
        // farther from the destination. The destination is the midpoint
        // of the two *derived* (quantised, re-projected) positions, so the
        // two distances tie exactly, not just to the centimetre.
        let r = GeoReference::default();
        let (p_hi, p_lo) = (pv_at(0, 500.0).position(&r), pv_at(0, 300.0).position(&r));
        assert_eq!(p_hi.y, p_lo.y);
        let dest = Position::new((p_hi.x + p_lo.x) / 2.0, p_hi.y);
        assert_eq!(p_hi.distance(dest), p_lo.distance(dest), "not an exact tie");
        for (hi, lo, third) in [(7, 3, 5), (0x1000_0042, 0x1000_0041, 0x1000_0001), (900, 2, 450)] {
            let t = table_with(&[(hi, 500.0), (lo, 300.0), (third, 200.0)]);
            let pick = |exclude: &[GnAddress]| match greedy_select_excluding(
                &t,
                GnAddress::vehicle(999),
                Position::ORIGIN,
                dest,
                exclude,
                None,
                NOW,
            ) {
                GfDecision::NextHop { addr, .. } => addr.mid(),
                other => panic!("expected a next hop, got {other}"),
            };
            assert_eq!(pick(&[]), lo);
            assert_eq!(pick(&[GnAddress::vehicle(third)]), lo);
            assert_eq!(pick(&[GnAddress::vehicle(lo)]), hi);
        }
    }

    #[test]
    fn decision_display() {
        assert_eq!(GfDecision::NoProgress.to_string(), "no progress");
        let d = GfDecision::NextHop { addr: GnAddress::vehicle(1), advertised: Position::ORIGIN };
        assert!(d.to_string().contains("next-hop"));
    }

    proptest! {
        #[test]
        fn prop_selected_hop_always_makes_progress(
            neighbors in prop::collection::vec((1u64..100, -2_000.0f64..6_000.0), 0..30),
            own_x in 0.0f64..4_000.0,
            threshold in prop::option::of(100.0f64..2_000.0))
        {
            let t = table_with(&neighbors);
            let own = Position::new(own_x, 0.0);
            let dest = Position::new(4_020.0, 0.0);
            let d = greedy_select(
                &t, GnAddress::vehicle(999), own, dest, None, threshold, NOW);
            if let GfDecision::NextHop { advertised, .. } = d {
                // Progress invariant.
                prop_assert!(advertised.distance(dest) < own.distance(dest));
                // Plausibility invariant.
                if let Some(r) = threshold {
                    prop_assert!(own.distance(advertised) <= r);
                }
                // Optimality: no other (plausible) neighbour is closer.
                for (_, e) in t.live_entries(NOW) {
                    if threshold.is_none_or(|r| own.distance(e.position) <= r) {
                        prop_assert!(
                            advertised.distance(dest) <= e.position.distance(dest) + 1e-9);
                    }
                }
            }
        }
    }
}
