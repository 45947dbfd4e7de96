//! GeoNetworking primitive types (EN 302 636-4-1 §6 and §8).

use std::fmt;

/// The type of ITS station, carried in the GeoNetworking address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StationType {
    /// A passenger car or truck.
    Vehicle,
    /// A fixed roadside unit (the paper's R1).
    RoadsideUnit,
}

impl StationType {
    fn code(self) -> u8 {
        match self {
            StationType::Vehicle => 0,
            StationType::RoadsideUnit => 1,
        }
    }

    fn from_code(code: u8) -> Self {
        if code == 1 {
            StationType::RoadsideUnit
        } else {
            StationType::Vehicle
        }
    }
}

impl fmt::Display for StationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StationType::Vehicle => f.write_str("vehicle"),
            StationType::RoadsideUnit => f.write_str("RSU"),
        }
    }
}

/// A GeoNetworking address: station type plus a 48-bit link-layer
/// identifier (EN 302 636-4-1 §6.3, simplified: the country-code field is
/// folded into the identifier).
///
/// Vehicles may use pseudonymous identifiers for privacy; the address is
/// still what the location table is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GnAddress {
    station_type: StationType,
    mid: u64,
}

impl GnAddress {
    /// Creates an address from a station type and a 48-bit identifier.
    ///
    /// # Panics
    ///
    /// Panics if `mid` does not fit in 48 bits.
    #[must_use]
    pub const fn new(station_type: StationType, mid: u64) -> Self {
        assert!(mid < (1 << 48), "link-layer id must fit in 48 bits");
        GnAddress { station_type, mid }
    }

    /// A vehicle address with the given identifier.
    #[must_use]
    pub const fn vehicle(mid: u64) -> Self {
        GnAddress::new(StationType::Vehicle, mid)
    }

    /// A roadside-unit address with the given identifier.
    #[must_use]
    pub const fn roadside(mid: u64) -> Self {
        GnAddress::new(StationType::RoadsideUnit, mid)
    }

    /// The station type.
    #[must_use]
    pub fn station_type(self) -> StationType {
        self.station_type
    }

    /// The 48-bit link-layer identifier.
    #[must_use]
    pub fn mid(self) -> u64 {
        self.mid
    }

    /// Packs the address into its 8-byte wire form.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        (u64::from(self.station_type.code()) << 48) | self.mid
    }

    /// Unpacks an address from its 8-byte wire form.
    #[must_use]
    pub fn from_u64(raw: u64) -> Self {
        GnAddress {
            station_type: StationType::from_code(((raw >> 48) & 0xFF) as u8),
            mid: raw & 0xFFFF_FFFF_FFFF,
        }
    }
}

impl fmt::Display for GnAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:012x}", self.station_type, self.mid)
    }
}

/// A GeoNetworking timestamp: milliseconds modulo 2³², as carried in
/// position vectors (EN 302 636-4-1 §8.5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u32);

impl Timestamp {
    /// Builds a wire timestamp from simulation time.
    #[must_use]
    pub fn from_sim(t: geonet_sim::SimTime) -> Self {
        Timestamp((t.as_millis() & 0xFFFF_FFFF) as u32)
    }

    /// The raw millisecond value.
    #[must_use]
    pub fn millis(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A GeoBroadcast sequence number (16 bits, wrapping). Together with the
/// source address it identifies a packet for duplicate detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SequenceNumber(pub u16);

impl SequenceNumber {
    /// The next sequence number, wrapping at 2¹⁶.
    #[must_use]
    pub fn next(self) -> SequenceNumber {
        SequenceNumber(self.0.wrapping_add(1))
    }
}

impl fmt::Display for SequenceNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_round_trip() {
        let a = GnAddress::vehicle(0xABCDEF012345);
        assert_eq!(GnAddress::from_u64(a.to_u64()), a);
        let r = GnAddress::roadside(7);
        assert_eq!(GnAddress::from_u64(r.to_u64()), r);
        assert_ne!(a.to_u64(), GnAddress::roadside(0xABCDEF012345).to_u64());
    }

    #[test]
    fn address_accessors() {
        let a = GnAddress::vehicle(42);
        assert_eq!(a.station_type(), StationType::Vehicle);
        assert_eq!(a.mid(), 42);
        assert_eq!(a.to_string(), "vehicle:00000000002a");
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn address_rejects_wide_mid() {
        let _ = GnAddress::vehicle(1 << 48);
    }

    #[test]
    fn timestamp_from_sim_wraps() {
        use geonet_sim::SimTime;
        assert_eq!(Timestamp::from_sim(SimTime::from_millis(1_234)).millis(), 1_234);
        let big = SimTime::from_millis((1u64 << 32) + 5);
        assert_eq!(Timestamp::from_sim(big).millis(), 5);
    }

    #[test]
    fn sequence_number_wraps() {
        assert_eq!(SequenceNumber(0).next(), SequenceNumber(1));
        assert_eq!(SequenceNumber(u16::MAX).next(), SequenceNumber(0));
    }

    #[test]
    fn displays() {
        assert_eq!(Timestamp(5).to_string(), "5ms");
        assert_eq!(SequenceNumber(9).to_string(), "sn9");
        assert_eq!(StationType::RoadsideUnit.to_string(), "RSU");
    }

    proptest! {
        #[test]
        fn prop_address_round_trip(mid in 0u64..(1u64 << 48), rsu in any::<bool>()) {
            let a = if rsu { GnAddress::roadside(mid) } else { GnAddress::vehicle(mid) };
            prop_assert_eq!(GnAddress::from_u64(a.to_u64()), a);
        }
    }
}
