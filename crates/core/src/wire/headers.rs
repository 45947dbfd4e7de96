//! The basic and common headers.

use super::{ByteSink, WireError};

/// What follows the basic header (EN 302 636-4-1 table 15, simplified to
/// the unsecured/secured distinction the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextAfterBasic {
    /// A plain common header follows.
    CommonHeader,
    /// A secured packet (security envelope wrapping the common header).
    SecuredPacket,
}

impl NextAfterBasic {
    fn code(self) -> u8 {
        match self {
            NextAfterBasic::CommonHeader => 1,
            NextAfterBasic::SecuredPacket => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self, WireError> {
        match c {
            1 => Ok(NextAfterBasic::CommonHeader),
            2 => Ok(NextAfterBasic::SecuredPacket),
            other => Err(WireError::BadNextHeader(other)),
        }
    }
}

/// The basic header (4 bytes): version, next header, lifetime and the
/// **remaining hop limit** (RHL).
///
/// RHL is decremented by each forwarder and is therefore *outside* the
/// integrity envelope — the paper's third CBF vulnerability ("RHL is not
/// integrity protected") is a direct consequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BasicHeader {
    /// Protocol version; this implementation speaks version 1 (the 2020
    /// EN 302 636-4-1 release analysed by the paper).
    pub version: u8,
    /// What follows this header.
    pub next_header: NextAfterBasic,
    /// Packet lifetime in the standard's base-and-multiplier encoding
    /// (kept as the raw byte; the simulation does not expire packets by
    /// lifetime).
    pub lifetime: u8,
    /// Remaining hop limit: decremented per hop; the packet is not
    /// forwarded once it reaches zero.
    pub rhl: u8,
}

/// Wire size of the basic header.
pub(crate) const BASIC_LEN: usize = 4;

impl BasicHeader {
    /// The protocol version this stack implements.
    pub const VERSION: u8 = 1;

    /// Creates a version-1 basic header with the given RHL.
    #[must_use]
    pub fn new(next_header: NextAfterBasic, rhl: u8) -> Self {
        BasicHeader { version: Self::VERSION, next_header, lifetime: 0x4A, rhl }
    }

    /// Encodes into `out` (4 bytes).
    pub fn encode<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_u8((self.version << 4) | self.next_header.code());
        out.put_u8(0); // reserved
        out.put_u8(self.lifetime);
        out.put_u8(self.rhl);
    }

    /// Decodes from the front of `buf`, returning the header and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the buffer is short, the version is not 1
    /// or the next-header value is unknown.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        super::need(buf, 0, BASIC_LEN)?;
        let version = buf[0] >> 4;
        if version != Self::VERSION {
            return Err(WireError::BadVersion(version));
        }
        let next_header = NextAfterBasic::from_code(buf[0] & 0x0F)?;
        Ok((BasicHeader { version, next_header, lifetime: buf[2], rhl: buf[3] }, BASIC_LEN))
    }
}

/// The GeoNetworking packet kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderKind {
    /// A one-hop beacon advertising the source position vector.
    Beacon,
    /// GeoUnicast to a single destination position.
    GeoUnicast,
    /// GeoBroadcast into a circular destination area.
    GeoBroadcastCircle,
    /// GeoBroadcast into a rectangular destination area.
    GeoBroadcastRect,
    /// GeoBroadcast into an elliptical destination area.
    GeoBroadcastEllipse,
    /// Topologically-scoped broadcast: flood to all nodes within the hop
    /// limit, regardless of position.
    TopoBroadcast,
    /// Single-hop broadcast (used by CAM-style messaging).
    SingleHopBroadcast,
}

impl HeaderKind {
    /// `(header type, header subtype)` per EN 302 636-4-1 table 4.
    #[must_use]
    pub fn type_subtype(self) -> (u8, u8) {
        match self {
            HeaderKind::Beacon => (1, 0),
            HeaderKind::GeoUnicast => (2, 0),
            HeaderKind::GeoBroadcastCircle => (4, 0),
            HeaderKind::GeoBroadcastRect => (4, 1),
            HeaderKind::GeoBroadcastEllipse => (4, 2),
            HeaderKind::TopoBroadcast => (5, 0),
            HeaderKind::SingleHopBroadcast => (5, 1),
        }
    }

    fn from_type_subtype(ht: u8, hst: u8) -> Result<Self, WireError> {
        match (ht, hst) {
            (1, 0) => Ok(HeaderKind::Beacon),
            (2, 0) => Ok(HeaderKind::GeoUnicast),
            (4, 0) => Ok(HeaderKind::GeoBroadcastCircle),
            (4, 1) => Ok(HeaderKind::GeoBroadcastRect),
            (4, 2) => Ok(HeaderKind::GeoBroadcastEllipse),
            (5, 0) => Ok(HeaderKind::TopoBroadcast),
            (5, 1) => Ok(HeaderKind::SingleHopBroadcast),
            (t, s) => Err(WireError::BadHeaderType(t, s)),
        }
    }

    /// Whether this is any GeoBroadcast variant.
    #[must_use]
    pub fn is_geobroadcast(self) -> bool {
        matches!(
            self,
            HeaderKind::GeoBroadcastCircle
                | HeaderKind::GeoBroadcastRect
                | HeaderKind::GeoBroadcastEllipse
        )
    }
}

/// The common header (8 bytes): packet kind, traffic class, payload length
/// and maximum hop limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommonHeader {
    /// Packet kind (header type + subtype).
    pub kind: HeaderKind,
    /// Traffic class byte (DCC profile; carried verbatim).
    pub traffic_class: u8,
    /// Flags byte (bit 7: station is mobile).
    pub flags: u8,
    /// Length of the payload that follows the extended header.
    pub payload_length: u16,
    /// Maximum hop limit the packet was created with.
    pub max_hop_limit: u8,
}

/// Wire size of the common header.
pub(crate) const COMMON_LEN: usize = 8;

impl CommonHeader {
    /// Creates a common header for `kind` with the given payload length
    /// and maximum hop limit; mobile flag set (vehicles).
    #[must_use]
    pub fn new(kind: HeaderKind, payload_length: u16, max_hop_limit: u8) -> Self {
        CommonHeader { kind, traffic_class: 0, flags: 0x80, payload_length, max_hop_limit }
    }

    /// Encodes into `out` (8 bytes).
    pub fn encode<S: ByteSink + ?Sized>(&self, out: &mut S) {
        let (ht, hst) = self.kind.type_subtype();
        out.put_u8(0x10); // next header: "any" transport, reserved nibble
        out.put_u8((ht << 4) | hst);
        out.put_u8(self.traffic_class);
        out.put_u8(self.flags);
        out.put_u16(self.payload_length);
        out.put_u8(self.max_hop_limit);
        out.put_u8(0); // reserved
    }

    /// Decodes from the front of `buf`, returning the header and bytes
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the buffer is short or the header
    /// type/subtype is unknown.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        super::need(buf, 0, COMMON_LEN)?;
        let kind = HeaderKind::from_type_subtype(buf[1] >> 4, buf[1] & 0x0F)?;
        Ok((
            CommonHeader {
                kind,
                traffic_class: buf[2],
                flags: buf[3],
                payload_length: u16::from_be_bytes([buf[4], buf[5]]),
                max_hop_limit: buf[6],
            },
            COMMON_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_header_round_trip() {
        let h = BasicHeader::new(NextAfterBasic::SecuredPacket, 10);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), BASIC_LEN);
        let (back, used) = BasicHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, BASIC_LEN);
    }

    #[test]
    fn basic_header_rejects_bad_version() {
        let mut buf = Vec::new();
        BasicHeader::new(NextAfterBasic::CommonHeader, 5).encode(&mut buf);
        buf[0] = (3 << 4) | 1; // version 3
        assert_eq!(BasicHeader::decode(&buf), Err(WireError::BadVersion(3)));
    }

    #[test]
    fn basic_header_rejects_bad_next_header() {
        let mut buf = Vec::new();
        BasicHeader::new(NextAfterBasic::CommonHeader, 5).encode(&mut buf);
        buf[0] = (1 << 4) | 0xF;
        assert_eq!(BasicHeader::decode(&buf), Err(WireError::BadNextHeader(0xF)));
    }

    #[test]
    fn basic_header_truncated() {
        assert!(matches!(BasicHeader::decode(&[0x11, 0, 0]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn rhl_survives_round_trip_at_all_values() {
        for rhl in [0u8, 1, 3, 10, 255] {
            let h = BasicHeader::new(NextAfterBasic::SecuredPacket, rhl);
            let mut buf = Vec::new();
            h.encode(&mut buf);
            assert_eq!(BasicHeader::decode(&buf).unwrap().0.rhl, rhl);
        }
    }

    #[test]
    fn common_header_round_trip_all_kinds() {
        for kind in [
            HeaderKind::Beacon,
            HeaderKind::GeoUnicast,
            HeaderKind::GeoBroadcastCircle,
            HeaderKind::GeoBroadcastRect,
            HeaderKind::GeoBroadcastEllipse,
            HeaderKind::TopoBroadcast,
            HeaderKind::SingleHopBroadcast,
        ] {
            let h = CommonHeader::new(kind, 1_234, 10);
            let mut buf = Vec::new();
            h.encode(&mut buf);
            assert_eq!(buf.len(), COMMON_LEN);
            let (back, used) = CommonHeader::decode(&buf).unwrap();
            assert_eq!(back, h);
            assert_eq!(used, COMMON_LEN);
        }
    }

    #[test]
    fn common_header_rejects_unknown_kind() {
        let mut buf = Vec::new();
        CommonHeader::new(HeaderKind::Beacon, 0, 1).encode(&mut buf);
        buf[1] = (9 << 4) | 9;
        assert_eq!(CommonHeader::decode(&buf), Err(WireError::BadHeaderType(9, 9)));
    }

    #[test]
    fn header_kind_properties() {
        assert!(!HeaderKind::Beacon.is_geobroadcast());
        assert!(!HeaderKind::GeoUnicast.is_geobroadcast());
        assert!(!HeaderKind::TopoBroadcast.is_geobroadcast());
        assert!(!HeaderKind::SingleHopBroadcast.is_geobroadcast());
        assert!(HeaderKind::GeoBroadcastRect.is_geobroadcast());
        assert_eq!(HeaderKind::GeoBroadcastCircle.type_subtype(), (4, 0));
        assert_eq!(HeaderKind::GeoUnicast.type_subtype(), (2, 0));
        assert_eq!(HeaderKind::SingleHopBroadcast.type_subtype(), (5, 1));
    }
}
