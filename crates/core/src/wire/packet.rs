//! The extended headers and the assembled GeoNetworking packet.

use super::headers::{BASIC_LEN, COMMON_LEN};
use super::{BasicHeader, ByteSink, CommonHeader, HeaderKind, NextAfterBasic, WireError};
use crate::pv::LongPositionVector;
use crate::types::{GnAddress, SequenceNumber, Timestamp};
use geonet_geo::{Area, AreaShape, GeoCoord, GeoReference};

/// Wire size of a long position vector.
const LPV_LEN: usize = 24;

/// Encodes a long position vector (24 bytes).
fn encode_lpv<S: ByteSink + ?Sized>(pv: &LongPositionVector, out: &mut S) {
    out.put_u64(pv.addr.to_u64());
    out.put_u32(pv.timestamp.0);
    out.put_i32(pv.coord.lat);
    out.put_i32(pv.coord.lon);
    // PAI (1 bit) + speed (15-bit two's complement, 0.01 m/s).
    let speed15 = pv.speed_cm_s.clamp(-16_384, 16_383);
    let packed = (u16::from(pv.pai) << 15) | ((speed15 as u16) & 0x7FFF);
    out.put_u16(packed);
    out.put_u16(pv.heading_decideg);
}

/// Decodes a long position vector from `buf[offset..]`.
fn decode_lpv(buf: &[u8], offset: usize) -> Result<LongPositionVector, WireError> {
    super::need(buf, offset, LPV_LEN)?;
    let b = &buf[offset..];
    let addr = GnAddress::from_u64(u64::from_be_bytes(b[0..8].try_into().expect("8 bytes")));
    let timestamp = Timestamp(u32::from_be_bytes(b[8..12].try_into().expect("4 bytes")));
    let lat = i32::from_be_bytes(b[12..16].try_into().expect("4 bytes"));
    let lon = i32::from_be_bytes(b[16..20].try_into().expect("4 bytes"));
    let packed = u16::from_be_bytes(b[20..22].try_into().expect("2 bytes"));
    let pai = packed >> 15 == 1;
    // Sign-extend the 15-bit speed.
    let raw15 = packed & 0x7FFF;
    let speed_cm_s = if raw15 & 0x4000 != 0 { (raw15 | 0x8000) as i16 } else { raw15 as i16 };
    let heading_decideg = u16::from_be_bytes(b[22..24].try_into().expect("2 bytes"));
    Ok(LongPositionVector {
        addr,
        timestamp,
        coord: GeoCoord { lat, lon },
        pai,
        speed_cm_s,
        heading_decideg,
    })
}

/// A short position vector: identity, timestamp and position only
/// (EN 302 636-4-1 §9.5.2), 20 bytes. Carried as the destination position
/// of GeoUnicast packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShortPositionVector {
    /// The node's address.
    pub addr: GnAddress,
    /// Time the position was acquired (ms mod 2³²).
    pub timestamp: Timestamp,
    /// WGS-84 position in wire units.
    pub coord: GeoCoord,
}

/// Wire size of a short position vector.
const SPV_LEN: usize = 20;

impl ShortPositionVector {
    /// Shortens a long position vector (drops speed/heading/PAI).
    #[must_use]
    pub fn from_long(pv: &LongPositionVector) -> Self {
        ShortPositionVector { addr: pv.addr, timestamp: pv.timestamp, coord: pv.coord }
    }

    fn encode<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_u64(self.addr.to_u64());
        out.put_u32(self.timestamp.0);
        out.put_i32(self.coord.lat);
        out.put_i32(self.coord.lon);
    }

    fn decode(buf: &[u8], offset: usize) -> Result<Self, WireError> {
        super::need(buf, offset, SPV_LEN)?;
        let b = &buf[offset..];
        Ok(ShortPositionVector {
            addr: GnAddress::from_u64(u64::from_be_bytes(b[0..8].try_into().expect("8 bytes"))),
            timestamp: Timestamp(u32::from_be_bytes(b[8..12].try_into().expect("4 bytes"))),
            coord: GeoCoord {
                lat: i32::from_be_bytes(b[12..16].try_into().expect("4 bytes")),
                lon: i32::from_be_bytes(b[16..20].try_into().expect("4 bytes")),
            },
        })
    }
}

/// A destination area in wire form: centre coordinate, half-axes in whole
/// metres and azimuth in whole degrees. The shape lives in the common
/// header's subtype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireArea {
    /// Centre of the area.
    pub center: GeoCoord,
    /// Half-axis along the azimuth direction (radius for circles), metres.
    pub dist_a: u16,
    /// Half-axis across the azimuth direction, metres.
    pub dist_b: u16,
    /// Azimuth, degrees clockwise from north.
    pub angle_deg: u16,
}

/// Wire size of the area fields.
const AREA_LEN: usize = 14;

impl WireArea {
    /// Converts a planar [`Area`] into wire form. Half-axes are rounded up
    /// to whole metres so the wire area never undershoots the requested
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if a half-axis exceeds 65 535 m (not encodable).
    #[must_use]
    pub fn from_area(area: &Area, reference: &GeoReference) -> Self {
        let a = area.half_axis_a().ceil();
        let b = area.half_axis_b().ceil();
        assert!(a <= f64::from(u16::MAX) && b <= f64::from(u16::MAX), "area too large for wire");
        WireArea {
            center: reference.to_geo(area.center()),
            dist_a: a as u16,
            dist_b: b as u16,
            angle_deg: (area.azimuth_deg().round().rem_euclid(360.0)) as u16,
        }
    }

    /// Reconstructs the planar [`Area`] for a given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadFieldValue`] if a half-axis is zero.
    pub fn to_area(&self, shape: AreaShape, reference: &GeoReference) -> Result<Area, WireError> {
        if self.dist_a == 0 || (shape != AreaShape::Circle && self.dist_b == 0) {
            return Err(WireError::BadFieldValue("area half-axis"));
        }
        let center = reference.to_plane(self.center);
        let a = f64::from(self.dist_a);
        let b = f64::from(self.dist_b);
        let az = f64::from(self.angle_deg);
        Ok(match shape {
            AreaShape::Circle => Area::circle(center, a),
            AreaShape::Rectangle => Area::rectangle(center, a, b, az),
            AreaShape::Ellipse => Area::ellipse(center, a, b, az),
        })
    }

    fn encode<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_i32(self.center.lat);
        out.put_i32(self.center.lon);
        out.put_u16(self.dist_a);
        out.put_u16(self.dist_b);
        out.put_u16(self.angle_deg);
    }

    fn decode(buf: &[u8], offset: usize) -> Result<Self, WireError> {
        super::need(buf, offset, AREA_LEN)?;
        let b = &buf[offset..];
        Ok(WireArea {
            center: GeoCoord {
                lat: i32::from_be_bytes(b[0..4].try_into().expect("4 bytes")),
                lon: i32::from_be_bytes(b[4..8].try_into().expect("4 bytes")),
            },
            dist_a: u16::from_be_bytes(b[8..10].try_into().expect("2 bytes")),
            dist_b: u16::from_be_bytes(b[10..12].try_into().expect("2 bytes")),
            angle_deg: u16::from_be_bytes(b[12..14].try_into().expect("2 bytes")),
        })
    }
}

/// The GeoBroadcast extended header: sequence number, source position
/// vector and destination area (EN 302 636-4-1 §9.8.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbcHeader {
    /// Sequence number assigned by the source; `(source, sn)` identifies
    /// the packet for duplicate detection.
    pub sn: SequenceNumber,
    /// The source's long position vector.
    pub so_pv: LongPositionVector,
    /// The destination area.
    pub area: WireArea,
}

/// GBC extended header wire size: SN(2) + reserved(2) + LPV(24) + area(14)
/// + reserved(2).
const GBC_LEN: usize = 2 + 2 + LPV_LEN + AREA_LEN + 2;

/// Beacon extended header wire size: just the LPV.
const BEACON_LEN: usize = LPV_LEN;

/// The GeoUnicast extended header: sequence number, source position
/// vector and the destination's short position vector (§9.8.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GucHeader {
    /// Source-assigned sequence number.
    pub sn: SequenceNumber,
    /// The source's long position vector.
    pub so_pv: LongPositionVector,
    /// The destination's short position vector.
    pub de_pv: ShortPositionVector,
}

/// GUC extended header wire size: SN(2) + reserved(2) + LPV(24) + SPV(20).
const GUC_LEN: usize = 2 + 2 + LPV_LEN + SPV_LEN;

/// TSB extended header wire size: SN(2) + reserved(2) + LPV(24).
const TSB_LEN: usize = 2 + 2 + LPV_LEN;

/// SHB extended header wire size: LPV(24) + media-dependent reserved(4).
const SHB_LEN: usize = LPV_LEN + 4;

/// The extended header of a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Extended {
    /// A beacon: the source position vector only.
    Beacon {
        /// The advertising node's position vector.
        so_pv: LongPositionVector,
    },
    /// A GeoUnicast header.
    Guc(GucHeader),
    /// A GeoBroadcast header.
    Gbc(GbcHeader),
    /// A topologically-scoped broadcast: sequence number and source PV.
    Tsb {
        /// Source-assigned sequence number.
        sn: SequenceNumber,
        /// The source's position vector.
        so_pv: LongPositionVector,
    },
    /// A single-hop broadcast: source PV plus a media-dependent word.
    Shb {
        /// The source's position vector.
        so_pv: LongPositionVector,
    },
}

impl Extended {
    /// The source position vector carried by any extended header.
    #[must_use]
    pub fn so_pv(&self) -> &LongPositionVector {
        match self {
            Extended::Beacon { so_pv } | Extended::Tsb { so_pv, .. } | Extended::Shb { so_pv } => {
                so_pv
            }
            Extended::Guc(g) => &g.so_pv,
            Extended::Gbc(g) => &g.so_pv,
        }
    }
}

/// A complete GeoNetworking packet: basic + common + extended header and
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct GnPacket {
    /// Basic header (holds the mutable RHL).
    pub basic: BasicHeader,
    /// Common header.
    pub common: CommonHeader,
    /// Extended header.
    pub extended: Extended,
    /// Application payload (empty for beacons).
    pub payload: Vec<u8>,
}

impl GnPacket {
    /// Builds a beacon packet. Beacons are single-hop: RHL is 1.
    #[must_use]
    pub fn beacon(so_pv: LongPositionVector) -> Self {
        GnPacket {
            basic: BasicHeader::new(NextAfterBasic::SecuredPacket, 1),
            common: CommonHeader::new(HeaderKind::Beacon, 0, 1),
            extended: Extended::Beacon { so_pv },
            payload: Vec::new(),
        }
    }

    /// Builds a GeoBroadcast packet.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes or the area is too
    /// large for the wire encoding.
    #[must_use]
    pub fn geobroadcast(
        sn: SequenceNumber,
        so_pv: LongPositionVector,
        area: &Area,
        reference: &GeoReference,
        payload: Vec<u8>,
        max_hop_limit: u8,
    ) -> Self {
        let kind = match area.shape() {
            AreaShape::Circle => HeaderKind::GeoBroadcastCircle,
            AreaShape::Rectangle => HeaderKind::GeoBroadcastRect,
            AreaShape::Ellipse => HeaderKind::GeoBroadcastEllipse,
        };
        let len = u16::try_from(payload.len()).expect("payload too large");
        GnPacket {
            basic: BasicHeader::new(NextAfterBasic::SecuredPacket, max_hop_limit),
            common: CommonHeader::new(kind, len, max_hop_limit),
            extended: Extended::Gbc(GbcHeader {
                sn,
                so_pv,
                area: WireArea::from_area(area, reference),
            }),
            payload,
        }
    }

    /// Builds a GeoUnicast packet towards the node described by `de_pv`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes.
    #[must_use]
    pub fn geounicast(
        sn: SequenceNumber,
        so_pv: LongPositionVector,
        de_pv: ShortPositionVector,
        payload: Vec<u8>,
        max_hop_limit: u8,
    ) -> Self {
        let len = u16::try_from(payload.len()).expect("payload too large");
        GnPacket {
            basic: BasicHeader::new(NextAfterBasic::SecuredPacket, max_hop_limit),
            common: CommonHeader::new(HeaderKind::GeoUnicast, len, max_hop_limit),
            extended: Extended::Guc(GucHeader { sn, so_pv, de_pv }),
            payload,
        }
    }

    /// Builds a topologically-scoped broadcast packet.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes.
    #[must_use]
    pub fn topo_broadcast(
        sn: SequenceNumber,
        so_pv: LongPositionVector,
        payload: Vec<u8>,
        max_hop_limit: u8,
    ) -> Self {
        let len = u16::try_from(payload.len()).expect("payload too large");
        GnPacket {
            basic: BasicHeader::new(NextAfterBasic::SecuredPacket, max_hop_limit),
            common: CommonHeader::new(HeaderKind::TopoBroadcast, len, max_hop_limit),
            extended: Extended::Tsb { sn, so_pv },
            payload,
        }
    }

    /// Builds a single-hop broadcast packet (RHL fixed at 1).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes.
    #[must_use]
    pub fn single_hop_broadcast(so_pv: LongPositionVector, payload: Vec<u8>) -> Self {
        let len = u16::try_from(payload.len()).expect("payload too large");
        GnPacket {
            basic: BasicHeader::new(NextAfterBasic::SecuredPacket, 1),
            common: CommonHeader::new(HeaderKind::SingleHopBroadcast, len, 1),
            extended: Extended::Shb { so_pv },
            payload,
        }
    }

    /// The source position vector (present in every packet kind).
    #[must_use]
    pub fn so_pv(&self) -> &LongPositionVector {
        self.extended.so_pv()
    }

    /// The GBC header, if this is a GeoBroadcast packet.
    #[must_use]
    pub fn gbc(&self) -> Option<&GbcHeader> {
        match &self.extended {
            Extended::Gbc(g) => Some(g),
            _ => None,
        }
    }

    /// The destination area of a GeoBroadcast packet, reconstructed on the
    /// simulation plane.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the packet is not a GBC packet or the area
    /// fields are invalid.
    pub fn destination_area(&self, reference: &GeoReference) -> Result<Area, WireError> {
        let gbc = self.gbc().ok_or(WireError::BadFieldValue("not a GeoBroadcast packet"))?;
        let shape = match self.common.kind {
            HeaderKind::GeoBroadcastCircle => AreaShape::Circle,
            HeaderKind::GeoBroadcastRect => AreaShape::Rectangle,
            HeaderKind::GeoBroadcastEllipse => AreaShape::Ellipse,
            _ => return Err(WireError::BadFieldValue("packet kind has no area")),
        };
        gbc.area.to_area(shape, reference)
    }

    /// The length of [`GnPacket::encode`]'s output, computed without
    /// encoding.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let extended = match self.extended {
            Extended::Beacon { .. } => BEACON_LEN,
            Extended::Guc(_) => GUC_LEN,
            Extended::Gbc(_) => GBC_LEN,
            Extended::Tsb { .. } => TSB_LEN,
            Extended::Shb { .. } => SHB_LEN,
        };
        BASIC_LEN + COMMON_LEN + extended + self.payload.len()
    }

    /// Encodes the full packet to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_with_rhl(self.basic.rhl, &mut out);
        out
    }

    /// Writes the full encoding into `out` with the basic header's RHL
    /// byte replaced by `rhl`.
    fn encode_with_rhl<S: ByteSink + ?Sized>(&self, rhl: u8, out: &mut S) {
        BasicHeader { rhl, ..self.basic }.encode(out);
        self.common.encode(out);
        match &self.extended {
            Extended::Beacon { so_pv } => encode_lpv(so_pv, out),
            Extended::Guc(g) => {
                out.put_u16(g.sn.0);
                out.put_u16(0); // reserved
                encode_lpv(&g.so_pv, out);
                g.de_pv.encode(out);
            }
            Extended::Gbc(g) => {
                out.put_u16(g.sn.0);
                out.put_u16(0); // reserved
                encode_lpv(&g.so_pv, out);
                g.area.encode(out);
                out.put_u16(0); // reserved
            }
            Extended::Tsb { sn, so_pv } => {
                out.put_u16(sn.0);
                out.put_u16(0); // reserved
                encode_lpv(so_pv, out);
            }
            Extended::Shb { so_pv } => {
                encode_lpv(so_pv, out);
                out.put_u32(0); // media-dependent data
            }
        }
        out.put_slice(&self.payload);
    }

    /// The byte string covered by the integrity envelope: the full
    /// encoding with the basic header's RHL byte zeroed.
    ///
    /// Per the standard, forwarders decrement RHL in flight, so signatures
    /// cannot cover it — which is exactly the gap the paper's intra-area
    /// attacker exploits by rewriting RHL on replayed packets.
    #[must_use]
    pub fn encode_protected(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_protected_into(&mut out);
        out
    }

    /// Streams [`GnPacket::encode_protected`]'s bytes into `out` without
    /// building them (the signature digest's path).
    pub fn encode_protected_into<S: ByteSink + ?Sized>(&self, out: &mut S) {
        self.encode_with_rhl(0, out);
    }

    /// Decodes a packet from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, unknown header values or a
    /// payload length mismatch.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let (basic, mut off) = BasicHeader::decode(buf)?;
        let (common, used) = CommonHeader::decode(&buf[off..])?;
        off += used;
        let extended = match common.kind {
            HeaderKind::Beacon => {
                let so_pv = decode_lpv(buf, off)?;
                off += BEACON_LEN;
                Extended::Beacon { so_pv }
            }
            HeaderKind::GeoUnicast => {
                super::need(buf, off, GUC_LEN)?;
                let sn = SequenceNumber(u16::from_be_bytes(
                    buf[off..off + 2].try_into().expect("2 bytes"),
                ));
                let so_pv = decode_lpv(buf, off + 4)?;
                let de_pv = ShortPositionVector::decode(buf, off + 4 + LPV_LEN)?;
                off += GUC_LEN;
                Extended::Guc(GucHeader { sn, so_pv, de_pv })
            }
            HeaderKind::TopoBroadcast => {
                super::need(buf, off, TSB_LEN)?;
                let sn = SequenceNumber(u16::from_be_bytes(
                    buf[off..off + 2].try_into().expect("2 bytes"),
                ));
                let so_pv = decode_lpv(buf, off + 4)?;
                off += TSB_LEN;
                Extended::Tsb { sn, so_pv }
            }
            HeaderKind::SingleHopBroadcast => {
                super::need(buf, off, SHB_LEN)?;
                let so_pv = decode_lpv(buf, off)?;
                off += SHB_LEN;
                Extended::Shb { so_pv }
            }
            _ => {
                super::need(buf, off, GBC_LEN)?;
                let sn = SequenceNumber(u16::from_be_bytes(
                    buf[off..off + 2].try_into().expect("2 bytes"),
                ));
                let so_pv = decode_lpv(buf, off + 4)?;
                let area = WireArea::decode(buf, off + 4 + LPV_LEN)?;
                off += GBC_LEN;
                Extended::Gbc(GbcHeader { sn, so_pv, area })
            }
        };
        let present = buf.len() - off;
        let declared = usize::from(common.payload_length);
        if present != declared {
            return Err(WireError::PayloadLengthMismatch { declared, present });
        }
        Ok(GnPacket { basic, common, extended, payload: buf[off..].to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_geo::Position;
    use geonet_sim::SimTime;
    use proptest::prelude::*;

    fn sample_pv(addr: u64) -> LongPositionVector {
        LongPositionVector::from_sim(
            GnAddress::vehicle(addr),
            SimTime::from_secs(12),
            Position::new(1_000.0, 2.5),
            30.0,
            geonet_geo::Heading::EAST,
            &GeoReference::default(),
        )
    }

    #[test]
    fn beacon_round_trip() {
        let p = GnPacket::beacon(sample_pv(5));
        let bytes = p.encode();
        let back = GnPacket::decode(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.so_pv().addr, GnAddress::vehicle(5));
        assert!(back.gbc().is_none());
    }

    #[test]
    fn gbc_round_trip_all_shapes() {
        let r = GeoReference::default();
        let areas = [
            Area::circle(Position::new(4_020.0, 0.0), 50.0),
            Area::rectangle(Position::new(2_000.0, 0.0), 2_000.0, 20.0, 90.0),
            Area::ellipse(Position::new(100.0, 0.0), 300.0, 40.0, 45.0),
        ];
        for area in &areas {
            let p = GnPacket::geobroadcast(
                SequenceNumber(42),
                sample_pv(9),
                area,
                &r,
                vec![1, 2, 3, 4],
                10,
            );
            let back = GnPacket::decode(&p.encode()).unwrap();
            assert_eq!(back, p);
            let area_back = back.destination_area(&r).unwrap();
            assert_eq!(area_back.shape(), area.shape());
            assert!(area_back.center().distance(area.center()) < 0.05);
            assert!((area_back.half_axis_a() - area.half_axis_a()).abs() <= 1.0);
        }
    }

    #[test]
    fn geounicast_round_trip() {
        let so = sample_pv(9);
        let de = ShortPositionVector::from_long(&sample_pv(7));
        let p = GnPacket::geounicast(SequenceNumber(11), so, de, vec![1, 2, 3], 10);
        let bytes = p.encode();
        // Basic(4) + common(8) + GUC(48) + payload(3).
        assert_eq!(bytes.len(), 4 + 8 + 48 + 3);
        let back = GnPacket::decode(&bytes).unwrap();
        assert_eq!(back, p);
        match back.extended {
            Extended::Guc(g) => {
                assert_eq!(g.de_pv.addr, GnAddress::vehicle(7));
                assert_eq!(g.sn, SequenceNumber(11));
            }
            other => panic!("{other:?}"),
        }
        assert!(back.gbc().is_none());
        assert!(back.destination_area(&GeoReference::default()).is_err());
    }

    #[test]
    fn topo_broadcast_round_trip() {
        let p = GnPacket::topo_broadcast(SequenceNumber(5), sample_pv(3), vec![0xAA], 7);
        let bytes = p.encode();
        // Basic(4) + common(8) + TSB(28) + payload(1).
        assert_eq!(bytes.len(), 4 + 8 + 28 + 1);
        let back = GnPacket::decode(&bytes).unwrap();
        assert_eq!(back, p);
        assert!(matches!(back.extended, Extended::Tsb { sn: SequenceNumber(5), .. }));
    }

    #[test]
    fn single_hop_broadcast_round_trip() {
        let p = GnPacket::single_hop_broadcast(sample_pv(2), vec![9, 9]);
        assert_eq!(p.basic.rhl, 1, "SHB is single-hop by construction");
        let bytes = p.encode();
        // Basic(4) + common(8) + SHB(28) + payload(2).
        assert_eq!(bytes.len(), 4 + 8 + 28 + 2);
        let back = GnPacket::decode(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.so_pv().addr, GnAddress::vehicle(2));
    }

    #[test]
    fn short_pv_from_long_drops_kinematics() {
        let long = sample_pv(4);
        let short = ShortPositionVector::from_long(&long);
        assert_eq!(short.addr, long.addr);
        assert_eq!(short.timestamp, long.timestamp);
        assert_eq!(short.coord, long.coord);
    }

    #[test]
    fn protected_encoding_zeroes_rhl_only() {
        let r = GeoReference::default();
        let area = Area::circle(Position::new(4_020.0, 0.0), 50.0);
        let mut p = GnPacket::geobroadcast(SequenceNumber(1), sample_pv(2), &area, &r, vec![9], 10);
        let protected_at_10 = p.encode_protected();
        p.basic.rhl = 1; // forwarder (or attacker) rewrites RHL
        let protected_at_1 = p.encode_protected();
        // Integrity-covered bytes identical regardless of RHL...
        assert_eq!(protected_at_10, protected_at_1);
        // ...but the on-air encodings differ exactly at the RHL byte.
        let mut q = p.clone();
        q.basic.rhl = 10;
        let a = p.encode();
        let b = q.encode();
        let diffs: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        assert_eq!(diffs, vec![3]);
    }

    #[test]
    fn payload_length_mismatch_detected() {
        let p = GnPacket::beacon(sample_pv(1));
        let mut bytes = p.encode();
        bytes.push(0xFF); // extra byte not declared
        assert!(matches!(
            GnPacket::decode(&bytes),
            Err(WireError::PayloadLengthMismatch { declared: 0, present: 1 })
        ));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let r = GeoReference::default();
        let area = Area::circle(Position::new(0.0, 0.0), 100.0);
        let p =
            GnPacket::geobroadcast(SequenceNumber(7), sample_pv(3), &area, &r, vec![1, 2, 3], 10);
        let bytes = p.encode();
        for len in 0..bytes.len() {
            assert!(
                GnPacket::decode(&bytes[..len]).is_err(),
                "decode succeeded on {len}-byte prefix"
            );
        }
        assert!(GnPacket::decode(&bytes).is_ok());
    }

    #[test]
    fn zero_half_axis_rejected() {
        let wa =
            WireArea { center: GeoCoord { lat: 0, lon: 0 }, dist_a: 0, dist_b: 10, angle_deg: 0 };
        assert_eq!(
            wa.to_area(AreaShape::Circle, &GeoReference::default()),
            Err(WireError::BadFieldValue("area half-axis"))
        );
    }

    #[test]
    fn circle_ignores_dist_b_zero() {
        let wa = WireArea {
            center: GeoCoord { lat: 391_000_000, lon: -768_000_000 },
            dist_a: 100,
            dist_b: 0,
            angle_deg: 0,
        };
        assert!(wa.to_area(AreaShape::Circle, &GeoReference::default()).is_ok());
        assert!(wa.to_area(AreaShape::Rectangle, &GeoReference::default()).is_err());
    }

    #[test]
    fn wire_error_display() {
        let e = WireError::Truncated { needed: 10, got: 3 };
        assert!(e.to_string().contains("10"));
        assert!(WireError::BadVersion(3).to_string().contains('3'));
        assert!(WireError::BadHeaderType(9, 9).to_string().contains("9.9"));
    }

    proptest! {
        #[test]
        fn prop_beacon_round_trip(addr in 0u64..(1 << 48),
                                  x in 0.0f64..4_000.0, y in -20.0f64..20.0,
                                  speed in -160.0f64..160.0, hdg in 0.0f64..360.0,
                                  secs in 0u64..4_000) {
            let pv = LongPositionVector::from_sim(
                GnAddress::vehicle(addr),
                SimTime::from_secs(secs),
                Position::new(x, y),
                speed,
                geonet_geo::Heading::from_degrees(hdg),
                &GeoReference::default(),
            );
            let p = GnPacket::beacon(pv);
            prop_assert_eq!(GnPacket::decode(&p.encode()).unwrap(), p);
        }

        #[test]
        fn prop_gbc_round_trip(sn in any::<u16>(), rhl in 0u8..=255,
                               payload in prop::collection::vec(any::<u8>(), 0..64),
                               radius in 1.0f64..5_000.0) {
            let r = GeoReference::default();
            let area = Area::circle(Position::new(2_000.0, 0.0), radius);
            let mut p = GnPacket::geobroadcast(
                SequenceNumber(sn), sample_pv(1), &area, &r, payload, 10);
            p.basic.rhl = rhl;
            prop_assert_eq!(GnPacket::decode(&p.encode()).unwrap(), p);
        }

        #[test]
        fn prop_guc_tsb_shb_round_trip(sn in any::<u16>(),
                                       payload in prop::collection::vec(any::<u8>(), 0..32),
                                       which in 0usize..3) {
            let p = match which {
                0 => GnPacket::geounicast(
                    SequenceNumber(sn),
                    sample_pv(1),
                    ShortPositionVector::from_long(&sample_pv(2)),
                    payload,
                    10,
                ),
                1 => GnPacket::topo_broadcast(SequenceNumber(sn), sample_pv(1), payload, 10),
                _ => GnPacket::single_hop_broadcast(sample_pv(1), payload),
            };
            prop_assert_eq!(GnPacket::decode(&p.encode()).unwrap(), p);
        }

        #[test]
        fn prop_encoded_len_matches_encode(sn in any::<u16>(),
                                           payload in prop::collection::vec(any::<u8>(), 0..400),
                                           which in 0usize..5) {
            let r = GeoReference::default();
            let area = Area::circle(Position::new(2_000.0, 0.0), 500.0);
            let p = match which {
                0 => GnPacket::beacon(sample_pv(1)),
                1 => GnPacket::single_hop_broadcast(sample_pv(1), payload),
                2 => GnPacket::topo_broadcast(SequenceNumber(sn), sample_pv(1), payload, 10),
                3 => GnPacket::geounicast(
                    SequenceNumber(sn),
                    sample_pv(1),
                    ShortPositionVector::from_long(&sample_pv(2)),
                    payload,
                    10,
                ),
                _ => GnPacket::geobroadcast(SequenceNumber(sn), sample_pv(1), &area, &r, payload, 10),
            };
            prop_assert_eq!(p.encoded_len(), p.encode().len());
        }

        #[test]
        fn prop_protected_excludes_exactly_rhl(rhl1 in 0u8..=255, rhl2 in 0u8..=255) {
            let r = GeoReference::default();
            let area = Area::circle(Position::new(0.0, 0.0), 10.0);
            let mut p = GnPacket::geobroadcast(
                SequenceNumber(1), sample_pv(1), &area, &r, vec![], 10);
            p.basic.rhl = rhl1;
            let a = p.encode_protected();
            p.basic.rhl = rhl2;
            let b = p.encode_protected();
            prop_assert_eq!(a, b);
        }
    }
}
