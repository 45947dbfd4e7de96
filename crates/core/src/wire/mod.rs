//! Binary wire formats (EN 302 636-4-1 §9).
//!
//! GeoNetworking packets are a chain of headers: a *basic header* (version,
//! lifetime and the mutable remaining-hop-limit), a *common header*
//! (header type, traffic class, payload length, maximum hop limit) and an
//! *extended header* that depends on the packet type — the source's long
//! position vector for beacons, plus sequence number and destination area
//! for GeoBroadcast.
//!
//! Encoding is big-endian throughout, as on the wire. The split between
//! the basic header and the rest matters for security: the standard's
//! integrity protection covers everything **except** the basic header's
//! RHL field, which forwarders must be able to decrement without
//! re-signing. [`GnPacket::encode_protected`] reflects that by zeroing the
//! RHL before producing the byte string that signatures cover.
//!
//! Every encoder writes through a [`ByteSink`]. A `Vec<u8>` collects the
//! bytes; the signature digest absorbs them as they are produced
//! ([`GnPacket::encode_protected_into`]), so signing and verifying build
//! no byte string at all.

mod headers;
mod packet;

pub use headers::{BasicHeader, CommonHeader, HeaderKind, NextAfterBasic};
pub use packet::{Extended, GbcHeader, GnPacket, GucHeader, ShortPositionVector, WireArea};

use std::fmt;

/// Where encoded bytes go. Multi-byte values are written big-endian, as on
/// the wire.
pub trait ByteSink {
    /// Appends `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i32`.
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl ByteSink for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Errors produced when decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        got: usize,
    },
    /// Unsupported GeoNetworking protocol version.
    BadVersion(u8),
    /// Unknown header-type / subtype combination.
    BadHeaderType(u8, u8),
    /// Unknown next-header value after the basic header.
    BadNextHeader(u8),
    /// The common header's payload length disagrees with the bytes present.
    PayloadLengthMismatch {
        /// Length declared in the common header.
        declared: usize,
        /// Payload bytes actually present.
        present: usize,
    },
    /// A field held a value outside its legal range.
    BadFieldValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated packet: needed {needed} bytes, got {got}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported GeoNetworking version {v}"),
            WireError::BadHeaderType(t, s) => write!(f, "unknown header type {t}.{s}"),
            WireError::BadNextHeader(n) => write!(f, "unknown next-header value {n}"),
            WireError::PayloadLengthMismatch { declared, present } => {
                write!(f, "payload length {declared} declared but {present} bytes present")
            }
            WireError::BadFieldValue(field) => write!(f, "field {field} out of range"),
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that `buf` has at least `needed` more bytes from `offset`.
pub(crate) fn need(buf: &[u8], offset: usize, needed: usize) -> Result<(), WireError> {
    if buf.len() < offset + needed {
        Err(WireError::Truncated { needed: offset + needed, got: buf.len() })
    } else {
        Ok(())
    }
}
