//! An ETSI GeoNetworking (EN 302 636-4-1) stack for security analysis.
//!
//! This crate implements the protocol machinery that the reproduced paper
//! ("Breaking Geographic Routing Among Connected Vehicles", DSN 2023)
//! analyses:
//!
//! * [`types`] — GeoNetworking addresses, timestamps, sequence numbers.
//! * [`pv`] — long/short position vectors carried by beacons and packets.
//! * [`wire`] — binary encode/decode of the basic, common, beacon and
//!   GeoBroadcast headers.
//! * [`security`] — a simulated IEEE 1609.2 / ETSI TS 102 731 security
//!   envelope: a certificate authority, certificates, and signatures whose
//!   integrity coverage deliberately **excludes the remaining-hop-limit
//!   (RHL) field**, exactly as in the standard — the root cause of the
//!   paper's intra-area blockage attack.
//! * [`loct`] — the location table (LocT) with per-entry TTL.
//! * [`gf`] — the Greedy Forwarding next-hop selection, including the
//!   paper's plausibility-check mitigation.
//! * [`cbf`] — Contention-Based Forwarding: the distance-dependent
//!   contention timer, duplicate suppression, and the paper's RHL-drop
//!   mitigation.
//! * [`router`] — a per-node façade combining the above into a pure
//!   event-driven state machine (`frame in → actions out`), driven by the
//!   scenario layer's event loop.
//!
//! # Example
//!
//! ```
//! use geonet::cbf::CbfParams;
//! use geonet_sim::SimDuration;
//!
//! // The standard's contention timer: nodes farther from the previous
//! // sender re-broadcast sooner.
//! let p = CbfParams::default_for_dist_max(1_283.0); // DSRC DIST_MAX
//! assert!(p.contention_timeout(1_000.0) < p.contention_timeout(100.0));
//! assert_eq!(p.contention_timeout(2_000.0), SimDuration::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cbf;
pub mod config;
pub mod frame;
pub mod gf;
pub mod loct;
pub mod pv;
pub mod router;
pub mod security;
pub mod types;
pub mod wire;

pub use cbf::{CbfBuffer, CbfParams, CbfVerdict, PacketKey};
pub use config::{GnConfig, MitigationConfig};
pub use frame::{Frame, OnAir};
pub use gf::{greedy_select, GfDecision};
pub use loct::{LocTEntry, LocationTable};
pub use pv::LongPositionVector;
pub use router::{admit, GnRouter, RouterAction, RouterStats};
pub use security::{Certificate, CertificateAuthority, Credentials, SecuredPacket, Verifier};
pub use types::{GnAddress, SequenceNumber, StationType, Timestamp};
