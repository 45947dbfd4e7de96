//! Geometry and addressing primitives for GeoNetworking simulation.
//!
//! This crate provides the spatial vocabulary shared by every other crate in
//! the workspace:
//!
//! * [`Position`] — a planar position in metres on a local tangent plane,
//!   with the usual vector arithmetic.
//! * [`Heading`] — a direction of travel in degrees clockwise from north,
//!   matching the encoding used by GeoNetworking position vectors.
//! * [`CellGrid`] — a uniform square grid mapping a position to the key
//!   of its cell, the spatial index of the radio medium.
//! * [`Area`] — a GeoBroadcast destination area (circle, rectangle or
//!   ellipse) with the *geometric function* `F(x, y)` defined by
//!   ETSI EN 302 931, used to decide whether a node is inside the area.
//! * [`GeoReference`] — a local tangent-plane projection mapping planar
//!   metre coordinates to and from the 1/10 micro-degree WGS-84 latitude /
//!   longitude integers carried in GeoNetworking wire formats.
//!
//! The simulation operates in planar metres (the paper's road segment is a
//! 4 km straight segment); the projection exists so that wire-format
//! encode/decode round-trips through real coordinate encodings.
//!
//! # Example
//!
//! ```
//! use geonet_geo::{Position, Area};
//!
//! let src = Position::new(0.0, 0.0);
//! let dst = Position::new(3_000.0, 0.0);
//! assert_eq!(src.distance(dst), 3_000.0);
//!
//! // A circular destination area of radius 500 m centred at `dst`.
//! let area = Area::circle(dst, 500.0);
//! assert!(area.contains(Position::new(2_700.0, 0.0)));
//! assert!(!area.contains(src));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cells;
pub mod heading;
pub mod position;
pub mod projection;

pub use area::{Area, AreaShape};
pub use cells::CellGrid;
pub use heading::Heading;
pub use position::Position;
pub use projection::{GeoCoord, GeoReference};
