//! Radio medium simulation for connected-vehicle communication.
//!
//! The paper abstracts the physical layer to a *communication range* taken
//! from the Utah DOT field test (its Table II): a broadcast is received by
//! every node within the sender's range. This crate reproduces that model:
//!
//! * [`AccessTechnology`] / [`RangeCondition`] / [`RangeProfile`] — the
//!   DSRC and C-V2X range profiles (LoS median, NLoS median, NLoS worst).
//! * [`Medium`] — a unit-disk broadcast medium over registered
//!   [`NodeId`]s: who hears a transmission, and after what propagation
//!   delay. Transmission power control is modelled by capping the sender's
//!   effective range per transmission (used by the attacker's Spot-2
//!   variant and the range sweeps).
//!
//! # Example
//!
//! ```
//! use geonet_geo::Position;
//! use geonet_radio::{Medium, RangeProfile};
//!
//! let range = RangeProfile::DSRC.nlos_median(); // 486 m
//! let mut medium = Medium::new();
//! let a = medium.register(Position::new(0.0, 0.0), range);
//! let b = medium.register(Position::new(400.0, 0.0), range);
//! let c = medium.register(Position::new(900.0, 0.0), range);
//! let heard = medium.receivers(a);
//! assert!(heard.contains(&b) && !heard.contains(&c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod medium;
pub mod profile;

pub use medium::{delay_us, DelayTable, Medium, NodeId};
pub use profile::{AccessTechnology, RangeCondition, RangeProfile};
