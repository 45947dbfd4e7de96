//! Traffic microsimulation for the GeoNetworking attack evaluation.
//!
//! Reproduces the paper's traffic model (§IV-A):
//!
//! * [`IdmParams`] — the Intelligent Driver Model with the paper's
//!   Table I parameters (desired velocity 30 m/s, safe time headway 1.5 s,
//!   max acceleration 1 m/s², comfortable deceleration 3 m/s², exponent 4,
//!   minimum distance 2 m).
//! * [`RoadConfig`] — a 4 000 m road segment, two 5 m lanes per direction,
//!   one- or two-way, 4.5 m vehicles.
//! * [`TrafficSim`] — fixed-timestep microsimulation: IDM car-following,
//!   entry at 30 m/s when the vehicle ahead is more than the configured
//!   inter-vehicle space from the entrance, exit at the far end, hazard
//!   events that block a direction, and an entry gate that closes when the
//!   entrance is informed of a hazard (the paper's Figure 12 scenarios).
//!
//! # Example
//!
//! ```
//! use geonet_traffic::{RoadConfig, TrafficSim};
//!
//! let mut sim = TrafficSim::new(RoadConfig::paper_default());
//! let before = sim.count_on_road();
//! for _ in 0..100 {
//!     sim.step(0.1); // 10 s of traffic
//! }
//! assert!(sim.count_on_road() >= before); // flow is roughly steady
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idm;
pub mod road;
pub mod sim;
pub mod vehicle;

pub use idm::IdmParams;
pub use road::{Direction, RoadConfig};
pub use sim::{StepOutput, TrafficSim};
pub use vehicle::{Vehicle, VehicleId};
