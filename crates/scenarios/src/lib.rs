//! Experiment harness reproducing the paper's evaluation (§IV–§V).
//!
//! This crate binds the substrates together — traffic microsimulation,
//! unit-disk radio, per-node GeoNetworking routers and the attackers —
//! into a deterministic discrete-event [`World`], and provides one driver
//! per paper table/figure:
//!
//! | module | reproduces |
//! |---|---|
//! | [`interarea`] | Figures 7a–7e and 8 (inter-area interception, γ) |
//! | [`intraarea`] | Figures 9a–9e and 10 (intra-area blockage, λ) |
//! | [`impact`] | Figure 12 (traffic-jam impact of both attacks) |
//! | [`safety`] | Figure 13 (blind-curve collision case study) |
//! | [`mitigation`] | Figures 14a/14b (plausibility + RHL-drop checks) |
//! | [`extensions`] | beyond the paper: ACK defense, lossy channels, mobile attacker |
//! | [`analysis`] | closed-form γ/λ predictions from the attack geometry |
//!
//! [`Family`] (in [`campaign`]) is the one switch between the two
//! attack workloads: the attacker its [`Family::world`] mounts, the
//! packets its [`Family::drive`] sends each second and its seed stride.
//! The driver runs on a [`World`] the caller built, with whatever
//! instruments it attached through the `World::set_*` setters, and
//! returns per-packet [`Sent`] records that [`campaign::outcomes_to_bins`],
//! [`topology::run`] and the `repro` passes fold as they need.
//!
//! Every campaign goes through the one seeded runner,
//! [`Family::seeded_runs`]: it announces the setting to [`progress`] and
//! fans the independent seeded runs across the [`parallel`] job pool
//! (results merge in index order, so reports stay byte-identical to the
//! sequential path).
//! Long campaigns can report progress and performance telemetry: see
//! [`progress`] (per-run throughput/ETA lines) and
//! [`geonet_sim::telemetry`] (hot-path histograms and state-depth gauges,
//! attached to a world via [`World::set_telemetry`]).
//!
//! Spatial observability lives in [`heatmap`]: road-binned outcome grids
//! fed from the trace stream, their A/B diff table and the attack
//! blast-radius report, built on connectivity snapshots sampled by
//! [`geonet_sim::topo`] via [`World::set_topo_observer`].
//!
//! Every experiment is A/B: the same seeded world is run attacker-free
//! (A) and attacked (B); packet reception rates are collected in 5 s time
//! bins and γ/λ is the average per-bin drop, exactly as the paper defines
//! them.
//!
//! # Example
//!
//! ```no_run
//! use geonet_scenarios::config::Scale;
//! use geonet_scenarios::{Family, ScenarioConfig};
//!
//! // One reduced-scale point of Figure 7a: DSRC, worst-NLoS attacker.
//! let cfg = ScenarioConfig::paper_dsrc_default(); // attack range = wN (327 m)
//! let result = Family::Interception.run_ab(&cfg, "wN", Scale::quick(), 42);
//! println!("γ = {:.3}", result.gamma().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ahead;
pub mod analysis;
mod beacon_log;
pub mod campaign;
pub mod config;
pub mod extensions;
pub mod forensics;
pub mod heatmap;
pub mod impact;
pub mod interarea;
pub mod intraarea;
pub mod mitigation;
pub mod parallel;
pub mod progress;
pub mod report;
pub mod safety;
pub mod topology;
pub mod world;

pub use ahead::MobilityStats;
pub use beacon_log::BeaconLogStats;
#[doc(hidden)]
pub use beacon_log::InboxBench;
pub use campaign::{Family, Sent};
pub use config::{AttackerSetup, ScenarioConfig};
pub use heatmap::{BlastRadiusReport, HeatCell, HeatmapDiff, HeatmapDiffRow, RoadHeatmap};
pub use report::{AbResult, ExperimentRow};
pub use topology::{PacketFate, TopologyRun};
pub use world::{NodeKind, World};
