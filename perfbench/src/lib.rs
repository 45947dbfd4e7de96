//! Campaign benchmark for the GeoNetworking attack reproduction: the
//! workloads and their slice-timed driver ([`workload`]), probes for the
//! layers the program does not time itself ([`probe`]), the reference
//! kernel that gauges the host's speed ([`calib`]), and the order
//! statistics and result line ([`stats`]).

pub mod calib;
pub mod probe;
pub mod stats;
pub mod workload;
