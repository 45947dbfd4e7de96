//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate replacing the open-source VANET simulator
//! used by the paper. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulation time,
//!   immune to floating-point drift.
//! * [`EventQueue`] — a priority queue with a deterministic total order:
//!   events at equal timestamps fire in insertion order, so a run is a pure
//!   function of its seed. One binary heap keyed by `(time, insertion
//!   sequence)` holds every pending event. Reserved sequence numbers let
//!   one group event stand in for a run of same-time events (a
//!   transmission's deliveries) at the same place.
//! * [`Kernel`] — the event loop: schedule, pop, advance the clock.
//! * [`hash`] — [`U64Map`], a hash map on packed `u64` keys with a
//!   multiply-shift hasher, shared by the radio grid and the location
//!   table.
//! * [`SimRng`] — a seedable, splittable random source; every node and
//!   every run derives an independent stream from one `u64` seed.
//! * [`metrics`] — time-binned success/total counters and the γ/λ rate
//!   computations used throughout the paper's evaluation (packet reception
//!   rate per 5 s bin, average drop rate between A/B runs).
//! * [`telemetry`] — quantitative telemetry: counters, gauges and
//!   log-bucketed histograms with scoped wall-clock timers and
//!   Prometheus/JSON exporters, behind a zero-cost-when-disabled
//!   [`Telemetry`] handle.
//! * [`audit`] — deterministic run auditing: per-component state digests
//!   on a checkpoint timeline, `.audit.json` artifacts with first-
//!   divergence diffing, and an online [`InvariantChecker`] for the
//!   EN 302 636-4-1 forwarding rules.
//! * [`topo`] — spatial & topological observability: radio
//!   connectivity-graph snapshots with partition/articulation/local-
//!   maximum/coverage analytics, `.topo.json` + DOT artifacts.
//! * [`timeline`] — the fixed-interval [`Timeline`] recorder that
//!   collects both the audit checkpoints and the topology snapshots.
//!   Timelines are the artifacts: [`Timeline::to_json`] /
//!   [`Timeline::from_json`] write and read `.audit.json` and
//!   `.topo.json` directly ([`AuditArtifact`] and [`TopoArtifact`] are
//!   aliases).
//! * [`json`] — the one JSON codec behind every artifact (trace JSONL,
//!   metrics, audit, topology and the scenario crate's heatmaps): an
//!   escape-free parser with typed, key-naming accessors, the shortest
//!   round-trip float formatter and the shared metadata envelope.
//!
//! # Example
//!
//! ```
//! use geonet_sim::{Kernel, SimDuration};
//!
//! let mut kernel: Kernel<&'static str> = Kernel::new();
//! kernel.schedule_in(SimDuration::from_millis(5), "beacon");
//! kernel.schedule_in(SimDuration::from_millis(1), "packet");
//! let (t1, e1) = kernel.pop().unwrap();
//! assert_eq!(e1, "packet");
//! assert_eq!(t1.as_millis(), 1);
//! let (_, e2) = kernel.pop().unwrap();
//! assert_eq!(e2, "beacon");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod hash;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod telemetry;
pub mod time;
pub mod timeline;
pub mod topo;
pub mod trace;

pub use audit::{
    diff_artifacts, shared_auditor, trace_window, AuditArtifact, Checkpoint, CheckpointBuilder,
    ComponentDigest, Divergence, DivergenceReport, InvariantChecker, InvariantParams,
    SharedAuditor, StateHasher, UnorderedDigest, Violation,
};
pub use hash::{KeyHasher, U64Map};
pub use kernel::Kernel;
pub use metrics::{AbComparison, RunningStats, TimeBins};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use telemetry::{
    shared_registry, Gauge, GaugeSummary, Histogram, MetricsRegistry, MetricsSnapshot, ScopedTimer,
    SharedRegistry, Telemetry,
};
pub use time::{SimDuration, SimTime};
pub use timeline::{Sample, SharedTimeline, Timeline};
pub use topo::{
    shared_topo, AttackerCoverage, GradientHealth, SharedTopo, TopoArtifact, TopoNode, TopoSnapshot,
};
pub use trace::{
    shared, AttackKind, CountingSink, DropReason, EventCounters, JsonlSink, NullSink, PacketRef,
    SharedSink, TraceEvent, TraceRecord, TraceSink, Tracer, VecSink,
};
