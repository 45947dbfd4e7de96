//! Shared helpers for the benchmark harness.
//!
//! The benches serve two purposes: they time the simulator (Criterion
//! statistics), and — because each iteration *is* a miniature run of a
//! paper experiment — they regenerate the paper's headline statistics,
//! printed once per bench outside the timed region. `cargo bench` output
//! therefore doubles as a quick-look reproduction report; the full-scale
//! numbers come from the `repro` binary (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The package's dependencies serve its bench targets and `bench_summary`;
// this small helper library uses only `geonet-scenarios`.
#![allow(unused_crate_dependencies)]

use geonet_scenarios::config::Scale;

/// The scale used inside benches: one A/B pair over a 30 s run. Small
/// enough for Criterion's repeated sampling, large enough that γ/λ have
/// the right shape.
#[must_use]
pub fn bench_scale() -> Scale {
    Scale { runs: 1, duration_s: 30 }
}

/// Prints a labelled headline statistic once, outside the timed region.
pub fn report(experiment: &str, label: &str, value: Option<f64>) {
    match value {
        Some(v) => eprintln!("[{experiment}] {label}: {:.1}%", v * 100.0),
        None => eprintln!("[{experiment}] {label}: n/a"),
    }
}
