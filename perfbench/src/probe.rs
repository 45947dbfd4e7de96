//! Probes for the layers the program does not time itself.

use crate::stats::median;
use crate::workload::{Family, Workload};
use geonet::{CertificateAuthority, SecuredPacket};
use geonet_geo::Heading;
use geonet_scenarios::config::Scale;
use geonet_scenarios::{interarea, intraarea, parallel, AbResult, World};
use std::hint::black_box;
use std::time::Instant;

/// Host cost of one call of each untimed per-frame layer, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct FrameCosts {
    /// `Verifier::verify` on a valid beacon (certificate check, digest of
    /// the protected bytes, signature check).
    pub verify_ns: f64,
    /// `GnPacket::encode` of a beacon.
    pub encode_ns: f64,
}

/// Times `Verifier::verify` and `GnPacket::encode` on beacons made by the
/// finished world's own routers (at most 64 of them), each re-signed by
/// one probe `CertificateAuthority` so that every verify takes the full
/// path. Returns the median over five timing rounds.
///
/// # Panics
///
/// Panics if the world has no active router or a probe beacon fails to
/// verify.
#[must_use]
pub fn frame_costs(world: &World) -> FrameCosts {
    let ca = CertificateAuthority::new(0x5EED_CAFE);
    let verifier = ca.verifier();
    let now = world.now();
    let beacons: Vec<SecuredPacket> = world
        .on_road_nodes()
        .into_iter()
        .take(64)
        .map(|node| {
            let frame =
                world.router(node).make_beacon(now, world.node_position(node), 30.0, Heading::EAST);
            ca.enroll(frame.src).sign(frame.msg.packet)
        })
        .collect();
    assert!(!beacons.is_empty(), "probe needs at least one on-road router");
    assert!(beacons.iter().all(|b| verifier.verify(b)), "probe beacon failed to verify");
    let calls = 200_000 / beacons.len();
    let per_call = |f: &dyn Fn(&SecuredPacket)| {
        let rounds: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..calls {
                    for b in &beacons {
                        f(black_box(b));
                    }
                }
                start.elapsed().as_nanos() as f64 / (calls * beacons.len()) as f64
            })
            .collect();
        median(&rounds)
    };
    FrameCosts {
        verify_ns: per_call(&|b| {
            black_box(verifier.verify(b));
        }),
        encode_ns: per_call(&|b| {
            black_box(b.packet.encode());
        }),
    }
}

/// The campaign pool measured at one worker and at two.
#[derive(Debug, Clone)]
pub struct PoolProbe {
    /// Worker count of the pooled campaign.
    pub workers: usize,
    /// Median sequential campaign wall time over median pooled campaign
    /// wall time.
    pub speedup: f64,
    /// Share of the pooled workers' capacity not spent on the sequential
    /// campaign's work: `1 − speedup / workers`, floored at 0.
    pub idle_share: f64,
    /// Whether every campaign reported the same bins.
    pub identical: bool,
    /// The first sequential campaign's result.
    pub result: AbResult,
}

/// Timing rounds of the pool probe; each runs the campaign sequentially
/// and then pooled, so a slow spell of the host lands on both sides.
const POOL_ROUNDS: usize = 3;

/// Runs `pairs` seeded A/B pairs of the workload's campaign through the
/// family's `run_ab`, alternately with one job and with
/// `min(2, available_jobs())`, and restores one job.
#[must_use]
pub fn pool(workload: Workload, base_seed: u64, pairs: u32) -> PoolProbe {
    let cfg = workload.config();
    let scale = Scale { runs: pairs, duration_s: cfg.duration.as_secs() };
    let workers = parallel::available_jobs().min(2);
    let mut results: Vec<AbResult> = Vec::new();
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..POOL_ROUNDS {
        for (side, jobs) in [1, workers].into_iter().enumerate() {
            parallel::set_jobs(jobs);
            let start = Instant::now();
            results.push(match workload.family() {
                Family::InterArea => interarea::run_ab(&cfg, "pool-probe", scale, base_seed),
                Family::IntraArea => intraarea::run_ab(&cfg, "pool-probe", scale, base_seed),
            });
            times[side].push(start.elapsed().as_secs_f64());
        }
    }
    parallel::set_jobs(1);
    let speedup = median(&times[0]) / median(&times[1]);
    let first = results.swap_remove(0);
    PoolProbe {
        workers,
        speedup,
        idle_share: (1.0 - speedup / workers as f64).max(0.0),
        identical: results
            .iter()
            .all(|r| r.baseline == first.baseline && r.attacked == first.attacked),
        result: first,
    }
}
