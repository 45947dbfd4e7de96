//! When a world steps its traffic on a helper thread: only while a core
//! is spare (fewer live helpers than `available_jobs() - jobs()`) and no
//! telemetry registry is attached, so that `traffic_step_ns` keeps timing
//! the step itself.
//!
//! One test, because it sets the process-wide job count.

use geonet_scenarios::{parallel, Family, MobilityStats};
use geonet_sim::shared_registry;

fn run(registry: bool) -> MobilityStats {
    let family = Family::Interception;
    let cfg = family.config(5);
    let mut w = family.world(&cfg, true, 11);
    if registry {
        w.set_telemetry(shared_registry());
    }
    w.run_to_end();
    w.mobility_stats()
}

#[test]
fn helper_needs_a_spare_core_and_no_registry() {
    let steps = run(false).ahead_steps + run(false).inline_steps;

    // Every core is taken by the job pool.
    parallel::set_jobs(parallel::available_jobs());
    let all_busy = run(false);
    parallel::set_jobs(1);
    assert_eq!(all_busy, MobilityStats { ahead_steps: 0, inline_steps: steps, restarts: 0 });

    // A registry times every step on the world's thread.
    let timed = run(true);
    assert_eq!(timed, MobilityStats { ahead_steps: 0, inline_steps: steps, restarts: 0 });

    // Otherwise a spare core takes every step after the first.
    let spare = run(false);
    if parallel::available_jobs() > 1 {
        assert_eq!(spare, MobilityStats { ahead_steps: steps - 1, inline_steps: 1, restarts: 0 });
    } else {
        assert_eq!(spare, all_busy);
    }
}
