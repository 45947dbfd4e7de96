//! The benchmark's slice-timed driver must reproduce the library's drivers
//! bit-for-bit, so it measures the paper's workload and not a fork of it;
//! and attaching the telemetry registry must not change a run's outcome.

use geonet_perfbench::workload::{self, Family, Workload};
use geonet_scenarios::ScenarioConfig;
use geonet_sim::{shared_registry, SimDuration};

/// The paper's default scenario and the benchmark's own (mN) variant,
/// shortened so the test stays fast in debug builds.
fn configs() -> [ScenarioConfig; 2] {
    let paper = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(30));
    [paper, paper.with_attack_range(486.0)]
}

fn assert_driver_matches_library(family: Family) {
    for cfg in configs() {
        for seed in [1, 2, 3] {
            for attacked in [false, true] {
                let (record, _) = workload::run_config(&cfg, family, seed, attacked, None);
                assert_eq!(
                    record.outcome,
                    workload::library_outcome(&cfg, family, seed, attacked),
                    "{family:?} seed {seed} attacked {attacked} range {}",
                    cfg.attack_range
                );
            }
        }
    }
}

#[test]
fn interarea_driver_matches_run_one() {
    assert_driver_matches_library(Family::InterArea);
}

#[test]
fn intraarea_driver_matches_run_one() {
    assert_driver_matches_library(Family::IntraArea);
}

#[test]
fn telemetry_leaves_fingerprints_unchanged() {
    let cfg = configs()[1];
    for family in [Family::InterArea, Family::IntraArea] {
        for seed in [4, 5] {
            let (plain, _) = workload::run_config(&cfg, family, seed, true, None);
            let (traced, _) =
                workload::run_config(&cfg, family, seed, true, Some(shared_registry()));
            assert_eq!(plain.fingerprint, traced.fingerprint, "{family:?} seed {seed}");
            assert_eq!(plain.outcome, traced.outcome, "{family:?} seed {seed}");
        }
    }
}

#[test]
fn fingerprints_tell_runs_apart() {
    let cfg = configs()[1];
    let fp = |seed, attacked| {
        workload::run_config(&cfg, Family::InterArea, seed, attacked, None).0.fingerprint
    };
    assert_eq!(fp(6, true), fp(6, true));
    assert_ne!(fp(6, true), fp(6, false));
    assert_ne!(fp(6, true), fp(7, true));
}

#[test]
fn workloads_have_valid_configs_and_paired_jobs() {
    for wl in Workload::ALL {
        assert_eq!(Workload::parse(wl.name()), Some(wl));
        assert!(wl.config().validate().is_ok(), "{}", wl.name());
        let (seed0, attacked0) = wl.job(9, 0);
        let (seed1, attacked1) = wl.job(9, 1);
        assert_eq!(seed0, 9);
        if wl.paired() {
            assert_eq!((seed0, attacked0, attacked1), (seed1, false, true));
        } else {
            assert!(attacked0 && attacked1 && seed0 != seed1);
        }
    }
    assert_eq!(Workload::parse("nope"), None);
}
