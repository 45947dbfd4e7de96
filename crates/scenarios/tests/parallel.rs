//! Determinism of the parallel campaign runner: every campaign family
//! must produce byte-identical reports — and byte-identical audit
//! artifacts — under `--jobs 1` and `--jobs 4`.
//!
//! The job pool hands results back in seed-index order, so the merged
//! [`AbResult`]s are supposed to be *exactly* the sequential values, not
//! merely statistically equivalent; these tests pin that with `Debug`
//! byte comparisons (every counter, every bin).

use geonet_scenarios::config::Scale;
use geonet_scenarios::{interarea, intraarea, mitigation, parallel, Family, ScenarioConfig};
use geonet_sim::{shared_auditor, SimDuration};

/// Runs `f` under `jobs` workers, restoring the sequential default so a
/// panicking assertion cannot leak pool state into later code.
fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            parallel::set_jobs(1);
        }
    }
    let _reset = Reset;
    parallel::set_jobs(jobs);
    f()
}

const SCALE: Scale = Scale { runs: 3, duration_s: 30 };

// The job count is process-global and the test harness runs #[test] fns
// concurrently, so the whole matrix lives in one test body.
#[test]
fn campaigns_and_audits_are_byte_identical_across_jobs() {
    // Both families' A/B campaigns: report equality and bytes.
    let cfg = ScenarioConfig::paper_dsrc_default();
    for family in Family::BOTH {
        let seq = with_jobs(1, || family.run_ab(&cfg, "jobs-test", SCALE, 42));
        let par = with_jobs(4, || family.run_ab(&cfg, "jobs-test", SCALE, 42));
        assert_eq!(seq, par);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    // intraarea source split: one simulation per seeded pair, filtered
    // per region — the restructured driver must match itself across
    // pool widths.
    let seq = with_jobs(1, || intraarea::fig9_source_split(SCALE, 42));
    let par = with_jobs(4, || intraarea::fig9_source_split(SCALE, 42));
    assert_eq!(seq, par);
    assert_eq!(format!("{seq:?}"), format!("{par:?}"));

    // mitigation: merged interarea and intraarea drivers both under the
    // pool (fig14a exercises the former, fig14b the latter).
    let small = Scale { runs: 2, duration_s: 30 };
    let seq = with_jobs(1, || mitigation::fig14a(small, 42));
    let par = with_jobs(4, || mitigation::fig14a(small, 42));
    assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    let seq = with_jobs(1, || mitigation::fig14b(small, 42));
    let par = with_jobs(4, || mitigation::fig14b(small, 42));
    assert_eq!(format!("{seq:?}"), format!("{par:?}"));

    // PR 3 audit digests: per-seed artifacts built *inside* the jobs
    // serialize to the same bytes whichever pool width produced them.
    // (Worlds and their Rc-based recorders are created per job and only
    // the serialized String crosses the thread boundary.)
    let audit_artifacts = |jobs: usize| {
        with_jobs(jobs, || {
            parallel::run_indexed(3, |i| {
                let cfg = cfg.with_duration(SimDuration::from_secs(20));
                let seed = 42 + u64::from(i);
                let auditor = shared_auditor(SimDuration::from_secs(5));
                interarea::stamp_audit_meta(&auditor, &cfg, true, seed);
                let mut w = Family::Interception.world(&cfg, true, seed);
                w.set_auditor(auditor.clone());
                let _ = Family::Interception.drive(&cfg, &mut w, |_, _| {});
                let json = auditor.borrow().to_json();
                json
            })
        })
    };
    assert_eq!(audit_artifacts(1), audit_artifacts(4));
}
