//! Deterministic seed-indexed campaign parallelism.
//!
//! Every campaign in this crate is a loop over independent seeded runs:
//! [`World`](crate::World) is a pure function of (config, attacker setup,
//! seed), so run *i* of a campaign depends on nothing but its own derived
//! seed. [`run_indexed`] exploits that: it fans the per-index closures
//! over a pool of `std::thread::scope` workers and hands the results back
//! **in index order**, so callers merge them exactly as the sequential
//! loop would have.
//!
//! # Why determinism survives parallelism
//!
//! * Each job builds its own `World`, RNGs, sinks and collectors — no
//!   state is shared between jobs, only the `Send` results cross threads.
//! * Results land in a per-index slot; the worker that computed them and
//!   the order jobs finished in are both invisible to the caller.
//! * The merge step ([`TimeBins::merge`](geonet_sim::metrics::TimeBins)
//!   and friends) therefore consumes the same values in the same order as
//!   `for i in 0..runs`, making campaign reports and audit artifacts
//!   byte-identical across `--jobs 1` and `--jobs N` — a property pinned
//!   by `tests/parallel.rs` and CI's byte-compare.
//!
//! The pool width is a process-wide setting ([`set_jobs`], surfaced as
//! `repro --jobs N`) so sweep drivers nested several calls deep need no
//! plumbing. With 1 job the pool is bypassed entirely — the sequential
//! path is the plain loop it always was.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Process-wide worker count for [`run_indexed`]; 1 = sequential.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the number of worker threads campaign loops may use. Values are
/// clamped to at least 1; 1 selects the plain sequential loop.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The currently configured worker count (see [`set_jobs`]).
#[must_use]
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// The parallelism the host advertises, with a sequential fallback when
/// it cannot say — the default for `repro --jobs`. Asked once per
/// process: each world asks again when it decides whether a core is
/// spare for its traffic, and the answer reads cgroup files.
#[must_use]
pub fn available_jobs() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `f(0), f(1), …, f(count - 1)` and returns the results in index
/// order, fanning the calls across [`jobs`] scoped worker threads.
///
/// `f` must be independent per index (in this crate: one seeded
/// simulation run). Workers pull the next unclaimed index from a shared
/// counter, so long and short runs load-balance; completed results are
/// parked in per-index slots until every index is done. With `jobs() <=
/// 1` (or a single index) this is exactly the sequential loop, running
/// on the caller's thread.
///
/// # Panics
///
/// A panic inside any job propagates to the caller once the scope joins,
/// matching the sequential loop's fail-fast behaviour.
pub fn run_indexed<T, F>(count: u32, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let workers = jobs().min(count as usize);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count as usize {
                    break;
                }
                let result = f(i as u32);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests below mutate the process-wide job count, and the test
    // harness runs #[test] fns concurrently — so everything lives in one
    // test body, restoring jobs = 1 at the end.
    #[test]
    fn run_indexed_is_order_preserving_and_jobs_aware() {
        // Sequential path.
        set_jobs(1);
        assert_eq!(jobs(), 1);
        assert_eq!(run_indexed(4, |i| i * 10), vec![0, 10, 20, 30]);
        // Parallel path returns the same thing, in the same order, even
        // when jobs exceed the index count.
        set_jobs(8);
        assert_eq!(jobs(), 8);
        let out = run_indexed(100, |i| u64::from(i) * 3 + 1);
        assert_eq!(out, (0..100u64).map(|i| i * 3 + 1).collect::<Vec<_>>());
        // Zero indices is fine on both paths.
        assert!(run_indexed(0, |i| i).is_empty());
        set_jobs(1);
        assert!(run_indexed(0, |i| i).is_empty());
        // set_jobs clamps to at least one worker.
        set_jobs(0);
        assert_eq!(jobs(), 1);
        assert!(available_jobs() >= 1);
    }
}
