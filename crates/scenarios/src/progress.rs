//! Campaign progress reporting for long experiment sweeps.
//!
//! A paper-scale campaign is 100 runs × 200 s per setting, times a dozen
//! settings — tens of minutes of wall time with, previously, no output at
//! all. This module adds an opt-in global reporter: when enabled (the
//! `repro` binary enables it), every completed run prints one stderr line
//! with its wall time, simulated-events/sec throughput, sim-time/wall-time
//! ratio and the ETA for the current setting, and the totals are available
//! as a [`CampaignSummary`] for the `--metrics` exporters.
//!
//! The reporter is intentionally *not* part of the [`crate::world::World`]
//! plumbing: runner functions report to it directly, so every experiment
//! family gets progress lines without threading a handle through each
//! `fig*` signature. When disabled (the default, e.g. under `cargo test`)
//! every call is a cheap no-op and nothing is printed.
//!
//! The reporter is jobs-aware: campaign loops run their seeded runs on a
//! [`crate::parallel`] worker pool, so every line is printed *while
//! holding the state lock* — one synchronized writer, no interleaved
//! fragments — and with more than one job the per-run lines switch to a
//! per-setting aggregate (elapsed wall, cumulative events, pool
//! throughput, pool-aware ETA) since individual run wall times overlap
//! and would read as nonsense.

use geonet_sim::{RunningStats, SimDuration};
use std::sync::Mutex;
use std::time::Instant;

/// Global reporter state; `None` while disabled.
static STATE: Mutex<Option<ProgressState>> = Mutex::new(None);

struct ProgressState {
    setting: String,
    planned: u32,
    completed: u32,
    /// Per-run wall seconds within the current setting (drives the ETA).
    setting_wall: RunningStats,
    /// When the current setting was announced (drives the aggregate
    /// elapsed/throughput line under parallel runs).
    setting_started: Option<Instant>,
    /// Kernel events dispatched within the current setting.
    setting_events: u64,
    totals: CampaignSummary,
}

/// Whole-campaign totals accumulated since [`enable`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignSummary {
    /// Completed simulation runs.
    pub runs: u64,
    /// Kernel events dispatched across all runs.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_seconds: f64,
    /// Wall-clock seconds spent inside runs.
    pub wall_seconds: f64,
}

impl CampaignSummary {
    /// Simulation events dispatched per wall-clock second, or `None`
    /// before any wall time was measured.
    #[must_use]
    pub fn events_per_sec(&self) -> Option<f64> {
        (self.wall_seconds > 0.0).then(|| self.events as f64 / self.wall_seconds)
    }

    /// How much faster than real time the simulation ran, or `None`
    /// before any wall time was measured.
    #[must_use]
    pub fn sim_wall_ratio(&self) -> Option<f64> {
        (self.wall_seconds > 0.0).then(|| self.sim_seconds / self.wall_seconds)
    }
}

/// Turns the reporter on and resets all totals.
pub fn enable() {
    let mut guard = lock();
    *guard = Some(ProgressState {
        setting: String::new(),
        planned: 0,
        completed: 0,
        setting_wall: RunningStats::new(),
        setting_started: None,
        setting_events: 0,
        totals: CampaignSummary::default(),
    });
}

/// Turns the reporter off; subsequent calls are no-ops again.
pub fn disable() {
    *lock() = None;
}

/// Whether the reporter is currently enabled.
#[must_use]
pub fn is_enabled() -> bool {
    lock().is_some()
}

/// The campaign totals so far, or `None` while disabled.
#[must_use]
pub fn summary() -> Option<CampaignSummary> {
    lock().as_ref().map(|s| s.totals)
}

/// Announces a new experiment setting of `planned_runs` upcoming runs
/// (used for the ETA). Called by the seeded campaign runner,
/// [`Family::seeded_runs`](crate::Family::seeded_runs).
pub fn begin_setting(label: &str, planned_runs: u32) {
    if let Some(s) = lock().as_mut() {
        s.setting = label.to_string();
        s.planned = planned_runs;
        s.completed = 0;
        s.setting_wall = RunningStats::new();
        s.setting_started = Some(Instant::now());
        s.setting_events = 0;
    }
}

/// Marks the start of one run. Returns `None` (and does no clock read)
/// while the reporter is disabled; pass the result to [`run_completed`].
#[must_use]
pub fn run_started() -> Option<Instant> {
    is_enabled().then(Instant::now)
}

/// Completes one run of `sim` simulated time that dispatched `events`
/// kernel events, printing the progress line to stderr. No-op if
/// `started` is `None` (reporter disabled at run start).
pub fn run_completed(started: Option<Instant>, events: u64, sim: SimDuration) {
    let Some(t0) = started else { return };
    let wall = t0.elapsed().as_secs_f64();
    let jobs = crate::parallel::jobs();
    let mut guard = lock();
    let Some(s) = guard.as_mut() else { return };
    s.completed += 1;
    s.setting_wall.push(wall);
    s.setting_events += events;
    s.totals.runs += 1;
    s.totals.events += events;
    s.totals.sim_seconds += sim.as_secs_f64();
    s.totals.wall_seconds += wall;
    let remaining = s.planned.saturating_sub(s.completed);
    let mut line = if jobs > 1 {
        // Parallel campaign: per-run wall times overlap, so report the
        // setting-level aggregate — elapsed wall since begin_setting,
        // cumulative events and the pool's combined throughput.
        let elapsed = s.setting_started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let agg_rate = if elapsed > 0.0 { s.setting_events as f64 / elapsed } else { 0.0 };
        format!(
            "# [{} {}/{}] {:.2} s elapsed, {:.2} M events ({:.2} M ev/s, {jobs} jobs)",
            s.setting,
            s.completed,
            s.planned.max(s.completed),
            elapsed,
            s.setting_events as f64 / 1e6,
            agg_rate / 1e6,
        )
    } else {
        let ev_per_sec = if wall > 0.0 { events as f64 / wall } else { 0.0 };
        let ratio = if wall > 0.0 { sim.as_secs_f64() / wall } else { 0.0 };
        format!(
            "# [{} {}/{}] {:.2} s wall, {:.2} M events ({:.2} M ev/s, sim/wall {:.0}x)",
            s.setting,
            s.completed,
            s.planned.max(s.completed),
            wall,
            events as f64 / 1e6,
            ev_per_sec / 1e6,
            ratio,
        )
    };
    if remaining > 0 {
        if let Some(mean) = s.setting_wall.mean() {
            // With a pool, the remaining runs drain jobs at a time.
            let eta = mean * f64::from(remaining) / jobs.max(1) as f64;
            line.push_str(&format!(", ETA {eta:.0} s"));
        }
    }
    // Print while holding the lock: worker threads finish runs
    // concurrently, and a single synchronized writer keeps the stderr
    // stream ordered and parseable.
    eprintln!("{line}");
    drop(guard);
}

/// Prints one per-experiment wall-time summary line to stderr (no-op
/// while disabled). Printed under the reporter lock so it cannot tear
/// through a concurrent run line.
pub fn experiment_completed(name: &str, wall: std::time::Duration) {
    let guard = lock();
    if guard.is_some() {
        eprintln!("# experiment {name}: {:.1} s wall", wall.as_secs_f64());
    }
    drop(guard);
}

fn lock() -> std::sync::MutexGuard<'static, Option<ProgressState>> {
    // A panic while holding the lock only interrupts a progress print;
    // the data is advisory, so recover the inner state and carry on.
    STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The reporter is global state shared by every test in the process,
    // so keep all assertions in one test body.
    #[test]
    fn lifecycle_and_totals() {
        assert!(!is_enabled());
        assert_eq!(summary(), None);
        // Disabled: started tokens are None and completions are no-ops.
        assert!(run_started().is_none());
        run_completed(None, 1_000, SimDuration::from_secs(10));

        enable();
        assert!(is_enabled());
        begin_setting("test", 2);
        let t0 = run_started();
        assert!(t0.is_some());
        run_completed(t0, 50_000, SimDuration::from_secs(200));
        run_completed(run_started(), 70_000, SimDuration::from_secs(200));
        let s = summary().expect("enabled");
        assert_eq!(s.runs, 2);
        assert_eq!(s.events, 120_000);
        assert!((s.sim_seconds - 400.0).abs() < 1e-9);
        assert!(s.wall_seconds >= 0.0);
        assert!(s.events_per_sec().is_some());
        assert!(s.sim_wall_ratio().is_some());
        experiment_completed("test", std::time::Duration::from_millis(5));

        disable();
        assert!(!is_enabled());
        assert_eq!(summary(), None);
        let empty = CampaignSummary::default();
        assert_eq!(empty.events_per_sec(), None);
        assert_eq!(empty.sim_wall_ratio(), None);
    }
}
