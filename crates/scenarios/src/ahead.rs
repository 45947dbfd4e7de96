//! The mobility plane ahead of the network plane (DESIGN.md, "Mobility
//! plane ahead").
//!
//! The traffic simulation is open-loop: [`TrafficSim::step`] reads nothing
//! from the radio, the routers or any random stream. So a world with a
//! spare core hands a clone of its traffic to a helper thread, which steps
//! it a few steps ahead into a fixed ring of [`StepOutput`] buffers; the
//! world only [applies](TrafficSim::apply) each finished step. The helper
//! runs the same `step` on an exact copy of the same state, so the applied
//! state is the one stepping in place leaves, bit for bit.
//!
//! Neither side spins. The helper parks once the ring is full and the
//! world wakes it when a quarter of the ring is left, so a wake-up buys a
//! batch of steps; the world parks only when it catches up with the
//! helper.

use crate::parallel;
use geonet_traffic::{StepOutput, TrafficSim};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Bytes of vehicle motion the ring may hold: 13 steps of a road of ~270
/// vehicles (the paper's two-way road), 4 of one of ~1.3k.
const RING_BYTES: usize = 64 * 1024;
/// The fewest and the most steps the helper may run ahead.
const MIN_SLOTS: usize = 4;
const MAX_SLOTS: usize = 16;

/// Helpers running in this process, across all worlds.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Counters of a world's mobility plane ([`World::mobility_stats`]).
/// They depend on whether a core was spare, never on timing.
///
/// [`World::mobility_stats`]: crate::World::mobility_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MobilityStats {
    /// Traffic steps applied from a helper's ring.
    pub ahead_steps: u64,
    /// Traffic steps computed on the world's thread.
    pub inline_steps: u64,
    /// Helpers stopped by a traffic mutation (a hazard or an entry gate);
    /// each is started again from a fresh clone at the next step, if a
    /// core is still spare.
    pub restarts: u64,
}

/// What the world and its helper share.
struct Shared {
    /// The ring: step `k` lives in slot `k % slots.len()`. The counters
    /// below hand each slot to one side at a time, so its lock never
    /// contends. A lock poisoned by a panic is taken over: the world
    /// reads only slots the helper finished, and `step_into` overwrites
    /// every field of the slot it fills.
    slots: Vec<Mutex<StepOutput>>,
    /// Steps left in the ring when the world wakes a parked helper.
    wake_at: usize,
    /// Steps the helper has finished.
    produced: AtomicUsize,
    /// Steps the world has applied.
    consumed: AtomicUsize,
    stop: AtomicBool,
    /// The helper is parked (or about to park) on a full ring.
    helper_parked: AtomicBool,
    /// The world is parked (or about to park) on an empty ring.
    world_waiting: AtomicBool,
    /// The helper has returned or panicked.
    exited: AtomicBool,
    world: Thread,
}

/// Sets [`Shared::exited`] however the helper leaves, so that a world
/// waiting on a helper that panicked wakes up to rethrow the panic.
struct ExitGuard<'a>(&'a Shared);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.exited.store(true, SeqCst);
        if self.0.world_waiting.load(SeqCst) {
            self.0.world.unpark();
        }
    }
}

/// A running helper, owned by one world. Dropping it stops and joins the
/// helper, discarding the steps it ran ahead.
pub(crate) struct Ahead {
    shared: Arc<Shared>,
    helper: Option<JoinHandle<()>>,
}

#[cfg(test)]
thread_local! {
    /// Overrides the spare-core rule for worlds stepped on this thread.
    static FORCE: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Forces helpers on or off for worlds stepped on the calling thread
/// (`None` restores the spare-core rule).
#[cfg(test)]
pub(crate) fn force(on: Option<bool>) {
    FORCE.set(on);
}

/// Takes a helper slot if a core is spare: fewer live helpers than the
/// cores the campaign pool leaves idle.
fn reserve(eligible: bool) -> bool {
    #[cfg(test)]
    if let Some(on) = FORCE.get() {
        if on {
            LIVE.fetch_add(1, SeqCst);
        }
        return on;
    }
    let spare = parallel::available_jobs().saturating_sub(parallel::jobs());
    eligible && LIVE.fetch_update(SeqCst, SeqCst, |n| (n < spare).then_some(n + 1)).is_ok()
}

impl Ahead {
    /// Starts a helper stepping a clone of `traffic` by `dt`, if a core is
    /// spare and the world is `eligible`.
    pub(crate) fn start(traffic: &TrafficSim, dt: f64, eligible: bool) -> Option<Ahead> {
        if !reserve(eligible) {
            return None;
        }
        // Room for an eighth more vehicles than now before a buffer grows.
        let vehicles = traffic.active_vehicles().count();
        let vehicles = vehicles + vehicles / 8 + 8;
        let slots = (RING_BYTES / (16 * vehicles)).clamp(MIN_SLOTS, MAX_SLOTS);
        let shared = Arc::new(Shared {
            slots: (0..slots).map(|_| Mutex::new(StepOutput::with_capacity(vehicles))).collect(),
            wake_at: slots / 4,
            produced: AtomicUsize::new(0),
            consumed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            helper_parked: AtomicBool::new(false),
            world_waiting: AtomicBool::new(false),
            exited: AtomicBool::new(false),
            world: thread::current(),
        });
        let traffic = traffic.clone();
        let helper_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("mobility".into())
            .spawn(move || run(&helper_shared, traffic, dt));
        match spawned {
            Ok(helper) => Some(Ahead { shared, helper: Some(helper) }),
            Err(_) => {
                LIVE.fetch_sub(1, SeqCst);
                None
            }
        }
    }

    /// Applies the helper's next step to `traffic`, waiting for it if the
    /// helper is behind.
    ///
    /// # Panics
    ///
    /// Rethrows the helper's panic once the steps it finished are used up.
    pub(crate) fn apply_next(&mut self, traffic: &mut TrafficSim) {
        let next = self.shared.consumed.load(SeqCst);
        self.wait_for(next);
        let shared = &*self.shared;
        let slot = &shared.slots[next % shared.slots.len()];
        traffic.apply(&slot.lock().unwrap_or_else(PoisonError::into_inner));
        shared.consumed.store(next + 1, SeqCst);
        let left = shared.produced.load(SeqCst) - (next + 1);
        if left <= shared.wake_at && shared.helper_parked.swap(false, SeqCst) {
            if let Some(helper) = &self.helper {
                helper.thread().unpark();
            }
        }
    }

    /// Returns once the helper has finished step `next`.
    fn wait_for(&mut self, next: usize) {
        loop {
            let shared = &*self.shared;
            // Read `exited` first: a helper that finished the step and
            // then exited is seen to have finished it.
            let exited = shared.exited.load(SeqCst);
            if shared.produced.load(SeqCst) > next {
                return;
            }
            if exited {
                self.rethrow();
            }
            // Announce the wait, then look again: a helper that finished
            // the step in between either sees the flag or is seen here.
            shared.world_waiting.store(true, SeqCst);
            if shared.produced.load(SeqCst) == next && !shared.exited.load(SeqCst) {
                thread::park();
            }
            shared.world_waiting.store(false, SeqCst);
        }
    }

    /// Joins a helper that has exited without finishing the next step and
    /// rethrows its panic.
    fn rethrow(&mut self) -> ! {
        let helper = self.helper.take().expect("a helper that exited is joined once");
        LIVE.fetch_sub(1, SeqCst);
        match helper.join() {
            Err(panic) => resume_unwind(panic),
            Ok(()) => unreachable!("the mobility helper returns only when stopped"),
        }
    }

    /// The state the world shares with its helper.
    #[cfg(test)]
    fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for Ahead {
    fn drop(&mut self) {
        let Some(helper) = self.helper.take() else { return };
        self.shared.stop.store(true, SeqCst);
        helper.thread().unpark();
        let joined = helper.join();
        LIVE.fetch_sub(1, SeqCst);
        // A helper's panic is the world's; rethrown only when this thread
        // is not unwinding already, so it cannot abort the process.
        if let Err(panic) = joined {
            if !thread::panicking() {
                resume_unwind(panic);
            }
        }
    }
}

/// The helper: steps `traffic` into the ring until told to stop.
fn run(shared: &Shared, mut traffic: TrafficSim, dt: f64) {
    let _guard = ExitGuard(shared);
    let slots = shared.slots.len();
    let mut produced = 0;
    while !shared.stop.load(SeqCst) {
        if produced - shared.consumed.load(SeqCst) == slots {
            // Announce the park, then look again: a world that drained
            // the ring in between either sees the flag or is seen here.
            shared.helper_parked.store(true, SeqCst);
            let left = produced - shared.consumed.load(SeqCst);
            if left > shared.wake_at && !shared.stop.load(SeqCst) {
                thread::park();
            }
            shared.helper_parked.store(false, SeqCst);
            continue;
        }
        {
            let slot = &shared.slots[produced % slots];
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            traffic.step_into(dt, &mut slot);
        }
        produced += 1;
        shared.produced.store(produced, SeqCst);
        if shared.world_waiting.load(SeqCst) {
            shared.world.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impact::{self, ImpactCase};
    use crate::safety::{self, SafetyConfig};
    use crate::world::World;
    use crate::Family;
    use geonet_sim::{shared_auditor, Checkpoint, SimDuration, SimTime};
    use std::time::{Duration, Instant};

    /// Builds a world with an auditor sampling every `interval`, runs
    /// `drive` on it with helpers forced `on`, and returns the audit
    /// checkpoints and the mobility counters.
    fn audited(
        on: bool,
        interval: SimDuration,
        build: impl FnOnce() -> World,
        drive: impl FnOnce(&mut World),
    ) -> (Vec<Checkpoint>, MobilityStats) {
        force(Some(on));
        let mut w = build();
        let auditor = shared_auditor(interval);
        w.set_auditor(auditor.clone());
        drive(&mut w);
        force(None);
        let checkpoints = auditor.borrow().samples().to_vec();
        (checkpoints, w.mobility_stats())
    }

    /// Runs a workload with the helper forced off and on: every audit
    /// checkpoint must match. Returns the counters of the helper's run.
    fn helper_is_inert(
        interval: SimDuration,
        build: impl Fn() -> World,
        drive: impl Fn(&mut World),
    ) -> MobilityStats {
        let (inline, off) = audited(false, interval, &build, &drive);
        let (ahead, on) = audited(true, interval, &build, &drive);
        assert!(!inline.is_empty());
        assert_eq!(inline.len(), ahead.len());
        for (a, b) in inline.iter().zip(&ahead) {
            assert_eq!(a, b, "checkpoint at {} differs with the helper", a.at);
        }
        assert_eq!(off.ahead_steps, 0);
        assert_eq!(off.inline_steps, on.ahead_steps + on.inline_steps);
        on
    }

    #[test]
    fn interception_is_identical_with_the_helper() {
        let family = Family::Interception;
        let cfg = family.config(12);
        let on = helper_is_inert(
            SimDuration::from_millis(100),
            || family.world(&cfg, true, 3),
            |w| {
                family.drive(&cfg, w, |_, _| {});
            },
        );
        // The first step runs inline; the helper takes every later one.
        assert_eq!(on.inline_steps, 1);
        assert!(on.ahead_steps > 100);
        assert_eq!(on.restarts, 0);
    }

    #[test]
    fn fig12a_is_identical_with_the_helper_across_its_mutations() {
        for attacked in [false, true] {
            let informed = std::cell::Cell::new(false);
            let on = helper_is_inert(
                SimDuration::from_secs(1),
                || impact::world(ImpactCase::GfNotification, attacked, 60, 7).0,
                |w| {
                    let (_, controller, area) =
                        impact::world(ImpactCase::GfNotification, attacked, 60, 7);
                    let series = impact::drive(w, controller, &area);
                    informed.set(series.informed_at_s.is_some());
                },
            );
            // The hazard, and the entry gate once informed, each restart
            // the helper after one inline step.
            let mutations = 1 + u64::from(informed.get());
            assert_eq!(on.restarts, mutations, "attacked {attacked}");
            assert_eq!(on.inline_steps, 1 + mutations, "attacked {attacked}");
        }
    }

    #[test]
    fn fig13_is_identical_with_the_helper() {
        let cfg = SafetyConfig::default();
        for attacked in [false, true] {
            let on = helper_is_inert(
                SimDuration::from_millis(100),
                || safety::world(&cfg, attacked, 1).0,
                |w| {
                    let nodes = safety::world(&cfg, attacked, 1).1;
                    safety::drive(&cfg, w, nodes);
                },
            );
            // The gate closes before the first step: nothing to restart.
            assert_eq!(on.restarts, 0);
            assert!(on.ahead_steps > 0);
        }
    }

    #[test]
    fn dropping_a_world_with_its_helper_ahead_joins_the_helper() {
        force(Some(true));
        let family = Family::Interception;
        let cfg = family.config(30);
        let mut w = family.world(&cfg, false, 5);
        w.run_until(SimTime::from_secs(2));
        force(None);
        let shared = w.ahead().expect("a forced helper runs").shared();
        // Let the helper finish its batch and park.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !shared.helper_parked.load(SeqCst) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(shared.helper_parked.load(SeqCst), "the helper never parked");
        assert!(shared.produced.load(SeqCst) > shared.consumed.load(SeqCst));
        let started = Instant::now();
        drop(w);
        assert!(started.elapsed() < Duration::from_secs(2), "drop took {:?}", started.elapsed());
        // The helper's own handle on the ring is gone with its thread.
        assert!(shared.exited.load(SeqCst));
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
