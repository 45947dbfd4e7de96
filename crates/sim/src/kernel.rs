//! The discrete-event simulation loop.

use crate::{EventQueue, SimDuration, SimTime};

/// The discrete-event kernel: an event queue plus the simulation clock.
///
/// The kernel is deliberately minimal — it owns *when* things happen, not
/// *what* happens. Callers pop events and dispatch them against their own
/// world state, which keeps borrow-checking simple (the kernel is never
/// borrowed while the world mutates):
///
/// ```
/// use geonet_sim::{Kernel, SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut k = Kernel::new();
/// k.schedule_in(SimDuration::from_secs(1), Ev::Tick(1));
/// let mut fired = vec![];
/// while let Some((t, ev)) = k.pop() {
///     fired.push((t, ev));
///     if t < SimTime::from_secs(3) {
///         k.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
///     }
/// }
/// assert_eq!(fired.len(), 3);
/// assert_eq!(k.now(), SimTime::from_secs(3));
/// ```
#[derive(Debug)]
pub struct Kernel<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
    processed: u64,
    /// The `(time, insertion sequence)` key of the last popped event.
    last_key: Option<(SimTime, u64)>,
}

impl<E> Kernel<E> {
    /// Creates a kernel with the clock at zero and no end-of-run horizon.
    #[must_use]
    pub fn new() -> Self {
        Kernel {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
            processed: 0,
            last_key: None,
        }
    }

    /// Creates a kernel that stops delivering events after `horizon`.
    ///
    /// Events scheduled past the horizon stay in the queue but are never
    /// popped; [`Kernel::pop`] returns `None` once the next event would
    /// exceed the horizon. The paper's runs use a 200 s horizon.
    #[must_use]
    pub fn with_horizon(horizon: SimTime) -> Self {
        Kernel {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: Some(horizon),
            processed: 0,
            last_key: None,
        }
    }

    /// The current simulation time (the timestamp of the last popped
    /// event, or zero).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon, if any.
    #[must_use]
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// The `(time, insertion sequence)` key of the last popped event, or
    /// `None` before the first pop. An event queued at the same time with
    /// a smaller key has already popped; one with a larger key has not.
    #[must_use]
    pub fn last_key(&self) -> Option<(SimTime, u64)> {
        self.last_key
    }

    /// The sequence number the next schedule call or [`Kernel::reserve`]
    /// takes: every event queued so far holds a smaller one.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.queue.next_seq()
    }

    /// Moves the clock forward to `t` without popping anything — for a
    /// caller that accounts for events it keeps outside the queue and
    /// has just passed one due at `t`. Later relative schedules count
    /// from `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current time or after the next
    /// pending event.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advancing into the past: {t} < {}", self.now);
        if let Some(next) = self.queue.peek_time() {
            assert!(t <= next, "advancing past a pending event: {t} > {next}");
        }
        self.now = t;
    }

    /// Number of events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of queue entries still pending (including any past the
    /// horizon): the length of the queue's one heap. A group event
    /// queued under reserved sequence numbers counts once, however many
    /// members it stands for.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Every pending event with its `(time, insertion sequence)` key, in
    /// unspecified order — input to the audit layer's event-queue digest
    /// (see [`EventQueue::pending_events`]).
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        self.queue.pending_events()
    }

    /// Reserves `n` consecutive insertion sequence numbers and returns the
    /// first (see [`EventQueue::reserve`]).
    pub fn reserve(&mut self, n: u64) -> u64 {
        self.queue.reserve(n)
    }

    /// Schedules `event` at the absolute time `at` under a reserved
    /// sequence number (see [`EventQueue::push_reserved`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.queue.push_reserved(at, seq, event);
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time — scheduling
    /// into the past is always a logic error.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.queue.push(at, event);
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// The timestamp of the next pending event, disregarding the horizon.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event and advances the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty or the next event lies past
    /// the horizon (in which case the clock is advanced to the horizon so
    /// that `now()` reports the full run length).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self.queue.peek_time()?;
        if let Some(h) = self.horizon {
            if next > h {
                self.now = h;
                return None;
            }
        }
        let (t, seq, e) = self.queue.pop_keyed().expect("peeked time implies an event");
        self.now = t;
        self.last_key = Some((t, seq));
        self.processed += 1;
        Some((t, e))
    }
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut k = Kernel::new();
        k.schedule_at(SimTime::from_secs(2), 'b');
        k.schedule_at(SimTime::from_secs(1), 'a');
        assert_eq!(k.now(), SimTime::ZERO);
        assert_eq!(k.pop(), Some((SimTime::from_secs(1), 'a')));
        assert_eq!(k.now(), SimTime::from_secs(1));
        assert_eq!(k.pop(), Some((SimTime::from_secs(2), 'b')));
        assert_eq!(k.pop(), None);
        assert_eq!(k.events_processed(), 2);
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut k = Kernel::with_horizon(SimTime::from_secs(200));
        k.schedule_at(SimTime::from_secs(199), 1);
        k.schedule_at(SimTime::from_secs(201), 2);
        assert_eq!(k.pop(), Some((SimTime::from_secs(199), 1)));
        assert_eq!(k.pop(), None);
        assert_eq!(k.now(), SimTime::from_secs(200));
        assert_eq!(k.pending(), 1, "past-horizon event remains queued");
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut k = Kernel::with_horizon(SimTime::from_secs(10));
        k.schedule_at(SimTime::from_secs(10), ());
        assert!(k.pop().is_some());
    }

    #[test]
    fn scheduling_after_the_horizon_stop_still_drains_in_order() {
        let h = SimTime::from_micros(100);
        let mut k = Kernel::with_horizon(h);
        k.schedule_at(SimTime::from_micros(95), 'a');
        k.schedule_at(SimTime::from_micros(200), 'z');
        assert_eq!(k.pop(), Some((SimTime::from_micros(95), 'a')));
        assert_eq!(k.pop(), None);
        assert_eq!(k.now(), h);
        // The clock sits at the horizon, 5 µs past the last popped event.
        k.schedule_in(SimDuration::ZERO, 'b');
        k.schedule_in(SimDuration::ZERO, 'c');
        assert_eq!(k.peek_time(), Some(h));
        assert_eq!(k.pop(), Some((h, 'b')));
        assert_eq!(k.pop(), Some((h, 'c')));
        assert_eq!(k.pop(), None);
        assert_eq!(k.pending(), 1, "past-horizon event remains queued");
        assert_eq!(k.events_processed(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_into_past_panics() {
        let mut k = Kernel::new();
        k.schedule_at(SimTime::from_secs(5), ());
        let _ = k.pop();
        k.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut k = Kernel::new();
        k.schedule_in(SimDuration::from_secs(1), 'a');
        let _ = k.pop();
        k.schedule_in(SimDuration::from_secs(1), 'b');
        assert_eq!(k.pop(), Some((SimTime::from_secs(2), 'b')));
    }

    #[test]
    fn reserved_group_pops_at_its_first_members_place() {
        let mut k = Kernel::new();
        k.schedule_in(SimDuration::from_micros(2), 'a');
        let first = k.reserve(3);
        k.schedule_in(SimDuration::from_micros(2), 'z');
        // Members 0 and 2 arrive at 2 µs, member 1 at 1 µs.
        k.schedule_reserved(SimTime::from_micros(2), first, 'g');
        k.schedule_reserved(SimTime::from_micros(1), first + 1, 'h');
        assert_eq!(k.pending(), 4);
        let order: Vec<char> = std::iter::from_fn(|| k.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['h', 'a', 'g', 'z']);
    }

    #[test]
    fn last_key_names_the_popped_event() {
        let mut k = Kernel::new();
        assert_eq!(k.last_key(), None);
        k.schedule_in(SimDuration::from_micros(3), 'a'); // seq 0
        let first = k.reserve(2); // seqs 1, 2
        k.schedule_in(SimDuration::from_micros(3), 'b'); // seq 3
        k.schedule_reserved(SimTime::from_micros(3), first + 1, 'g');
        assert_eq!(k.next_seq(), 4);
        let mut keys = vec![];
        while let Some((_, e)) = k.pop() {
            keys.push((e, k.last_key().unwrap()));
        }
        let at = SimTime::from_micros(3);
        assert_eq!(keys, [('a', (at, 0)), ('g', (at, 2)), ('b', (at, 3))]);
    }

    #[test]
    fn advance_to_moves_the_clock_without_popping() {
        let mut k = Kernel::new();
        k.schedule_at(SimTime::from_micros(10), 'a');
        k.advance_to(SimTime::from_micros(4));
        assert_eq!(k.now(), SimTime::from_micros(4));
        assert_eq!(k.events_processed(), 0);
        assert_eq!(k.last_key(), None);
        // Relative schedules now count from the advanced clock.
        k.schedule_in(SimDuration::from_micros(1), 'b');
        assert_eq!(k.pop(), Some((SimTime::from_micros(5), 'b')));
        // Up to the next pending event is allowed.
        k.advance_to(SimTime::from_micros(10));
        assert_eq!(k.pop(), Some((SimTime::from_micros(10), 'a')));
    }

    #[test]
    fn advance_to_the_horizon_after_a_horizon_stop() {
        let h = SimTime::from_micros(100);
        let mut k = Kernel::with_horizon(h);
        k.schedule_at(SimTime::from_micros(90), 'a');
        k.schedule_at(SimTime::from_micros(101), 'z');
        assert_eq!(k.pop(), Some((SimTime::from_micros(90), 'a')));
        // A caller that passed its own arrival at 95 µs catches up; the
        // last popped event keeps its key.
        k.advance_to(SimTime::from_micros(95));
        assert_eq!(k.last_key(), Some((SimTime::from_micros(90), 0)));
        // ... and the horizon stop still lands on the horizon.
        assert_eq!(k.pop(), None);
        assert_eq!(k.now(), h);
        k.advance_to(h);
        assert_eq!(k.now(), h);
        assert_eq!(k.last_key(), Some((SimTime::from_micros(90), 0)));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_a_pending_event_panics() {
        let mut k = Kernel::new();
        k.schedule_at(SimTime::from_micros(10), ());
        k.advance_to(SimTime::from_micros(11));
    }

    #[test]
    #[should_panic(expected = "advancing into the past")]
    fn advance_into_the_past_panics() {
        let mut k = Kernel::new();
        k.schedule_at(SimTime::from_micros(10), ());
        let _ = k.pop();
        k.advance_to(SimTime::from_micros(9));
    }

    #[test]
    fn default_is_new() {
        let k: Kernel<()> = Kernel::default();
        assert_eq!(k.now(), SimTime::ZERO);
        assert_eq!(k.pending(), 0);
    }
}
