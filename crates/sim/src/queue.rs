//! A deterministic event priority queue.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a time, ordered by `(time, insertion sequence)`.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// `(time, seq)` as one integer: a single branch-free comparison per
    /// step of a heap sift.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event.
        // Ties broken by insertion sequence for determinism.
        other.key().cmp(&self.key())
    }
}

/// A priority queue of timestamped events with a deterministic total order.
///
/// Events with equal timestamps are popped in the order they were pushed,
/// which makes every simulation run a pure function of its inputs: no
/// dependence on hash ordering, allocation addresses or platform `sort`
/// stability. The pending events sit in one binary heap ordered by
/// `(time, insertion sequence)`.
///
/// [`EventQueue::reserve`] hands out a block of sequence numbers ahead of
/// time, and [`EventQueue::push_reserved`] queues an event under one of
/// them. A caller with `n` events that would have been pushed back to
/// back can reserve `n` numbers and push one *group* event per distinct
/// timestamp under the number of its first member: no other event holds
/// a number inside the block, so each group pops exactly where its first
/// member would have, and its remaining members would have followed it
/// immediately.
///
/// # Example
///
/// ```
/// use geonet_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(10), "b");
/// q.push(SimTime::from_millis(10), "c");
/// q.push(SimTime::from_millis(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.reserve(1);
        self.push_reserved(time, seq, event);
    }

    /// Reserves `n` consecutive insertion sequence numbers and returns the
    /// first. Later pushes order after all of them.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `event` at `time` under `seq`, a number inside a block
    /// returned by an earlier [`EventQueue::reserve`]. The event pops
    /// exactly where a plain push that took `seq` would have.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, event)| (time, event))
    }

    /// Removes and returns the earliest event with its full
    /// `(time, insertion sequence)` key, or `None` if empty.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|s| (s.time, s.seq, s.event))
    }

    /// The sequence number the next [`EventQueue::push`] or
    /// [`EventQueue::reserve`] hands out: every number below it is taken.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of queue entries; a group counts once.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every pending event with its `(time, insertion sequence)` key, in
    /// unspecified order (the heap's internal layout). The audit layer
    /// folds the keys through an order-independent combiner to digest the
    /// queue's contents without draining it; the event lets it expand a
    /// group back into its members' keys.
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        self.heap.iter().map(|s| (s.time, s.seq, &s.event))
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    fn drain(q: &mut EventQueue<char>) -> Vec<(u64, char)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect()
    }

    #[test]
    fn pop_keyed_reports_each_events_sequence_number() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), 'a'); // seq 0
        let first = q.reserve(3); // seqs 1..=3
        q.push(SimTime::from_micros(2), 'b'); // seq 4
        q.push_reserved(SimTime::from_micros(2), first + 2, 'r'); // pushed after 'b', pops first
        assert_eq!(q.next_seq(), 5);
        let keys: Vec<(u64, u64, char)> =
            std::iter::from_fn(|| q.pop_keyed().map(|(t, seq, e)| (t.as_micros(), seq, e)))
                .collect();
        assert_eq!(keys, [(2, 3, 'r'), (2, 4, 'b'), (5, 0, 'a')]);
        assert_eq!(q.next_seq(), 5, "popping hands out no numbers");
    }

    #[test]
    fn reserved_number_pushed_late_still_pops_first() {
        let mut q = EventQueue::new();
        let early = q.reserve(1);
        q.push(SimTime::from_micros(3), 'b'); // takes the next number
        q.push_reserved(SimTime::from_micros(3), early, 'a');
        q.push(SimTime::from_micros(3), 'c');
        assert_eq!(drain(&mut q), [(3, 'a'), (3, 'b'), (3, 'c')]);
    }

    /// A queue operation for the model test. Push delays are relative to
    /// the floor, the latest time popped so far: `Near` lands a few µs
    /// ahead, as a radio delivery does, `Far` is a timer and `Below` a
    /// push under the floor.
    #[derive(Clone, Debug)]
    enum Op {
        Push(Delay),
        /// Reserves one sequence number per delay and pushes one event per
        /// distinct time under its first member's number, the way a radio
        /// transmission queues its deliveries.
        Group(Vec<Delay>),
        Pop,
        /// Pops up to this many events back to back.
        PopBurst(usize),
        Peek,
    }

    #[derive(Clone, Copy, Debug)]
    enum Delay {
        Near(u64),
        Far(u64),
        Below(u64),
    }

    impl Delay {
        fn time(self, floor: u64) -> u64 {
            match self {
                Delay::Near(d) | Delay::Far(d) => floor + d,
                Delay::Below(d) => floor.saturating_sub(d),
            }
        }
    }

    fn delay() -> impl Strategy<Value = Delay> {
        prop_oneof![
            prop::sample::select(vec![0u64, 1, 2, 7, 8, 9]).prop_map(Delay::Near),
            (10u64..100_000).prop_map(Delay::Far),
            (1u64..20).prop_map(Delay::Below),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            delay().prop_map(Op::Push),
            prop::collection::vec(delay(), 1..12).prop_map(Op::Group),
            Just(Op::Pop),
            (2usize..6).prop_map(Op::PopBurst),
            Just(Op::Peek),
        ]
    }

    proptest! {
        #[test]
        fn prop_interleaved_ops_match_a_sorted_model(ops in prop::collection::vec(op(), 0..300)) {
            // Each queued event lists the sequence numbers of the members
            // it stands for: one for a plain push, several for a group.
            let mut q: EventQueue<Vec<u64>> = EventQueue::new();
            // The model: pending (time, seq) keys of every member pushed
            // one by one, popped by minimum.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let (mut floor, mut seq) = (0u64, 0u64);
            for op in ops {
                let pops = match op {
                    Op::Push(d) => {
                        let t = d.time(floor);
                        q.push(SimTime::from_micros(t), vec![seq]);
                        model.push((t, seq));
                        seq += 1;
                        0
                    }
                    Op::Group(delays) => {
                        let times: Vec<u64> = delays.iter().map(|d| d.time(floor)).collect();
                        let first = q.reserve(times.len() as u64);
                        prop_assert_eq!(first, seq);
                        seq += times.len() as u64;
                        for (i, &t) in times.iter().enumerate() {
                            model.push((t, first + i as u64));
                            if times[..i].contains(&t) {
                                continue;
                            }
                            let members = (i..times.len())
                                .filter(|&j| times[j] == t)
                                .map(|j| first + j as u64)
                                .collect();
                            q.push_reserved(SimTime::from_micros(t), first + i as u64, members);
                        }
                        0
                    }
                    Op::Pop => 1,
                    Op::PopBurst(n) => n,
                    Op::Peek => 0,
                };
                for _ in 0..pops {
                    let Some((t, members)) = q.pop() else {
                        prop_assert!(model.is_empty());
                        break;
                    };
                    for m in members {
                        let want = model.iter().copied().enumerate().min_by_key(|&(_, k)| k);
                        let want = want.map(|(i, _)| model.swap_remove(i));
                        prop_assert_eq!(Some((t.as_micros(), m)), want);
                    }
                    floor = floor.max(t.as_micros());
                }
                let want_peek = model.iter().map(|&(t, _)| t).min();
                prop_assert_eq!(q.peek_time().map(SimTime::as_micros), want_peek);
                prop_assert_eq!(q.len(), q.pending_events().count());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                let mut keys = Vec::new();
                for (t, seq, members) in q.pending_events() {
                    prop_assert_eq!(seq, members[0], "a group is keyed by its first member");
                    keys.extend(members.iter().map(|&m| (t.as_micros(), m)));
                }
                keys.sort_unstable();
                let mut want_keys = model.clone();
                want_keys.sort_unstable();
                prop_assert_eq!(keys, want_keys);
            }
        }

        #[test]
        fn prop_pop_order_is_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
            expected.sort(); // stable key (time, insertion index)
            let mut popped = Vec::new();
            while let Some((t, i)) = q.pop() {
                popped.push((t.as_micros(), i));
            }
            prop_assert_eq!(popped, expected);
        }
    }
}
