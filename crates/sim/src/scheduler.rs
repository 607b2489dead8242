use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{SimDuration, SimTime};

/// A stable discrete-event queue with an embedded clock.
///
/// Events scheduled for the same instant dequeue in the order they were
/// scheduled (FIFO), making runs deterministic regardless of heap
/// internals. Popping an event advances the clock to its timestamp; the
/// clock never moves backwards, and scheduling into the past is a panic
/// (it is always a model bug).
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Min-heap by (time, seq): BinaryHeap is a max-heap, so invert.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: event at {at} but clock is {now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` after `delay` from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "heap yielded an event from the past");
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event only if it occurs at or before `horizon`.
    ///
    /// Useful for running a simulation "until time T" while leaving later
    /// events queued.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(3), "c");
        s.schedule_at(SimTime::from_ticks(1), "a");
        s.schedule_at(SimTime::from_ticks(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.processed(), 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(SimTime::from_ticks(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(10), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_ticks(10));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(10), 1u8);
        s.pop();
        s.schedule_at(SimTime::from_ticks(9), 2u8);
    }

    #[test]
    fn schedule_in_is_relative_to_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(4), "first");
        s.pop();
        s.schedule_in(SimDuration::from_ticks(6), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_ticks(10));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(1), "in");
        s.schedule_at(SimTime::from_ticks(9), "out");
        assert!(s.pop_until(SimTime::from_ticks(5)).is_some());
        assert!(s.pop_until(SimTime::from_ticks(5)).is_none());
        assert_eq!(
            s.peek_time(),
            Some(SimTime::from_ticks(9)),
            "later event stays queued"
        );
    }

    #[test]
    fn run_until_handles_cascading_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ticks(0), 0u32);
        let mut handled = 0;
        while let Some((_, n)) = s.pop_until(SimTime::from_ticks(10)) {
            if n < 5 {
                s.schedule_in(SimDuration::from_ticks(2), n + 1);
            }
            handled += 1;
        }
        assert_eq!(handled, 6, "0,1,2,3,4,5 at t=0,2,4,6,8,10");
        assert_eq!(s.now(), SimTime::from_ticks(10));
    }
}
