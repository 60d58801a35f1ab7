//! The engine's event queue: a sorted run of near events beside one
//! heap of far ones, under one `(time, seq)` order.
//!
//! Which side an event goes to is its kind's, decided by the caller.
//! Near events are due soon and few are pending: the engine's quantum
//! ends (at most one per core) and message deliveries (one channel
//! latency out). They are 93 % of the events a live-stack run fires,
//! and 1.3 of them wait at a pop on average, so they sit in a short
//! `Vec` (`near`) kept sorted latest first: the next one is the last
//! entry, and an insert shifts nothing or one entry. Far events wait
//! long, and hundreds are pending: think-time timers, receive and
//! condition deadlines, crashes. They go through a binary heap that
//! holds each payload in its entry.
//!
//! Both draw `seq` from one counter, in the order the pushes are made,
//! and [`EventQueue::pop_due`] takes whichever head has the smaller
//! `(time, seq)`. The pop sequence is therefore exactly that of a single
//! heap ordered by `(time, seq)` — same-instant events fire in the order
//! they were scheduled — whatever mix of the two sides is pending.
//!
//! Nothing is pre-sized: the run and the heap start empty and grow on
//! demand.

use crate::time::Cycles;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending event with payload `P`, ordered by `(at, seq)` alone:
/// `seq` is unique, so the payload never decides.
struct Entry<P> {
    at: Cycles,
    seq: u64,
    p: P,
}

impl<P> Entry<P> {
    fn key(&self) -> (Cycles, u64) {
        (self.at, self.seq)
    }
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<P> Eq for Entry<P> {}

impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// What [`EventQueue::pop_due`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Due<N, E> {
    /// Nothing is pending.
    Empty,
    /// The earliest pending event is later than the limit; it stays
    /// queued.
    Later,
    /// A near event fired at the given time.
    Near(Cycles, N),
    /// A far event fired at the given time.
    Event(Cycles, E),
}

/// Pending events of a simulation: near ones with payload `N`, far ones
/// with payload `E`.
pub struct EventQueue<N, E> {
    seq: u64,
    /// Sorted by `(at, seq)`, latest first: the next to fire is last.
    near: Vec<Entry<N>>,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    peak_near: usize,
    peak_events: usize,
}

impl<N, E> Default for EventQueue<N, E> {
    fn default() -> Self {
        EventQueue {
            seq: 0,
            near: Vec::new(),
            heap: BinaryHeap::new(),
            peak_near: 0,
            peak_events: 0,
        }
    }
}

impl<N, E> EventQueue<N, E> {
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules a near event at `at`: in front of every entry not
    /// later than `at`. Its `seq` is the largest yet, so among entries
    /// of the same time it pops after every older one.
    pub fn push_near(&mut self, at: Cycles, n: N) {
        let seq = self.next_seq();
        let i = self.near.partition_point(|k| k.at > at);
        self.near.insert(i, Entry { at, seq, p: n });
        self.peak_near = self.peak_near.max(self.near.len());
    }

    /// Schedules a far event at `at`.
    pub fn push(&mut self, at: Cycles, e: E) {
        let seq = self.next_seq();
        self.heap.push(Reverse(Entry { at, seq, p: e }));
        self.peak_events = self.peak_events.max(self.heap.len());
    }

    /// Pops the pending event with the smallest `(time, seq)` if its
    /// time is at or before `limit`. An event past the limit is only
    /// looked at, never moved.
    pub fn pop_due(&mut self, limit: Cycles) -> Due<N, E> {
        let n = self.near.last().map(Entry::key);
        let e = self.heap.peek().map(|Reverse(k)| k.key());
        let (at, near) = match (n, e) {
            (None, None) => return Due::Empty,
            (Some(n), None) => (n.0, true),
            (None, Some(e)) => (e.0, false),
            (Some(n), Some(e)) => {
                if n < e {
                    (n.0, true)
                } else {
                    (e.0, false)
                }
            }
        };
        if at > limit {
            return Due::Later;
        }
        if near {
            let k = self.near.pop().expect("peeked above");
            Due::Near(at, k.p)
        } else {
            let Reverse(k) = self.heap.pop().expect("peeked above");
            Due::Event(at, k.p)
        }
    }

    /// Longest the sorted run of near events has been.
    pub fn peak_near(&self) -> usize {
        self.peak_near
    }

    /// Longest the heap of far events has been.
    pub fn peak_events(&self) -> usize {
        self.peak_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_instant_fires_in_scheduling_order_across_both_sides() {
        let mut q: EventQueue<u32, u32> = EventQueue::default();
        q.push(10, 0);
        q.push_near(10, 1);
        q.push(10, 2);
        q.push_near(5, 3);
        assert_eq!(q.pop_due(4), Due::Later);
        assert_eq!(q.pop_due(5), Due::Near(5, 3));
        assert_eq!(q.pop_due(9), Due::Later);
        assert_eq!(q.pop_due(10), Due::Event(10, 0));
        assert_eq!(q.pop_due(10), Due::Near(10, 1));
        assert_eq!(q.pop_due(10), Due::Event(10, 2));
        assert_eq!(q.pop_due(10), Due::Empty);
    }

    #[test]
    fn a_crowded_instant_pops_in_push_order() {
        let mut q: EventQueue<u32, u32> = EventQueue::default();
        for i in 0..32 {
            if i % 2 == 0 {
                q.push_near(7, i);
            } else {
                q.push(7, i);
            }
        }
        assert_eq!(q.peak_near(), 16);
        for i in 0..32 {
            let want = if i % 2 == 0 {
                Due::Near(7, i)
            } else {
                Due::Event(7, i)
            };
            assert_eq!(q.pop_due(7), want);
        }
        assert_eq!(q.pop_due(u64::MAX), Due::Empty);
    }

    #[test]
    fn peaks_are_remembered() {
        let mut q: EventQueue<(), u32> = EventQueue::default();
        for round in 0..3 {
            q.push(round, 1);
            q.push(round, 2);
            assert_eq!(q.pop_due(round), Due::Event(round, 1));
            assert_eq!(q.pop_due(round), Due::Event(round, 2));
        }
        assert_eq!(q.peak_events(), 2);
        assert_eq!(q.peak_near(), 0);
    }
}
