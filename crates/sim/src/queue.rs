//! The engine's event queue: a sorted run of quantum ends beside one
//! heap of everything else, under one `(time, seq)` order.
//!
//! Four events in five are quantum ends, and a machine never has more
//! of them pending than it has cores. They wait in a short `Vec`
//! (`quanta`) kept sorted latest first, so the next one is the last
//! entry; everything else goes through the heap, which holds 24-byte
//! `(time, seq, slot)` keys while the payloads (a `Deliver` carries a
//! whole message) wait in a slab and never move during a sift.
//!
//! Both draw `seq` from one counter, in the order the pushes are made,
//! and [`EventQueue::pop_due`] takes whichever head has the smaller
//! `(time, seq)`. The pop sequence is therefore exactly that of a single
//! heap ordered by `(time, seq)` — same-instant events fire in the order
//! they were scheduled — whatever mix of the two kinds is pending.
//!
//! Nothing is pre-sized: the run, the heap, the slab and its free list
//! start empty and grow on demand.

use crate::time::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending quantum end.
struct Quantum<Q> {
    at: Cycles,
    seq: u64,
    q: Q,
}

/// What [`EventQueue::pop_due`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Due<Q, E> {
    /// Nothing is pending.
    Empty,
    /// The earliest pending event is later than the limit; it stays
    /// queued.
    Later,
    /// A quantum end fired at the given time.
    Quantum(Cycles, Q),
    /// Any other event fired at the given time.
    Event(Cycles, E),
}

/// Pending events of a simulation: quantum ends with payload `Q`,
/// everything else with payload `E`.
pub struct EventQueue<Q, E> {
    seq: u64,
    /// Sorted by `(at, seq)`, latest first: the next to fire is last.
    quanta: Vec<Quantum<Q>>,
    /// `(at, seq, slot)`; `seq` is unique, so `slot` never decides.
    heap: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    peak_quanta: usize,
    peak_events: usize,
}

impl<Q, E> Default for EventQueue<Q, E> {
    fn default() -> Self {
        EventQueue {
            seq: 0,
            quanta: Vec::new(),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            peak_quanta: 0,
            peak_events: 0,
        }
    }
}

impl<Q, E> EventQueue<Q, E> {
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules a quantum end at `at`: in front of every entry not
    /// later than `at`. Its `seq` is the largest yet, so among entries
    /// of the same time it pops after every older one.
    pub fn push_quantum(&mut self, at: Cycles, q: Q) {
        let seq = self.next_seq();
        let i = self.quanta.partition_point(|k| k.at > at);
        self.quanta.insert(i, Quantum { at, seq, q });
        self.peak_quanta = self.peak_quanta.max(self.quanta.len());
    }

    /// Schedules any other event at `at`.
    pub fn push(&mut self, at: Cycles, e: E) {
        let seq = self.next_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(e);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("more than u32::MAX pending events");
                self.slab.push(Some(e));
                slot
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        self.peak_events = self.peak_events.max(self.heap.len());
    }

    /// Pops the pending event with the smallest `(time, seq)` if its
    /// time is at or before `limit`. An event past the limit is only
    /// looked at, never moved.
    pub fn pop_due(&mut self, limit: Cycles) -> Due<Q, E> {
        let q = self.quanta.last().map(|k| (k.at, k.seq));
        let e = self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq));
        let (at, quantum) = match (q, e) {
            (None, None) => return Due::Empty,
            (Some(q), None) => (q.0, true),
            (None, Some(e)) => (e.0, false),
            (Some(q), Some(e)) => {
                if q < e {
                    (q.0, true)
                } else {
                    (e.0, false)
                }
            }
        };
        if at > limit {
            return Due::Later;
        }
        if quantum {
            let k = self.quanta.pop().expect("peeked above");
            Due::Quantum(at, k.q)
        } else {
            let Reverse((_, _, slot)) = self.heap.pop().expect("peeked above");
            let e = self.slab[slot as usize]
                .take()
                .expect("a queued key owns a filled slot");
            self.free.push(slot);
            Due::Event(at, e)
        }
    }

    /// Longest the run of quantum ends has been.
    pub fn peak_quanta(&self) -> usize {
        self.peak_quanta
    }

    /// Longest the heap of all other events has been.
    pub fn peak_events(&self) -> usize {
        self.peak_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_heap_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Reverse<(Cycles, u64, u32)>>(), 24);
    }

    #[test]
    fn same_instant_fires_in_scheduling_order_across_both_kinds() {
        let mut q: EventQueue<u32, u32> = EventQueue::default();
        q.push(10, 0);
        q.push_quantum(10, 1);
        q.push(10, 2);
        q.push_quantum(5, 3);
        assert_eq!(q.pop_due(4), Due::Later);
        assert_eq!(q.pop_due(5), Due::Quantum(5, 3));
        assert_eq!(q.pop_due(9), Due::Later);
        assert_eq!(q.pop_due(10), Due::Event(10, 0));
        assert_eq!(q.pop_due(10), Due::Quantum(10, 1));
        assert_eq!(q.pop_due(10), Due::Event(10, 2));
        assert_eq!(q.pop_due(10), Due::Empty);
    }

    #[test]
    fn a_crowded_instant_pops_in_push_order() {
        let mut q: EventQueue<u32, u32> = EventQueue::default();
        for i in 0..32 {
            if i % 2 == 0 {
                q.push_quantum(7, i);
            } else {
                q.push(7, i);
            }
        }
        assert_eq!(q.peak_quanta(), 16);
        for i in 0..32 {
            let want = if i % 2 == 0 {
                Due::Quantum(7, i)
            } else {
                Due::Event(7, i)
            };
            assert_eq!(q.pop_due(7), want);
        }
        assert_eq!(q.pop_due(u64::MAX), Due::Empty);
    }

    #[test]
    fn slots_are_reused_and_peaks_remembered() {
        let mut q: EventQueue<(), u32> = EventQueue::default();
        for round in 0..3 {
            q.push(round, 1);
            q.push(round, 2);
            assert_eq!(q.pop_due(round), Due::Event(round, 1));
            assert_eq!(q.pop_due(round), Due::Event(round, 2));
        }
        assert_eq!(
            q.slab.len(),
            2,
            "freed slots are taken before the slab grows"
        );
        assert_eq!(q.peak_events(), 2);
        assert_eq!(q.peak_quanta(), 0);
    }
}
