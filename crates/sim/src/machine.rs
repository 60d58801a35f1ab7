//! Machines and CPU scheduling (pure logic).
//!
//! Each machine has `cores` CPUs and a round-robin run queue of threads
//! with outstanding compute work. The engine asks for dispatch
//! decisions; a dispatched thread runs one quantum (or its remaining
//! work, whichever is smaller) and either re-queues or completes. Under
//! saturation, throughput flattens at the machine's aggregate core
//! capacity — this queueing behaviour is what produces the knees in
//! Figure 12.

use crate::time::{Cycles, MachineId};
use std::collections::VecDeque;
use whodunit_core::ids::ThreadId;

#[derive(Debug)]
struct MachineState {
    cores: u32,
    busy: u32,
    runq: VecDeque<(ThreadId, Cycles)>,
    busy_cycles: u64,
}

/// All machines of a simulation.
#[derive(Debug, Default)]
pub struct MachineTable {
    machines: Vec<MachineState>,
}

/// A dispatch decision: run `thread` for `slice` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispatch {
    /// The thread to run.
    pub thread: ThreadId,
    /// Slice length.
    pub slice: Cycles,
    /// Work remaining after the slice.
    pub remaining: Cycles,
}

impl MachineTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a machine with `cores` CPUs.
    pub fn add(&mut self, cores: u32) -> MachineId {
        assert!(cores > 0, "a machine needs at least one core");
        self.machines.push(MachineState {
            cores,
            busy: 0,
            runq: VecDeque::new(),
            busy_cycles: 0,
        });
        MachineId((self.machines.len() - 1) as u32)
    }

    /// Queues `work` cycles of compute for `thread`.
    pub fn enqueue(&mut self, m: MachineId, thread: ThreadId, work: Cycles) {
        self.machines[m.0 as usize].runq.push_back((thread, work));
    }

    /// Dispatches the next queued thread onto a free core, or returns
    /// `None` when no core is free or nothing is queued; the caller
    /// loops until then. Each decision must be followed by
    /// [`MachineTable::complete_slice`] when its slice ends.
    pub fn dispatch(&mut self, m: MachineId, quantum: Cycles) -> Option<Dispatch> {
        let st = &mut self.machines[m.0 as usize];
        if st.busy >= st.cores {
            return None;
        }
        let (thread, work) = st.runq.pop_front()?;
        let slice = work.min(quantum).max(1);
        st.busy += 1;
        st.busy_cycles += slice;
        Some(Dispatch {
            thread,
            slice,
            remaining: work.saturating_sub(slice),
        })
    }

    /// A slice ended for a thread that no longer exists (crashed
    /// mid-burst): frees the core without re-queueing the remainder.
    pub fn abandon_slice(&mut self, m: MachineId, _d: Dispatch) {
        self.machines[m.0 as usize].busy -= 1;
    }

    /// A slice ended; re-queues the thread if work remains. Returns
    /// `true` if the thread's compute is complete.
    pub fn complete_slice(&mut self, m: MachineId, d: Dispatch) -> bool {
        let st = &mut self.machines[m.0 as usize];
        st.busy -= 1;
        if d.remaining > 0 {
            st.runq.push_back((d.thread, d.remaining));
            false
        } else {
            true
        }
    }

    /// Drops `t`'s queued — not yet dispatched — work from every run
    /// queue (process crash). An in-flight slice is unaffected: its
    /// `QuantumEnd` still fires and frees the core, but a crashed
    /// thread is never resumed or re-queued afterwards.
    pub fn purge_thread(&mut self, t: ThreadId) {
        for st in &mut self.machines {
            st.runq.retain(|&(q, _)| q != t);
        }
    }

    /// Total cycles this machine's cores have been busy.
    pub fn busy_cycles(&self, m: MachineId) -> u64 {
        self.machines[m.0 as usize].busy_cycles
    }

    /// Core count.
    pub fn cores(&self, m: MachineId) -> u32 {
        self.machines[m.0 as usize].cores
    }

    /// Current run-queue length (excluding running threads).
    pub fn queue_len(&self, m: MachineId) -> usize {
        self.machines[m.0 as usize].runq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_round_robin() {
        let mut mt = MachineTable::new();
        let m = mt.add(1);
        mt.enqueue(m, ThreadId(1), 250);
        mt.enqueue(m, ThreadId(2), 90);
        let d = mt.dispatch(m, 100).expect("a free core and queued work");
        assert_eq!(
            d,
            Dispatch {
                thread: ThreadId(1),
                slice: 100,
                remaining: 150
            }
        );
        // No further dispatch while the core is busy.
        assert_eq!(mt.dispatch(m, 100), None, "one core, one dispatch");
        assert!(!mt.complete_slice(m, d));
        // Round robin: thread 2 goes next.
        let d = mt.dispatch(m, 100).expect("the core is free again");
        assert_eq!(d.thread, ThreadId(2));
        assert_eq!(d.slice, 90);
        assert!(mt.complete_slice(m, d));
    }

    #[test]
    fn multicore_dispatches_in_parallel() {
        let mut mt = MachineTable::new();
        let m = mt.add(2);
        mt.enqueue(m, ThreadId(1), 50);
        mt.enqueue(m, ThreadId(2), 50);
        mt.enqueue(m, ThreadId(3), 50);
        let d: Vec<Dispatch> = std::iter::from_fn(|| mt.dispatch(m, 100)).collect();
        assert_eq!(d.len(), 2);
        assert_eq!(mt.queue_len(m), 1);
    }

    #[test]
    fn zero_work_still_runs_one_cycle() {
        // Degenerate compute bursts keep the event loop moving.
        let mut mt = MachineTable::new();
        let m = mt.add(1);
        mt.enqueue(m, ThreadId(1), 0);
        let d = mt.dispatch(m, 100).expect("dispatched");
        assert_eq!(d.slice, 1);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut mt = MachineTable::new();
        let m = mt.add(1);
        mt.enqueue(m, ThreadId(1), 300);
        let d = mt.dispatch(m, 100).expect("dispatched");
        mt.complete_slice(m, d);
        let d = mt.dispatch(m, 100).expect("dispatched");
        mt.complete_slice(m, d);
        assert_eq!(mt.busy_cycles(m), 200);
    }
}
