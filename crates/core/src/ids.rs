//! Shared identifier vocabulary.
//!
//! These newtypes are the common language spoken between the profiling
//! runtimes in this crate and the execution substrates that drive them
//! (the discrete-event simulator in `whodunit-sim`, the instruction
//! emulator in `whodunit-vm`). Keeping them here lets every crate agree
//! on what a thread, lock, or channel *is* without depending on a
//! particular substrate.

use std::fmt;

/// A simulated thread, unique across the whole simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u32);

/// A simulated process (an application *stage* boundary for profiling).
///
/// Each process has its own profiling runtime, mirroring the paper's
/// per-process preloaded Whodunit library (§7.1). Transaction contexts
/// cross process boundaries only via message synopses (§5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u32);

/// A lock object (mutex or reader-writer lock), unique per simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockId(pub u32);

/// A communication channel (socket or pipe) between two processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChanId(pub u32);

/// The mode in which a lock is requested (§6).
///
/// Shared acquisitions coexist; an exclusive acquisition excludes all
/// others. Plain mutexes always use [`LockMode::Exclusive`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Reader (shared) access.
    Shared,
    /// Writer (exclusive) access.
    Exclusive,
}

/// A table keyed by a small dense id ([`ThreadId`], [`LockId`], a
/// context id): a `Vec` indexed by the id's number, grown on demand, so
/// the profiler's per-hook lookups hash nothing. Iteration is in id
/// order. Only for ids this process hands out itself — the table is as
/// long as the largest id it has seen.
#[derive(Debug)]
pub(crate) struct IdVec<V>(Vec<Option<V>>);

impl<V> Default for IdVec<V> {
    fn default() -> Self {
        IdVec(Vec::new())
    }
}

impl<V> IdVec<V> {
    pub(crate) fn get(&self, id: u32) -> Option<&V> {
        self.0.get(id as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        self.0.get_mut(id as usize)?.as_mut()
    }

    pub(crate) fn insert(&mut self, id: u32, value: V) {
        *self.slot(id) = Some(value);
    }

    /// The slot of `id`, grown to if need be (for `get_or_insert_with`).
    pub(crate) fn slot(&mut self, id: u32) -> &mut Option<V> {
        let i = id as usize;
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        &mut self.0[i]
    }

    pub(crate) fn remove(&mut self, id: u32) -> Option<V> {
        self.0.get_mut(id as usize)?.take()
    }

    /// `(id, value)` of every filled slot, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((i as u32, v.as_ref()?)))
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId(3).to_string(), "t3");
        assert_eq!(ProcId(1).to_string(), "p1");
        assert_eq!(LockId(9).to_string(), "lock9");
        assert_eq!(ChanId(0).to_string(), "chan0");
    }

    #[test]
    fn id_vec_grows_on_demand_and_iterates_in_id_order() {
        let mut v: IdVec<&str> = IdVec::default();
        assert_eq!(v.get(7), None);
        assert_eq!(v.remove(7), None);
        v.insert(5, "five");
        v.insert(2, "two");
        v.slot(9).get_or_insert("nine");
        assert_eq!(v.get(5), Some(&"five"));
        assert_eq!(v.remove(5), Some("five"));
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![(2, &"two"), (9, &"nine")]
        );
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(LockId(1));
        set.insert(LockId(1));
        set.insert(LockId(2));
        assert_eq!(set.len(), 2);
        assert!(ThreadId(1) < ThreadId(2));
    }
}
