//! Lock and condition-variable state (pure logic, no scheduling).
//!
//! Locks support shared/exclusive modes with strict FIFO granting:
//! a request is granted immediately only if it is compatible with the
//! current holders *and* no one is queued ahead of it; releases grant
//! the longest-waiting compatible batch (one exclusive waiter, or every
//! leading shared waiter). FIFO prevents writer starvation, which
//! matters for the TPC-W AdminConfirm experiments (§8.4): the writer
//! must eventually get the MyISAM-style table lock through the reader
//! stream.

use crate::engine::Wake;
use crate::time::{CondId, Cycles};
use std::collections::VecDeque;
use whodunit_core::context::CtxId;
use whodunit_core::ids::{LockId, LockMode, ThreadId};

/// What a lock grant ends for the thread: the wake it resumes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// A lock request ([`crate::Op::Lock`]).
    Lock,
    /// A notified condition wait re-taking its lock.
    Cond,
    /// A timed condition wait that expired, re-taking its lock.
    CondTimedOut,
}

impl WaitKind {
    /// The wake of a grant after `waited` cycles.
    pub fn wake(self, waited: Cycles) -> Wake {
        match self {
            WaitKind::Lock => Wake::LockAcquired { waited },
            WaitKind::Cond => Wake::CondWoken { waited },
            WaitKind::CondTimedOut => Wake::CondTimedOut { waited },
        }
    }
}

/// A queued lock waiter.
#[derive(Clone, Copy, Debug)]
pub struct Waiter {
    /// The waiting thread.
    pub thread: ThreadId,
    /// Requested mode.
    pub mode: LockMode,
    /// When the wait began (or when the condition was notified, for
    /// condition re-acquisition).
    pub since: Cycles,
    /// Crosstalk holder hint captured when the wait began (§7.5).
    pub hint: Option<CtxId>,
    /// What the grant ends, and so the wake it resumes the thread with.
    pub kind: WaitKind,
}

#[derive(Debug, Default)]
struct LockState {
    exclusive: Option<ThreadId>,
    shared: Vec<ThreadId>,
    waiters: VecDeque<Waiter>,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }

    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Exclusive => self.is_free(),
            LockMode::Shared => self.exclusive.is_none(),
        }
    }

    fn hold(&mut self, t: ThreadId, mode: LockMode) {
        match mode {
            LockMode::Exclusive => self.exclusive = Some(t),
            LockMode::Shared => self.shared.push(t),
        }
    }
}

#[derive(Debug, Default)]
struct CondState {
    waiters: VecDeque<(ThreadId, LockId)>,
}

/// The result of a lock request.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire {
    /// Granted immediately (no wait).
    Granted,
    /// Queued behind current holders/waiters.
    Queued,
}

/// All locks and condition variables of a simulation.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: Vec<LockState>,
    conds: Vec<CondState>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new lock.
    pub fn add_lock(&mut self) -> LockId {
        self.locks.push(LockState::default());
        LockId((self.locks.len() - 1) as u32)
    }

    /// Registers a new condition variable.
    pub fn add_cond(&mut self) -> CondId {
        self.conds.push(CondState::default());
        CondId((self.conds.len() - 1) as u32)
    }

    /// Requests `lock` in `mode` for `t`.
    ///
    /// On [`Acquire::Queued`] the caller records the waiter via
    /// [`LockTable::enqueue`].
    pub fn try_acquire(&mut self, t: ThreadId, lock: LockId, mode: LockMode) -> Acquire {
        let st = &mut self.locks[lock.0 as usize];
        if st.waiters.is_empty() && st.compatible(mode) {
            st.hold(t, mode);
            Acquire::Granted
        } else {
            Acquire::Queued
        }
    }

    /// Enqueues a waiter (after [`Acquire::Queued`]).
    pub fn enqueue(&mut self, lock: LockId, w: Waiter) {
        self.locks[lock.0 as usize].waiters.push_back(w);
    }

    /// Releases `lock` held by `t` and grants the next compatible
    /// batch; returns the granted waiters in grant order.
    pub fn release(&mut self, t: ThreadId, lock: LockId) -> Vec<Waiter> {
        let st = &mut self.locks[lock.0 as usize];
        if st.exclusive == Some(t) {
            st.exclusive = None;
        }
        st.shared.retain(|&h| h != t);
        self.grant_batch(lock)
    }

    fn grant_batch(&mut self, lock: LockId) -> Vec<Waiter> {
        let st = &mut self.locks[lock.0 as usize];
        let mut granted = Vec::new();
        while let Some(w) = st.waiters.front().copied() {
            if !st.compatible(w.mode) {
                break;
            }
            st.waiters.pop_front();
            st.hold(w.thread, w.mode);
            granted.push(w);
            // An exclusive grant is alone; shared grants batch.
            if w.mode == LockMode::Exclusive {
                break;
            }
        }
        granted
    }

    /// Whether `t` currently holds `lock` (in either mode).
    pub fn holds(&self, t: ThreadId, lock: LockId) -> bool {
        let st = &self.locks[lock.0 as usize];
        st.exclusive == Some(t) || st.shared.contains(&t)
    }

    /// Number of queued waiters on `lock`.
    pub fn queue_len(&self, lock: LockId) -> usize {
        self.locks[lock.0 as usize].waiters.len()
    }

    /// Adds `t` (which holds and is about to release `lock`) to the
    /// condition's wait set.
    pub fn cond_wait(&mut self, t: ThreadId, cond: CondId, lock: LockId) {
        self.conds[cond.0 as usize].waiters.push_back((t, lock));
    }

    /// Pops up to `n` condition waiters (all if `None`), returning
    /// `(thread, lock to re-acquire)` pairs in wait order.
    pub fn notify(&mut self, cond: CondId, n: Option<usize>) -> Vec<(ThreadId, LockId)> {
        let ws = &mut self.conds[cond.0 as usize].waiters;
        let k = n.unwrap_or(ws.len()).min(ws.len());
        ws.drain(..k).collect()
    }

    /// Removes `t` from the condition's wait set (its timed wait
    /// expired); returns the lock it must re-acquire, or `None` if a
    /// notify already claimed it (the notify wins the race).
    pub fn cond_cancel(&mut self, cond: CondId, t: ThreadId) -> Option<LockId> {
        let ws = &mut self.conds[cond.0 as usize].waiters;
        let pos = ws.iter().position(|&(wt, _)| wt == t)?;
        ws.remove(pos).map(|(_, l)| l)
    }

    /// Number of threads waiting on `cond`.
    pub fn cond_len(&self, cond: CondId) -> usize {
        self.conds[cond.0 as usize].waiters.len()
    }

    /// The lock-wait graph: one `(waiter, lock, holder)` edge for every
    /// queued waiter and every current holder of the lock it waits on.
    /// A cycle in this graph is a deadlock; the engine's
    /// [`crate::Sim::run_until`] searches it at idle instead of
    /// returning silently with wedged threads.
    pub fn wait_edges(&self) -> Vec<(ThreadId, LockId, ThreadId)> {
        let mut edges = Vec::new();
        for (i, st) in self.locks.iter().enumerate() {
            if st.waiters.is_empty() {
                continue;
            }
            let lock = LockId(i as u32);
            for w in &st.waiters {
                if let Some(h) = st.exclusive {
                    edges.push((w.thread, lock, h));
                }
                for &h in &st.shared {
                    edges.push((w.thread, lock, h));
                }
            }
        }
        edges
    }

    /// Erases crashed threads from every queue: they are dropped from
    /// all lock wait queues and condition wait sets, and every lock
    /// they hold is released. Returns, per lock that changed, the
    /// batch of surviving waiters granted as a result.
    pub fn purge_threads(&mut self, victims: &[ThreadId]) -> Vec<(LockId, Vec<Waiter>)> {
        let gone = |t: &ThreadId| victims.contains(t);
        let mut touched = Vec::new();
        for (i, st) in self.locks.iter_mut().enumerate() {
            let n_waiters = st.waiters.len();
            st.waiters.retain(|w| !gone(&w.thread));
            let mut changed = st.waiters.len() != n_waiters;
            if st.exclusive.is_some_and(|e| gone(&e)) {
                st.exclusive = None;
                changed = true;
            }
            let n_shared = st.shared.len();
            st.shared.retain(|h| !gone(h));
            changed |= st.shared.len() != n_shared;
            if changed {
                touched.push(LockId(i as u32));
            }
        }
        for cs in &mut self.conds {
            cs.waiters.retain(|(t, _)| !gone(t));
        }
        touched
            .into_iter()
            .map(|l| (l, self.grant_batch(l)))
            .filter(|(_, granted)| !granted.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const T3: ThreadId = ThreadId(3);

    fn w(t: ThreadId, mode: LockMode) -> Waiter {
        Waiter {
            thread: t,
            mode,
            since: 0,
            hint: None,
            kind: WaitKind::Lock,
        }
    }

    #[test]
    fn exclusive_excludes() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        assert_eq!(lt.try_acquire(T1, l, LockMode::Exclusive), Acquire::Granted);
        assert_eq!(lt.try_acquire(T2, l, LockMode::Exclusive), Acquire::Queued);
        lt.enqueue(l, w(T2, LockMode::Exclusive));
        let granted = lt.release(T1, l);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].thread, T2);
        assert!(lt.holds(T2, l));
    }

    #[test]
    fn shared_holders_coexist() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        assert_eq!(lt.try_acquire(T1, l, LockMode::Shared), Acquire::Granted);
        assert_eq!(lt.try_acquire(T2, l, LockMode::Shared), Acquire::Granted);
        assert!(lt.holds(T1, l) && lt.holds(T2, l));
    }

    #[test]
    fn writer_waits_for_all_readers() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        lt.try_acquire(T1, l, LockMode::Shared);
        lt.try_acquire(T2, l, LockMode::Shared);
        assert_eq!(lt.try_acquire(T3, l, LockMode::Exclusive), Acquire::Queued);
        lt.enqueue(l, w(T3, LockMode::Exclusive));
        assert!(lt.release(T1, l).is_empty(), "one reader still holds");
        let granted = lt.release(T2, l);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].thread, T3);
    }

    #[test]
    fn fifo_prevents_reader_overtake() {
        // Reader arriving after a queued writer must queue behind it.
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        lt.try_acquire(T1, l, LockMode::Shared);
        lt.enqueue(l, w(T2, LockMode::Exclusive));
        assert_eq!(lt.try_acquire(T3, l, LockMode::Shared), Acquire::Queued);
        lt.enqueue(l, w(T3, LockMode::Shared));
        let granted = lt.release(T1, l);
        assert_eq!(granted.len(), 1, "only the writer is granted");
        assert_eq!(granted[0].thread, T2);
        let granted = lt.release(T2, l);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].thread, T3);
    }

    #[test]
    fn shared_grants_batch() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        lt.try_acquire(T1, l, LockMode::Exclusive);
        lt.enqueue(l, w(T2, LockMode::Shared));
        lt.enqueue(l, w(T3, LockMode::Shared));
        let granted = lt.release(T1, l);
        assert_eq!(granted.len(), 2, "leading shared waiters batch");
    }

    #[test]
    fn cond_cancel_races_notify() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        let c = lt.add_cond();
        lt.cond_wait(T1, c, l);
        lt.cond_wait(T2, c, l);
        assert_eq!(lt.cond_cancel(c, T2), Some(l), "timeout removes T2");
        assert_eq!(lt.notify(c, None), vec![(T1, l)], "T2 no longer notifiable");
        assert_eq!(lt.cond_cancel(c, T1), None, "notify already claimed T1");
    }

    #[test]
    fn purge_releases_holdings_and_grants_survivors() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        lt.try_acquire(T1, l, LockMode::Exclusive);
        lt.enqueue(l, w(T2, LockMode::Exclusive));
        lt.enqueue(l, w(T3, LockMode::Exclusive));
        // T1 (holder) and T2 (front waiter) crash; T3 must be granted.
        let granted = lt.purge_threads(&[T1, T2]);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, l);
        assert_eq!(granted[0].1.len(), 1);
        assert_eq!(granted[0].1[0].thread, T3);
        assert!(lt.holds(T3, l));
    }

    #[test]
    fn purge_removes_mid_queue_waiter_without_granting() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        lt.try_acquire(T1, l, LockMode::Exclusive);
        lt.enqueue(l, w(T2, LockMode::Exclusive));
        let granted = lt.purge_threads(&[T2]);
        assert!(granted.is_empty(), "T1 still holds; nothing to grant");
        assert_eq!(lt.queue_len(l), 0);
        assert!(lt.holds(T1, l));
    }

    #[test]
    fn purge_clears_cond_waiters() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        let c = lt.add_cond();
        lt.cond_wait(T1, c, l);
        lt.cond_wait(T2, c, l);
        lt.purge_threads(&[T1]);
        assert_eq!(lt.notify(c, None), vec![(T2, l)]);
    }

    #[test]
    fn cond_wait_and_notify() {
        let mut lt = LockTable::new();
        let l = lt.add_lock();
        let c = lt.add_cond();
        lt.cond_wait(T1, c, l);
        lt.cond_wait(T2, c, l);
        assert_eq!(lt.cond_len(c), 2);
        let woken = lt.notify(c, Some(1));
        assert_eq!(woken, vec![(T1, l)]);
        let woken = lt.notify(c, None);
        assert_eq!(woken, vec![(T2, l)]);
        assert_eq!(lt.cond_len(c), 0);
    }
}
