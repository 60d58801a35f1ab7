//! Transaction crosstalk (§6, §7.5).
//!
//! Concurrent transactions interfere through lock contention. Whodunit
//! measures, for every lock-acquire that had to wait, *how long* the
//! waiter waited and *which transaction* held the lock, and aggregates
//! the waits per ordered pair `(waiting transaction, holding
//! transaction)` as well as per waiting transaction.
//!
//! The recorder keeps the paper's "dictionary of lock objects" mapping
//! each lock to the transaction context currently holding it in
//! exclusive mode; shared holders are tracked as a set so a writer
//! waiting behind readers is attributed too (the paper's MyISAM case has
//! the reverse as the headline, but both directions occur in TPC-W).

use crate::context::CtxId;
use crate::hash::FnvHashMap;
use crate::ids::{IdVec, LockId, LockMode, ThreadId};
use crate::txt::{push_u64, Sink};

/// Aggregated waiting-time statistics for one ordered context pair or
/// one waiter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Number of waits recorded.
    pub count: u64,
    /// Total cycles waited.
    pub total_wait: u64,
}

impl WaitStats {
    /// Mean wait in cycles (0 for no observations).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct LockHolders {
    exclusive: Option<(ThreadId, CtxId)>,
    shared: FnvHashMap<ThreadId, CtxId>,
}

/// Records transaction crosstalk from lock acquire/release hooks.
#[derive(Debug, Default)]
pub struct CrosstalkRecorder {
    holders: IdVec<LockHolders>,
    /// Ordered pair (waiter context, holder context) → stats.
    pairs: FnvHashMap<(CtxId, CtxId), WaitStats>,
    /// Waiter context → stats, counting *all* acquires of that context
    /// (including uncontended ones) so means match Table 1's
    /// "mean crosstalk wait per transaction".
    waiters: IdVec<WaitStats>,
}

impl CrosstalkRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called when `t` (executing context `ctx`) acquired `lock` after
    /// waiting `waited` cycles.
    ///
    /// `holder_hint` names the context that held the lock when the wait
    /// began (captured by [`CrosstalkRecorder::holder_of`] at request
    /// time); waits with no identifiable holder still count toward the
    /// waiter's aggregate.
    pub fn acquired(
        &mut self,
        t: ThreadId,
        ctx: CtxId,
        lock: LockId,
        mode: LockMode,
        waited: u64,
        holder_hint: Option<CtxId>,
    ) {
        let w = self
            .waiters
            .slot(ctx.0)
            .get_or_insert_with(WaitStats::default);
        w.count += 1;
        w.total_wait += waited;
        if waited > 0 {
            if let Some(holder) = holder_hint {
                let p = self.pairs.entry((ctx, holder)).or_default();
                p.count += 1;
                p.total_wait += waited;
            }
        }
        let h = self
            .holders
            .slot(lock.0)
            .get_or_insert_with(LockHolders::default);
        match mode {
            LockMode::Exclusive => h.exclusive = Some((t, ctx)),
            LockMode::Shared => {
                h.shared.insert(t, ctx);
            }
        }
    }

    /// Called when `t` released `lock`.
    pub fn released(&mut self, t: ThreadId, lock: LockId) {
        if let Some(h) = self.holders.get_mut(lock.0) {
            if matches!(h.exclusive, Some((ht, _)) if ht == t) {
                h.exclusive = None;
            }
            h.shared.remove(&t);
        }
    }

    /// The context blamed for a wait on `lock` right now: the exclusive
    /// holder if any, otherwise an arbitrary-but-deterministic shared
    /// holder (the one with the smallest thread id).
    pub fn holder_of(&self, lock: LockId) -> Option<CtxId> {
        let h = self.holders.get(lock.0)?;
        if let Some((_, ctx)) = h.exclusive {
            return Some(ctx);
        }
        h.shared
            .iter()
            .min_by_key(|(t, _)| **t)
            .map(|(_, ctx)| *ctx)
    }

    /// Per-waiter aggregate stats (all acquires of that context).
    pub fn waiter_stats(&self, ctx: CtxId) -> WaitStats {
        self.waiters.get(ctx.0).copied().unwrap_or_default()
    }

    /// Stats for the ordered pair `(waiter, holder)`.
    pub fn pair_stats(&self, waiter: CtxId, holder: CtxId) -> WaitStats {
        self.pairs
            .get(&(waiter, holder))
            .copied()
            .unwrap_or_default()
    }

    /// Produces a deterministic, sorted report of all pairs and waiters.
    pub fn report(&self) -> CrosstalkReport {
        let mut pairs: Vec<_> = self.pairs.iter().map(|(&(w, h), &s)| (w, h, s)).collect();
        pairs.sort_by_key(|&(w, h, _)| (w, h));
        let waiters = self.waiters.iter().map(|(w, &s)| (CtxId(w), s)).collect();
        CrosstalkReport { pairs, waiters }
    }
}

/// Sorted crosstalk aggregates for presentation.
#[derive(Clone, Debug, Default)]
pub struct CrosstalkReport {
    /// `(waiter ctx, holder ctx, stats)` sorted by ids.
    pub pairs: Vec<(CtxId, CtxId, WaitStats)>,
    /// `(waiter ctx, stats)` sorted by id.
    pub waiters: Vec<(CtxId, WaitStats)>,
}

/// A transaction in the stitched, cross-stage crosstalk view: the
/// `(stage index, context index)` its origin walk resolved to.
pub type OriginKey = (usize, u32);

/// Cross-stage crosstalk aggregates, keyed by *origin* transactions.
///
/// Per-stage dumps record crosstalk between stage-local context
/// indices; the analysis pipeline resolves each side through the
/// stitched origin walk and sums the waits per ordered origin pair, so
/// contention shows up against the transaction entry points users
/// recognize (Table 1's view, but across every tier at once).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrosstalkMatrix {
    /// `(waiter origin, holder origin, stats)` sorted by keys.
    pub pairs: Vec<(OriginKey, OriginKey, WaitStats)>,
    /// `(waiter origin, stats)` sorted by key.
    pub waiters: Vec<(OriginKey, WaitStats)>,
}

impl CrosstalkMatrix {
    /// Renders the matrix as deterministic text; `label` names an
    /// origin (stage, context) for display.
    pub fn render(&self, label: &dyn Fn(usize, u32) -> String) -> String {
        let mut out = String::new();
        self.render_into(&mut out, &|out: &mut String, s, c| {
            out.push_str(&label(s, c))
        });
        out
    }

    /// [`CrosstalkMatrix::render`] writing into any [`Sink`]; `label`
    /// writes an origin's name into the same sink.
    pub fn render_into<S: Sink + ?Sized>(&self, out: &mut S, label: &dyn Fn(&mut S, usize, u32)) {
        let stats = |out: &mut S, s: &WaitStats| {
            push_u64(out, s.count);
            out.put(" total ");
            push_u64(out, s.total_wait);
            out.put_fmt(format_args!(" mean {:.1}\n", s.mean()));
        };
        out.put("crosstalk matrix (waiter <- holder):\n");
        for &((ws, wc), (hs, hc), s) in &self.pairs {
            out.put("  ");
            label(out, ws, wc);
            out.put("  <-  ");
            label(out, hs, hc);
            out.put("  waits ");
            stats(out, &s);
        }
        out.put("waiters:\n");
        for &((ws, wc), s) in &self.waiters {
            out.put("  ");
            label(out, ws, wc);
            out.put("  acquires ");
            stats(out, &s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TA: ThreadId = ThreadId(1);
    const TB: ThreadId = ThreadId(2);
    const CA: CtxId = CtxId(10);
    const CB: CtxId = CtxId(11);
    const L: LockId = LockId(5);

    #[test]
    fn wait_is_attributed_to_exclusive_holder() {
        let mut r = CrosstalkRecorder::new();
        r.acquired(TA, CA, L, LockMode::Exclusive, 0, None);
        let hint = r.holder_of(L);
        assert_eq!(hint, Some(CA));
        r.released(TA, L);
        r.acquired(TB, CB, L, LockMode::Exclusive, 500, hint);
        let p = r.pair_stats(CB, CA);
        assert_eq!(p.count, 1);
        assert_eq!(p.total_wait, 500);
        assert_eq!(r.pair_stats(CA, CB), WaitStats::default());
    }

    #[test]
    fn mean_counts_uncontended_acquires() {
        // Table 1 reports the mean over *all* instances of a
        // transaction type, so uncontended acquires dilute the mean.
        let mut r = CrosstalkRecorder::new();
        r.acquired(TB, CB, L, LockMode::Exclusive, 300, Some(CA));
        r.released(TB, L);
        r.acquired(TB, CB, L, LockMode::Exclusive, 0, None);
        let w = r.waiter_stats(CB);
        assert_eq!(w.count, 2);
        assert_eq!(w.total_wait, 300);
        assert!((w.mean() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn shared_holders_are_blamed_deterministically() {
        let mut r = CrosstalkRecorder::new();
        r.acquired(TB, CB, L, LockMode::Shared, 0, None);
        r.acquired(TA, CA, L, LockMode::Shared, 0, None);
        // Smallest thread id wins: TA holds CA.
        assert_eq!(r.holder_of(L), Some(CA));
        r.released(TA, L);
        assert_eq!(r.holder_of(L), Some(CB));
        r.released(TB, L);
        assert_eq!(r.holder_of(L), None);
    }

    #[test]
    fn exclusive_holder_takes_priority_over_shared() {
        let mut r = CrosstalkRecorder::new();
        r.acquired(TA, CA, L, LockMode::Shared, 0, None);
        r.acquired(TB, CB, L, LockMode::Exclusive, 0, None);
        assert_eq!(r.holder_of(L), Some(CB));
    }

    #[test]
    fn report_is_sorted() {
        let mut r = CrosstalkRecorder::new();
        r.acquired(TB, CB, L, LockMode::Exclusive, 10, Some(CA));
        r.released(TB, L);
        r.acquired(TA, CA, L, LockMode::Exclusive, 20, Some(CB));
        let rep = r.report();
        assert_eq!(rep.pairs.len(), 2);
        assert!(rep.pairs[0].0 <= rep.pairs[1].0);
        assert_eq!(rep.waiters.len(), 2);
    }

    #[test]
    fn zero_wait_records_no_pair() {
        let mut r = CrosstalkRecorder::new();
        r.acquired(TB, CB, L, LockMode::Exclusive, 0, Some(CA));
        assert_eq!(r.pair_stats(CB, CA), WaitStats::default());
    }
}
