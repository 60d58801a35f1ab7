//! The runtime hook interface between execution substrates and
//! profiling runtimes.
//!
//! The paper's Whodunit is a preloaded library whose wrappers intercept
//! lock operations, sends/receives, event loops, and stage queues
//! (§7). In this reproduction the substrate (the discrete-event
//! simulator, or the instruction emulator for critical sections) calls
//! these hooks at exactly the points the paper's wrappers intercept.
//! Every hook returns the *overhead cycles* its bookkeeping costs so the
//! substrate can charge them to the executing thread — this is how
//! profiling overhead (Table 2, §9) becomes measurable in virtual time.
//!
//! Implementations: [`crate::profiler::Whodunit`] (the paper's system),
//! plus the `csprof`-only and `gprof`-like baselines in
//! `whodunit-baselines`, and [`NullRuntime`] (profiling off).

use crate::context::CtxId;
use crate::frame::FrameId;
use crate::ids::{LockId, LockMode, ThreadId};
use crate::ipc::SendInfo;
use crate::shm::MemEvent;
use crate::stitch::StageDump;
use crate::synopsis::SynChain;

/// The transaction context stored on a continuation: an event (§4.1,
/// the `ev_tran_ctxt` field Figure 4 adds to `struct event`) or a SEDA
/// stage-queue element (§4.2, Figure 5's `elem->tran_ctxt`). The paper
/// stresses that the two figures are one rule, so both carry this one
/// type through one hook triple: [`Runtime::on_capture`],
/// [`Runtime::on_resume`] and [`Runtime::on_finish`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Continuation(pub CtxId);

impl Default for Continuation {
    fn default() -> Self {
        Continuation(CtxId::ROOT)
    }
}

/// Hooks a profiling runtime implements; all have no-op defaults.
pub trait Runtime {
    /// Short name for reports ("none", "csprof", "whodunit", "gprof").
    fn name(&self) -> &'static str;

    /// A thread was created in this process.
    fn on_spawn(&mut self, _t: ThreadId) {}

    /// A thread exited.
    fn on_exit(&mut self, _t: ThreadId) {}

    /// A procedure was entered; returns instrumentation cycles (gprof's
    /// per-call mcount cost).
    fn on_call(&mut self, _t: ThreadId, _f: FrameId) -> u64 {
        0
    }

    /// A procedure returned.
    fn on_return(&mut self, _t: ThreadId) -> u64 {
        0
    }

    /// `n` call/return pairs of `f` executed beneath the current stack
    /// (a batched form of [`Runtime::on_call`] used to model the call
    /// density of a compute burst without `n` separate hook calls).
    fn on_calls(&mut self, t: ThreadId, f: FrameId, n: u64) -> u64 {
        let mut total = 0;
        for _ in 0..n {
            total += self.on_call(t, f);
            total += self.on_return(t);
        }
        total
    }

    /// Thread `t` executed `cycles` of CPU under call stack `stack`;
    /// returns sampling overhead cycles.
    fn on_compute(&mut self, _t: ThreadId, _stack: &[FrameId], _cycles: u64) -> u64 {
        0
    }

    /// Thread `t` is sending a message from call stack `stack`; returns
    /// what to piggyback and what it costs.
    fn on_send(&mut self, _t: ThreadId, _stack: &[FrameId]) -> SendInfo {
        SendInfo::default()
    }

    /// Thread `t` received a message carrying `chain`; returns
    /// bookkeeping cycles.
    fn on_recv(&mut self, _t: ThreadId, _chain: Option<&SynChain>) -> u64 {
        0
    }

    /// The transaction context to blame if someone starts waiting on
    /// `lock` right now (crosstalk holder hint, §7.5).
    fn holder_hint(&self, _lock: LockId) -> Option<CtxId> {
        None
    }

    /// Thread `t` acquired `lock` after waiting `waited` cycles;
    /// `holder` is the hint captured when the wait began.
    fn on_lock_acquired(
        &mut self,
        _t: ThreadId,
        _lock: LockId,
        _mode: LockMode,
        _waited: u64,
        _holder: Option<CtxId>,
    ) -> u64 {
        0
    }

    /// Thread `t` released `lock`.
    fn on_lock_released(&mut self, _t: ThreadId, _lock: LockId) -> u64 {
        0
    }

    /// Figures 4 and 5, line 12: `t` creates an event or a stage-queue
    /// element; returns the context to store in it (the root outside
    /// any handler or stage: "when the initial event handler is
    /// scheduled, its transaction context is simply the call path").
    fn on_capture(&mut self, _t: ThreadId) -> Continuation {
        Continuation::default()
    }

    /// Figures 4 and 5, lines 5–6: `t` is about to run `frame`, an
    /// event handler or a stage, for an event or element carrying `k`;
    /// `k`'s context plus `frame` becomes current. Returns bookkeeping
    /// cycles.
    fn on_resume(&mut self, _t: ThreadId, _k: Continuation, _frame: FrameId) -> u64 {
        0
    }

    /// The handler or stage element `t` was running finished: no
    /// continuation context is current anymore.
    fn on_finish(&mut self, _t: ThreadId) {}

    /// A memory event from emulated critical-section code (§3, §7.2).
    /// `stack` is the thread's call stack (the produce-point call path).
    fn on_mem_event(&mut self, _t: ThreadId, _stack: &[FrameId], _ev: &MemEvent) {}

    /// Whether critical sections of `lock` still need emulation (§7.2's
    /// bail-out: `false` once the lock is known not to carry flow).
    fn wants_emulation(&self, _lock: LockId) -> bool {
        false
    }

    /// The base transaction context of `t` (for tests and displays).
    fn current_ctx(&self, _t: ThreadId) -> CtxId {
        CtxId::ROOT
    }

    /// Serializable end-of-run profile for post-mortem stitching.
    fn dump(&self) -> Option<StageDump> {
        let mut d = StageDump::default();
        self.dump_into(&mut d).then_some(d)
    }

    /// [`Runtime::dump`] into storage the caller keeps: `out` is a
    /// default dump or an earlier dump of this same runtime, and leaves
    /// as the current one (`false`, and `out` untouched, if this
    /// runtime has nothing to dump). A streaming emitter hands back the
    /// dump of two epochs ago, and a runtime whose tables only grow
    /// need only append to it.
    fn dump_into(&self, _out: &mut StageDump) -> bool {
        false
    }

    /// Total overhead cycles this runtime has charged so far.
    fn overhead_cycles(&self) -> u64 {
        0
    }
}

/// Profiling disabled: every hook is free and inert.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl Runtime for NullRuntime {
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_runtime_is_free_and_inert() {
        let mut r = NullRuntime;
        assert_eq!(r.name(), "none");
        assert_eq!(r.on_compute(ThreadId(1), &[], 1_000_000), 0);
        assert!(r.on_send(ThreadId(1), &[]).chain.is_none());
        assert_eq!(r.on_recv(ThreadId(1), None), 0);
        assert!(!r.wants_emulation(LockId(1)));
        assert!(r.dump().is_none());
        assert_eq!(r.overhead_cycles(), 0);
    }
}
