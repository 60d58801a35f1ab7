//! The Whodunit runtime (§7).
//!
//! [`Whodunit`] is the per-process profiler: a sampling call-path
//! profiler core (csprof-like, §7.1) that maintains one CCT per
//! transaction context, plus the transaction-tracking machinery — the
//! shared-memory flow detector (§3/§7.2), event and stage context
//! propagation (§4/§7.3), synopsis piggybacking over IPC (§5/§7.4), and
//! crosstalk recording (§6/§7.5). It implements [`Runtime`] so any
//! substrate can drive it through hooks.

use crate::cct::{Cct, Metrics};
use crate::context::{ContextPolicy, ContextTable, CtxId};
use crate::cost::{CostModel, SampleClock, Sampling};
use crate::crosstalk::CrosstalkRecorder;
use crate::frame::{FrameId, SharedFrameTable};
use crate::ids::{IdVec, LockId, LockMode, ProcId, ThreadId};
use crate::ipc::{IpcTracker, RecvKind, SendInfo};
use crate::rt::{Continuation, Runtime};
use crate::shm::{FlowConfig, FlowDetector, FlowEvent, MemEvent};
use crate::stitch::{
    dump_context, DumpCct, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
};
use crate::synopsis::{SynChain, SynopsisTable};
use std::sync::Arc;

/// Configuration of one Whodunit instance.
#[derive(Clone, Debug)]
pub struct WhodunitConfig {
    /// The process this instance profiles.
    pub proc: ProcId,
    /// Human-readable stage name for reports.
    pub stage_name: String,
    /// Overhead cost model (defaults to [`CostModel::whodunit`]).
    pub cost: CostModel,
    /// Context normalization policy (§4.1).
    pub policy: ContextPolicy,
    /// Shared-memory flow detector configuration (§3).
    pub flow: FlowConfig,
    /// Keep emulating critical sections even after their lock is known
    /// not to carry flow (disables the §7.2 bail-out; ablation knob).
    pub always_emulate: bool,
    /// Sample placement: deterministic analytic (default) or seeded
    /// stochastic exponential gaps.
    pub sampling: Sampling,
    /// How many subsequent sends an unanswered sent-synopsis
    /// association survives before it is pruned (§7.4 dictionary
    /// hygiene). Late replies arriving after the prune classify as
    /// [`crate::ipc::RecvKind::Stale`] instead of restoring a context.
    pub ipc_ttl: u64,
}

impl WhodunitConfig {
    /// The standard configuration for a named stage.
    pub fn new(proc: ProcId, stage_name: impl Into<String>) -> Self {
        WhodunitConfig {
            proc,
            stage_name: stage_name.into(),
            cost: CostModel::whodunit(),
            policy: ContextPolicy::default(),
            flow: FlowConfig::default(),
            always_emulate: false,
            sampling: Sampling::Analytic,
            // Generous enough that a healthy run never prunes; bounded
            // so a sick peer cannot leak the dictionary forever.
            ipc_ttl: 1_000_000,
        }
    }

    /// Overrides the sent-synopsis association TTL (in sends).
    pub fn with_ipc_ttl(mut self, ttl: u64) -> Self {
        self.ipc_ttl = ttl;
        self
    }

    /// Overrides the context policy.
    pub fn with_policy(mut self, policy: ContextPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Disables the §7.2 emulation bail-out (ablation).
    pub fn with_always_emulate(mut self, on: bool) -> Self {
        self.always_emulate = on;
        self
    }

    /// Selects the sampling mode (ablation).
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }
}

/// The per-process Whodunit profiler.
#[derive(Debug)]
pub struct Whodunit {
    cfg: WhodunitConfig,
    frames: SharedFrameTable,
    ctxs: ContextTable,
    syns: SynopsisTable,
    ipc: IpcTracker,
    /// One CCT per transaction context, by context id.
    ccts: IdVec<Cct>,
    /// Base transaction context per thread: what the thread inherited
    /// from the produce/consume point it is executing on behalf of.
    base: IdVec<CtxId>,
    /// Full context at critical-section entry, per thread (the
    /// produce-point context used to taint locations, §3.5).
    cs_ctx: IdVec<CtxId>,
    /// Sampling clock per thread.
    acc: IdVec<SampleClock>,
    crosstalk: CrosstalkRecorder,
    detector: FlowDetector,
    overhead: u64,
    flow_log: Vec<FlowEvent>,
}

impl Whodunit {
    /// Creates an instance sharing `frames` with its substrate.
    pub fn new(cfg: WhodunitConfig, frames: SharedFrameTable) -> Self {
        let policy = cfg.policy;
        let flow = cfg.flow;
        Whodunit {
            syns: SynopsisTable::new(cfg.proc),
            cfg,
            frames,
            ctxs: ContextTable::new(policy),
            ipc: IpcTracker::new(),
            ccts: IdVec::default(),
            base: IdVec::default(),
            cs_ctx: IdVec::default(),
            acc: IdVec::default(),
            crosstalk: CrosstalkRecorder::new(),
            detector: FlowDetector::new(flow),
            overhead: 0,
            flow_log: Vec::new(),
        }
    }

    fn base_of(&self, t: ThreadId) -> CtxId {
        self.base.get(t.0).copied().unwrap_or(CtxId::ROOT)
    }

    /// The context table (read access for reports and tests).
    pub fn contexts(&self) -> &ContextTable {
        &self.ctxs
    }

    /// The CCT annotated with `ctx`, if it accumulated data.
    pub fn cct(&self, ctx: CtxId) -> Option<&Cct> {
        self.ccts.get(ctx.0)
    }

    /// All contexts with CCTs, sorted by id.
    pub fn profiled_contexts(&self) -> Vec<CtxId> {
        self.ccts.iter().map(|(ctx, _)| CtxId(ctx)).collect()
    }

    /// The crosstalk recorder (read access).
    pub fn crosstalk(&self) -> &CrosstalkRecorder {
        &self.crosstalk
    }

    /// The shared-memory flow detector (read access).
    pub fn detector(&self) -> &FlowDetector {
        &self.detector
    }

    /// Flow events observed so far (produce/consume/disable log).
    pub fn flow_log(&self) -> &[FlowEvent] {
        &self.flow_log
    }

    /// The IPC tracker (read access; piggyback accounting).
    pub fn ipc(&self) -> &IpcTracker {
        &self.ipc
    }

    /// Renders a context as a human-readable string using the shared
    /// frame table.
    pub fn ctx_string(&self, ctx: CtxId) -> String {
        use crate::context::ContextAtom;
        let frames = self.frames.borrow();
        let v = self.ctxs.value(ctx);
        if v.is_empty() {
            return "<root>".to_owned();
        }
        let mut parts = Vec::new();
        for a in v.atoms() {
            match a {
                ContextAtom::Frame(f) => parts.push(frames.name(*f).to_owned()),
                ContextAtom::Path(p) => parts.push(format!(
                    "[{}]",
                    p.iter()
                        .map(|f| frames.name(*f))
                        .collect::<Vec<_>>()
                        .join(">")
                )),
                ContextAtom::Remote(c) => parts.push(format!("remote({c})")),
            }
        }
        parts.join(" -> ")
    }

    fn charge(&mut self, cycles: u64) -> u64 {
        self.overhead += cycles;
        cycles
    }
}

impl Runtime for Whodunit {
    fn name(&self) -> &'static str {
        "whodunit"
    }

    fn on_exit(&mut self, t: ThreadId) {
        self.base.remove(t.0);
        self.acc.remove(t.0);
        self.cs_ctx.remove(t.0);
    }

    fn on_compute(&mut self, t: ThreadId, stack: &[FrameId], cycles: u64) -> u64 {
        let ctx = self.base_of(t);
        let clock = self.acc.slot(t.0).get_or_insert_with(|| {
            SampleClock::new(self.cfg.sampling, self.cfg.cost.sample_period, t.0 as u64)
        });
        let samples = clock.samples_in(cycles);
        let cct = self.ccts.slot(ctx.0).get_or_insert_with(Cct::default);
        cct.record(
            stack,
            Metrics {
                samples,
                cycles,
                calls: 0,
            },
        );
        self.charge(samples * self.cfg.cost.per_sample_cycles)
    }

    fn on_send(&mut self, t: ThreadId, stack: &[FrameId]) -> SendInfo {
        let base = self.base_of(t);
        let ctx_at_send = self.ctxs.append_path(base, stack);
        let chain = self.ipc.send(&self.ctxs, &mut self.syns, base, ctx_at_send);
        self.ipc.advance_epoch(self.cfg.ipc_ttl);
        let extra_bytes = chain.wire_bytes();
        let cycles = self.charge(self.cfg.cost.per_send_cycles);
        SendInfo {
            chain: Some(chain),
            extra_bytes,
            cycles,
        }
    }

    fn on_recv(&mut self, t: ThreadId, chain: Option<&SynChain>) -> u64 {
        match self.ipc.recv(&mut self.ctxs, &self.syns, chain) {
            RecvKind::Unprofiled => {}
            RecvKind::Request { ctx } => {
                self.base.insert(t.0, ctx);
            }
            RecvKind::Response { restore, .. } => {
                self.base.insert(t.0, restore);
            }
            // A late reply to a pruned request: keep the thread's
            // current base rather than adopt a chain containing our
            // own synopsis.
            RecvKind::Stale { .. } => {}
        }
        self.charge(self.cfg.cost.per_recv_cycles)
    }

    fn holder_hint(&self, lock: LockId) -> Option<CtxId> {
        self.crosstalk.holder_of(lock)
    }

    fn on_lock_acquired(
        &mut self,
        t: ThreadId,
        lock: LockId,
        mode: LockMode,
        waited: u64,
        holder: Option<CtxId>,
    ) -> u64 {
        let ctx = self.base_of(t);
        self.crosstalk.acquired(t, ctx, lock, mode, waited, holder);
        self.charge(self.cfg.cost.per_lock_cycles)
    }

    fn on_lock_released(&mut self, t: ThreadId, lock: LockId) -> u64 {
        self.crosstalk.released(t, lock);
        0
    }

    fn on_capture(&mut self, t: ThreadId) -> Continuation {
        Continuation(self.base_of(t))
    }

    fn on_resume(&mut self, t: ThreadId, k: Continuation, frame: FrameId) -> u64 {
        let ctx = self.ctxs.append_frame(k.0, frame);
        self.base.insert(t.0, ctx);
        0
    }

    fn on_finish(&mut self, t: ThreadId) {
        self.base.remove(t.0);
    }

    fn on_mem_event(&mut self, t: ThreadId, stack: &[FrameId], ev: &MemEvent) {
        // The context used to taint produced locations is the thread's
        // full context at critical-section entry (§3.5).
        if let MemEvent::CsEnter { .. } = ev {
            let full = self.ctxs.append_path(self.base_of(t), stack);
            self.cs_ctx.insert(t.0, full);
        }
        let cur = self
            .cs_ctx
            .get(t.0)
            .copied()
            .unwrap_or_else(|| self.base_of(t));
        let mut out = Vec::new();
        self.detector.on_event(t, cur, ev, &mut out);
        for fe in &out {
            if let FlowEvent::Consumed { thread, ctx, .. } = fe {
                // §3.5: the consumer inherits the producer's context.
                self.base.insert(thread.0, *ctx);
            }
        }
        self.flow_log.extend(out);
        if let MemEvent::CsExit = ev {
            self.cs_ctx.remove(t.0);
        }
    }

    fn wants_emulation(&self, lock: LockId) -> bool {
        // §7.2's optimization: stop emulating once a lock is known not
        // to carry transaction flow (unless the ablation disables it).
        self.cfg.always_emulate || self.detector.flow_enabled(lock)
    }

    fn current_ctx(&self, t: ThreadId) -> CtxId {
        self.base_of(t)
    }

    fn overhead_cycles(&self) -> u64 {
        self.overhead
    }

    fn dump_into(&self, d: &mut StageDump) -> bool {
        let frames = self.frames.borrow();
        // Frame names and contexts are append-only, so an earlier dump
        // of this instance already holds a prefix of both.
        if d.proc != self.cfg.proc.0
            || d.stage_name != self.cfg.stage_name
            || d.frames.len() > frames.len()
            || d.contexts.len() > self.ctxs.len()
        {
            *d = StageDump {
                proc: self.cfg.proc.0,
                stage_name: self.cfg.stage_name.clone(),
                ..Default::default()
            };
        }
        let new = d.frames.len() as u32..frames.len() as u32;
        d.frames
            .extend(new.map(|f| Arc::from(frames.name(FrameId(f)))));
        let new = d.contexts.len() as u32..self.ctxs.len() as u32;
        d.contexts
            .extend(new.map(|c| dump_context(self.ctxs.value(CtxId(c)))));
        d.piggyback_bytes = self.ipc.piggyback_bytes;
        d.messages = self.ipc.messages;
        // One CCT per profiled context, in context-id order; each node
        // list is rewritten into whatever list sat at its position.
        let mut n = 0;
        for (ctx, cct) in self.ccts.iter() {
            if n == d.ccts.len() {
                d.ccts.push(DumpCct {
                    ctx,
                    nodes: Vec::new(),
                });
            }
            let out = &mut d.ccts[n];
            out.ctx = ctx;
            out.nodes.clear();
            out.nodes.extend(cct.node_ids().map(|id| DumpNode {
                frame: cct.frame(id).map(|f| f.0),
                parent: cct.parent(id).map(|p| p.0),
                samples: cct.metrics(id).samples,
                cycles: cct.metrics(id).cycles,
                calls: cct.metrics(id).calls,
            }));
            n += 1;
        }
        d.ccts.truncate(n);
        // Canonical dump order (sorted by context id) comes from the
        // synopsis table itself so the dump path and the analysis
        // pipeline share one ordering rule.
        d.synopses.clear();
        d.synopses.extend(
            self.syns
                .minted_sorted()
                .into_iter()
                .map(|(raw, ctx)| (raw, ctx.0)),
        );
        let rep = self.crosstalk.report();
        d.crosstalk_pairs.clear();
        d.crosstalk_pairs
            .extend(rep.pairs.iter().map(|&(w, h, s)| DumpCrosstalkPair {
                waiter: w.0,
                holder: h.0,
                count: s.count,
                total_wait: s.total_wait,
            }));
        d.crosstalk_waiters.clear();
        d.crosstalk_waiters
            .extend(rep.waiters.iter().map(|&(w, s)| DumpCrosstalkWaiter {
                waiter: w.0,
                count: s.count,
                total_wait: s.total_wait,
            }));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::shared_frame_table;

    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn make() -> (Whodunit, SharedFrameTable) {
        let frames = shared_frame_table();
        let w = Whodunit::new(WhodunitConfig::new(ProcId(1), "test"), frames.clone());
        (w, frames)
    }

    #[test]
    fn compute_accumulates_in_root_cct() {
        let (mut w, frames) = make();
        let main = frames.borrow_mut().intern("main");
        let f = frames.borrow_mut().intern("f");
        w.on_compute(T1, &[main, f], 1000);
        let cct = w.cct(CtxId::ROOT).expect("root CCT exists");
        assert_eq!(cct.total().cycles, 1000);
    }

    #[test]
    fn sampling_overhead_is_charged() {
        let (mut w, frames) = make();
        let main = frames.borrow_mut().intern("main");
        let period = w.cfg.cost.sample_period;
        let oh = w.on_compute(T1, &[main], period * 3);
        assert_eq!(oh, 3 * w.cfg.cost.per_sample_cycles);
        assert_eq!(w.overhead_cycles(), oh);
    }

    #[test]
    fn event_dispatch_switches_context() {
        let (mut w, frames) = make();
        let h1 = frames.borrow_mut().intern("accept");
        let main = frames.borrow_mut().intern("main");
        // Captured outside any handler: the root.
        let ev = w.on_capture(T1);
        assert_eq!(ev, Continuation(CtxId::ROOT));
        w.on_resume(T1, ev, h1);
        let ctx = w.current_ctx(T1);
        assert_ne!(ctx, CtxId::ROOT);
        w.on_compute(T1, &[main], 500);
        assert!(w.cct(ctx).is_some());
        assert!(w.cct(CtxId::ROOT).is_none());
        w.on_finish(T1);
        assert_eq!(w.current_ctx(T1), CtxId::ROOT);
    }

    #[test]
    fn rescheduled_handlers_collapse_and_connection_loops_prune() {
        // §4.1: a read handler that needs several iterations appears
        // once in the context, and a persistent connection's
        // [accept, read, write] + read prunes back to [accept, read].
        let (mut w, frames) = make();
        let [accept, read, write] =
            ["accept", "read", "write"].map(|n| frames.borrow_mut().intern(n));
        let mut run = |k: Continuation, handler| {
            w.on_resume(T1, k, handler);
            let next = w.on_capture(T1);
            w.on_finish(T1);
            next
        };
        let k = run(Continuation::default(), accept);
        let after_read = run(k, read);
        assert_eq!(run(after_read, read), after_read);
        let k = run(after_read, write);
        assert_eq!(run(k, read), after_read);
        assert_eq!(w.ctx_string(after_read.0), "accept -> read");
    }

    #[test]
    fn stage_dequeue_switches_context_per_worker() {
        let (mut w, frames) = make();
        let s1 = frames.borrow_mut().intern("ListenStage");
        let s2 = frames.borrow_mut().intern("ReadStage");
        let e = w.on_capture(T1);
        w.on_resume(T1, e, s1);
        let elem = w.on_capture(T1);
        w.on_finish(T1);
        w.on_resume(T2, elem, s2);
        let c2 = w.current_ctx(T2);
        assert_eq!(w.ctx_string(c2), "ListenStage -> ReadStage");
        // Two workers busy at once stay independent.
        w.on_resume(T1, Continuation::default(), s2);
        assert_eq!(w.ctx_string(w.current_ctx(T1)), "ReadStage");
        assert_eq!(w.current_ctx(T2), c2);
        assert_ne!(w.on_capture(T1), w.on_capture(T2));
    }

    #[test]
    fn send_recv_roundtrip_between_instances() {
        let frames = shared_frame_table();
        let mut a = Whodunit::new(WhodunitConfig::new(ProcId(1), "a"), frames.clone());
        let mut b = Whodunit::new(WhodunitConfig::new(ProcId(2), "b"), frames.clone());
        let foo = frames.borrow_mut().intern("foo");
        let svc = frames.borrow_mut().intern("svc");

        let info = a.on_send(T1, &[foo]);
        let chain = info.chain.clone().unwrap();
        b.on_recv(T2, Some(&chain));
        let bctx = b.current_ctx(T2);
        assert_ne!(bctx, CtxId::ROOT);
        // Callee computes under the adopted context.
        b.on_compute(T2, &[svc], 100);
        assert!(b.cct(bctx).is_some());
        // Callee responds; caller restores.
        let resp = b.on_send(T2, &[svc]).chain.unwrap();
        a.on_recv(T1, Some(&resp));
        assert_eq!(a.current_ctx(T1), CtxId::ROOT);
    }

    #[test]
    fn crosstalk_flows_through_hooks() {
        let (mut w, frames) = make();
        let h = frames.borrow_mut().intern("handler");
        let ev = w.on_capture(T1);
        w.on_resume(T1, ev, h);
        let ctx_a = w.current_ctx(T1);
        let l = LockId(9);
        w.on_lock_acquired(T1, l, LockMode::Exclusive, 0, None);
        let hint = w.holder_hint(l);
        assert_eq!(hint, Some(ctx_a));
        w.on_lock_released(T1, l);
        w.on_lock_acquired(T2, l, LockMode::Exclusive, 700, hint);
        let stats = w.crosstalk().pair_stats(CtxId::ROOT, ctx_a);
        assert_eq!(stats.total_wait, 700);
    }

    #[test]
    fn mem_events_propagate_consumed_context() {
        use crate::shm::Loc;
        let (mut w, frames) = make();
        let push = frames.borrow_mut().intern("ap_queue_push");
        let pop = frames.borrow_mut().intern("ap_queue_pop");
        let l = LockId(3);
        assert!(w.wants_emulation(l));
        // Producer T1 under stack [push].
        w.on_mem_event(T1, &[push], &MemEvent::CsEnter { lock: l });
        w.on_mem_event(
            T1,
            &[push],
            &MemEvent::Mov {
                src: Loc::Mem(1),
                dst: Loc::Reg(T1, 0),
            },
        );
        w.on_mem_event(
            T1,
            &[push],
            &MemEvent::Mov {
                src: Loc::Reg(T1, 0),
                dst: Loc::Mem(50),
            },
        );
        w.on_mem_event(T1, &[push], &MemEvent::CsExit);
        // Consumer T2 under stack [pop].
        w.on_mem_event(T2, &[pop], &MemEvent::CsEnter { lock: l });
        w.on_mem_event(
            T2,
            &[pop],
            &MemEvent::Mov {
                src: Loc::Mem(50),
                dst: Loc::Reg(T2, 0),
            },
        );
        w.on_mem_event(
            T2,
            &[pop],
            &MemEvent::Mov {
                src: Loc::Reg(T2, 0),
                dst: Loc::Mem(90),
            },
        );
        w.on_mem_event(T2, &[pop], &MemEvent::CsExit);
        w.on_mem_event(T2, &[pop], &MemEvent::Use { loc: Loc::Mem(90) });
        let ctx = w.current_ctx(T2);
        assert_ne!(ctx, CtxId::ROOT);
        assert!(w.ctx_string(ctx).contains("ap_queue_push"));
        assert!(w
            .flow_log()
            .iter()
            .any(|e| matches!(e, FlowEvent::Consumed { .. })));
    }

    #[test]
    fn dump_contains_ccts_and_synopses() {
        let (mut w, frames) = make();
        let foo = frames.borrow_mut().intern("foo");
        w.on_compute(T1, &[foo], 1234);
        w.on_send(T1, &[foo]);
        let d = w.dump().unwrap();
        assert_eq!(d.stage_name, "test");
        assert_eq!(d.ccts.len(), 1);
        assert_eq!(d.messages, 1);
        assert!(!d.synopses.is_empty());
        let rebuilt = d.rebuild_cct(&d.ccts[0]).unwrap();
        assert_eq!(rebuilt.total().cycles, 1234);
    }
}
