//! SEDA stage queues and workers (§4.2, Figure 5).
//!
//! A SEDA application is a graph of *stages*, each with an input queue
//! and a pool of worker threads. [`StageWorker`] is the instrumented
//! stage loop of Figure 5 as a reusable [`ThreadBody`]: it dequeues an
//! element (calling the runtime's `on_resume` hook, which concatenates
//! the element's transaction context with the stage), runs the
//! application handler, computes, and emits new elements to downstream
//! queues (stamping them via `on_capture`).
//!
//! Queues are protected by a simulation lock + condition variable, so
//! stage hand-offs also exercise the lock hook path.

use crate::chan::Msg;
use crate::engine::{Op, ThreadBody, ThreadCx, Wake};
use crate::time::{CondId, Cycles};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, LockId, LockMode};
use whodunit_core::rt::Continuation;

/// A stage input queue (share via `Rc<RefCell<_>>`).
#[derive(Debug)]
pub struct StageQueue {
    /// Lock protecting the queue.
    pub lock: LockId,
    /// Condition signalled on enqueue.
    pub cond: CondId,
    elems: VecDeque<(Continuation, Box<dyn Any>)>,
    enqueued: u64,
}

impl StageQueue {
    /// Creates a queue guarded by `lock`/`cond`.
    pub fn new(lock: LockId, cond: CondId) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(StageQueue {
            lock,
            cond,
            elems: VecDeque::new(),
            enqueued: 0,
        }))
    }

    /// Pushes an element with its transaction context.
    pub fn push(&mut self, ctx: Continuation, data: Box<dyn Any>) {
        self.elems.push_back((ctx, data));
        self.enqueued += 1;
    }

    /// Pops the oldest element.
    pub fn pop(&mut self) -> Option<(Continuation, Box<dyn Any>)> {
        self.elems.pop_front()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Total elements ever enqueued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }
}

/// A pending downstream emit: target queue and element payload.
pub type Emit = (Rc<RefCell<StageQueue>>, Box<dyn Any>);

/// What a stage handler wants done after it ran.
pub struct StageOutcome {
    /// CPU cycles the handler consumes (attributed to the stage's
    /// transaction context).
    pub compute: Cycles,
    /// Elements to enqueue downstream.
    pub emits: Vec<Emit>,
    /// Messages to send over channels (e.g. the response socket).
    pub sends: Vec<(ChanId, Msg)>,
}

impl StageOutcome {
    /// An outcome that only computes.
    pub fn compute(cycles: Cycles) -> Self {
        StageOutcome {
            compute: cycles,
            emits: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Adds a downstream emit.
    pub fn emit(mut self, q: &Rc<RefCell<StageQueue>>, data: impl Any) -> Self {
        self.emits.push((q.clone(), Box::new(data)));
        self
    }

    /// Adds a channel send.
    pub fn send(mut self, chan: ChanId, msg: Msg) -> Self {
        self.sends.push((chan, msg));
        self
    }
}

/// The application logic of one stage.
pub type StageHandler = Box<dyn FnMut(&mut ThreadCx<'_>, Box<dyn Any>) -> StageOutcome>;

enum WState {
    /// Initial state: about to lock the input queue.
    Idle,
    /// Requested the input-queue lock; next wake means we hold it.
    CheckQueue,
    /// Unlocking the input queue after a dequeue; element in hand.
    Dequeued(Option<Box<dyn Any>>),
    /// Computing the handler's cycles.
    Computing,
    /// Requested the lock of the next emit's target queue.
    EmitLocked,
    /// Pushed the element; unlocking the target queue, then notify.
    EmitNotify(CondId),
    /// Notify issued; continue with the remaining effects.
    EffectsNext,
    /// A channel send was issued; continue with remaining effects.
    EffectsNext2,
}

/// The Figure 5 instrumented stage worker loop.
pub struct StageWorker {
    stage: FrameId,
    queue: Rc<RefCell<StageQueue>>,
    handler: StageHandler,
    state: WState,
    emits: VecDeque<Emit>,
    sends: VecDeque<(ChanId, Msg)>,
}

impl StageWorker {
    /// Creates a worker for `stage` consuming from `queue`.
    pub fn new(stage: FrameId, queue: Rc<RefCell<StageQueue>>, handler: StageHandler) -> Box<Self> {
        Box::new(StageWorker {
            stage,
            queue,
            handler,
            state: WState::Idle,
            emits: VecDeque::new(),
            sends: VecDeque::new(),
        })
    }

    /// Issues the next pending effect, or finishes the element.
    fn next_effect(&mut self, cx: &mut ThreadCx<'_>) -> Op {
        if let Some((q, _)) = self.emits.front() {
            let lock = q.borrow().lock;
            self.state = WState::EmitLocked;
            return Op::Lock(lock, LockMode::Exclusive);
        }
        if let Some((chan, msg)) = self.sends.pop_front() {
            self.state = WState::EffectsNext2;
            return Op::Send(chan, msg);
        }
        // Element fully processed.
        cx.runtime().borrow_mut().on_finish(cx.me());
        cx.pop_frame();
        self.state = WState::CheckQueue;
        Op::Lock(self.queue.borrow().lock, LockMode::Exclusive)
    }
}

impl ThreadBody for StageWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, WState::Idle) {
            WState::Idle => {
                self.state = WState::CheckQueue;
                Op::Lock(self.queue.borrow().lock, LockMode::Exclusive)
            }
            WState::CheckQueue => {
                // We hold the input-queue lock (LockAcquired or
                // CondWoken after an empty check).
                debug_assert!(matches!(
                    wake,
                    Wake::LockAcquired { .. } | Wake::CondWoken { .. }
                ));
                let popped = self.queue.borrow_mut().pop();
                match popped {
                    None => {
                        let (lock, cond) = {
                            let q = self.queue.borrow();
                            (q.lock, q.cond)
                        };
                        self.state = WState::CheckQueue;
                        Op::CondWait(cond, lock)
                    }
                    Some((ctx, data)) => {
                        // Figure 5 lines 5–6: current context becomes
                        // elem->tran_ctxt + CURRENT_STAGE.
                        cx.runtime()
                            .borrow_mut()
                            .on_resume(cx.me(), ctx, self.stage);
                        cx.push_frame(self.stage);
                        self.state = WState::Dequeued(Some(data));
                        Op::Unlock(self.queue.borrow().lock)
                    }
                }
            }
            WState::Dequeued(data) => {
                let data = data.expect("element data present");
                let outcome = (self.handler)(cx, data);
                self.emits = outcome.emits.into();
                self.sends = outcome.sends.into();
                self.state = WState::Computing;
                Op::Compute(outcome.compute)
            }
            WState::Computing => self.next_effect(cx),
            WState::EmitLocked => {
                // Holding the target queue's lock: push the element
                // stamped with the current transaction context
                // (Figure 5 line 12).
                let (q, data) = self.emits.pop_front().expect("emit pending");
                let ctx = cx.runtime().borrow_mut().on_capture(cx.me());
                let (lock, cond) = {
                    let mut qb = q.borrow_mut();
                    qb.push(ctx, data);
                    (qb.lock, qb.cond)
                };
                self.state = WState::EmitNotify(cond);
                Op::Unlock(lock)
            }
            WState::EmitNotify(cond) => {
                self.state = WState::EffectsNext;
                Op::Notify(cond, false)
            }
            WState::EffectsNext | WState::EffectsNext2 => self.next_effect(cx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimConfig};
    use whodunit_core::context::CtxId;
    use whodunit_core::ids::ProcId;
    use whodunit_core::profiler::{Whodunit, WhodunitConfig};
    use whodunit_core::rt::Runtime;

    /// Builds a 2-stage pipeline: an injector pushes N elements into
    /// stage A; stage A computes and forwards to stage B; stage B
    /// computes and counts completions.
    #[test]
    fn two_stage_pipeline_flows_and_profiles() {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.add_machine(2);
        let frames = sim.frames().clone();
        let w = Rc::new(RefCell::new(Whodunit::new(
            WhodunitConfig::new(ProcId(0), "seda"),
            frames,
        )));
        let p = sim.add_process(w.clone());

        let la = sim.add_lock();
        let ca = sim.add_cond();
        let lb = sim.add_lock();
        let cb = sim.add_cond();
        let qa = StageQueue::new(la, ca);
        let qb = StageQueue::new(lb, cb);

        let stage_a = sim.frame("StageA");
        let stage_b = sim.frame("StageB");

        let done = Rc::new(RefCell::new(0u32));

        let qb2 = qb.clone();
        sim.spawn(
            p,
            m,
            "workerA",
            StageWorker::new(
                stage_a,
                qa.clone(),
                Box::new(move |_cx, data| {
                    StageOutcome::compute(10_000).emit(&qb2, data.downcast::<u32>().unwrap())
                }),
            ),
        );
        let done2 = done.clone();
        sim.spawn(
            p,
            m,
            "workerB",
            StageWorker::new(
                stage_b,
                qb.clone(),
                Box::new(move |_cx, _data| {
                    *done2.borrow_mut() += 1;
                    StageOutcome::compute(20_000)
                }),
            ),
        );

        // Injector: pushes all elements under one lock, then notifies.
        struct BatchInjector {
            q: Rc<RefCell<StageQueue>>,
            n: u32,
            phase: u8,
        }
        impl ThreadBody for BatchInjector {
            fn resume(&mut self, cx: &mut ThreadCx<'_>, _wake: Wake) -> Op {
                let (lock, cond) = {
                    let q = self.q.borrow();
                    (q.lock, q.cond)
                };
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Op::Lock(lock, LockMode::Exclusive)
                    }
                    1 => {
                        for i in 0..self.n {
                            let ctx = cx.runtime().borrow_mut().on_capture(cx.me());
                            self.q.borrow_mut().push(ctx, Box::new(i));
                        }
                        self.phase = 2;
                        Op::Unlock(lock)
                    }
                    2 => {
                        self.phase = 3;
                        Op::Notify(cond, true)
                    }
                    _ => Op::Exit,
                }
            }
        }
        sim.spawn(
            p,
            m,
            "inject",
            Box::new(BatchInjector {
                q: qa.clone(),
                n: 3,
                phase: 0,
            }),
        );

        assert!(sim.run_until(3_000_000_000).is_ok());
        assert_eq!(*done.borrow(), 3, "all elements traverse both stages");

        // The profiler must show a StageA → StageB context with B's
        // compute cycles.
        let w = w.borrow();
        let ctxs = w.profiled_contexts();
        let ab: Vec<CtxId> = ctxs
            .iter()
            .copied()
            .filter(|&c| w.ctx_string(c) == "StageA -> StageB")
            .collect();
        assert_eq!(
            ab.len(),
            1,
            "contexts: {:?}",
            ctxs.iter().map(|&c| w.ctx_string(c)).collect::<Vec<_>>()
        );
        let cct = w.cct(ab[0]).unwrap();
        assert_eq!(cct.total().cycles, 3 * 20_000);
        assert!(w.dump().is_some());
    }

    #[test]
    fn idle_workers_block_until_notified() {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let l = sim.add_lock();
        let c = sim.add_cond();
        let q = StageQueue::new(l, c);
        let stage = sim.frame("S");
        sim.spawn(
            p,
            m,
            "w",
            StageWorker::new(
                stage,
                q.clone(),
                Box::new(|_cx, _d| StageOutcome::compute(1)),
            ),
        );
        assert!(sim.run_to_idle().is_ok());
        // Worker parked on the condvar; queue untouched.
        assert_eq!(q.borrow().len(), 0);
        assert_eq!(sim.locks.cond_len(c), 1);
    }
}
