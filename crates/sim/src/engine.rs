//! The discrete-event simulation engine.
//!
//! Threads are resumable state machines ([`ThreadBody`]); each resume
//! receives a [`Wake`] describing why the thread continues and yields
//! one [`Op`]. The engine performs the operation, calls the owning
//! process's profiling [`Runtime`] hooks at exactly the points the
//! paper's wrappers intercept (compute/sampling, send/receive,
//! lock/unlock), charges returned overhead cycles to the thread, and
//! schedules the follow-up wake.
//!
//! The engine is strictly deterministic: pending events fire in
//! `(time, sequence)` order — one sequence counter over the
//! [`EventQueue`]'s sorted run of quantum ends and its heap of
//! everything else, so same-instant events fire in the order they were
//! scheduled — ready wakes drain under a seeded
//! [`SchedulePolicy`] (FIFO by default), and nothing consults
//! wall-clock time or unseeded randomness. Every run *accounts for
//! its own progress*: [`Sim::run_until`] reports lock-wait deadlock
//! cycles and zero-progress livelock storms as structured
//! [`RunOutcome`]s instead of hanging or exiting silently.
//!
//! Each interception point has one path: every runtime hook that
//! returns overhead goes through `Sim::hook`, every lock grant (a lock
//! request, a notified or a timed-out condition wait re-taking its
//! lock) through `Sim::acquire`, and every completed receive through
//! `Sim::received`.

use crate::chan::{ChanTable, Msg};
use crate::fault::FaultPlan;
use crate::lock::{Acquire, LockTable, WaitKind, Waiter};
use crate::machine::{Dispatch, MachineTable};
use crate::queue::{Due, EventQueue};
use crate::sched::{SchedulePolicy, Scheduler};
use crate::time::{CondId, Cycles, MachineId};
use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use whodunit_core::blackbox::{CommLog, CommRecorder};
use whodunit_core::delta::{diff_dump, DeltaSink, EpochBatch, StreamHeader, StreamStage};
use whodunit_core::frame::{shared_frame_table, FrameId, SharedFrameTable};
use whodunit_core::ids::{ChanId, LockId, LockMode, ProcId, ThreadId};
use whodunit_core::rt::{NullRuntime, Runtime};
use whodunit_core::stitch::StageDump;

/// Why a thread is being resumed.
#[derive(Debug)]
pub enum Wake {
    /// First resume after spawn.
    Start,
    /// An instant operation (unlock, notify, send) completed.
    Done,
    /// The requested compute burst finished.
    ComputeDone,
    /// The requested lock was acquired after `waited` cycles.
    LockAcquired {
        /// Cycles spent waiting.
        waited: Cycles,
    },
    /// A condition wait returned (lock re-acquired).
    CondWoken {
        /// Cycles between notify and lock re-acquisition.
        waited: Cycles,
    },
    /// A message arrived on the channel being received from.
    Received(Msg),
    /// The requested sleep elapsed.
    Slept,
    /// The deadline of a timed receive passed with no message. The
    /// thread is no longer queued on the channel; a message arriving
    /// later buffers for the next receiver.
    RecvTimedOut,
    /// A timed condition wait expired before any notify; the thread
    /// resumes holding the lock again, `waited` cycles after the
    /// deadline (the lock re-acquisition wait, as in
    /// [`Wake::CondWoken`]).
    CondTimedOut {
        /// Cycles between deadline expiry and lock re-acquisition.
        waited: Cycles,
    },
}

/// One operation a thread performs per resume.
#[derive(Debug)]
pub enum Op {
    /// Burn CPU on the thread's machine; attributed to the current
    /// call stack and transaction context.
    Compute(Cycles),
    /// Acquire a lock (waits if necessary).
    Lock(LockId, LockMode),
    /// Release a lock (instant).
    Unlock(LockId),
    /// Wait on a condition variable, releasing `lock`; resumes with the
    /// lock re-acquired.
    CondWait(CondId, LockId),
    /// Wake one (`false`) or all (`true`) condition waiters (instant).
    Notify(CondId, bool),
    /// Send a message on a channel (instant, buffered).
    Send(ChanId, Msg),
    /// Receive a message from a channel (waits if empty).
    Recv(ChanId),
    /// Receive with a deadline: resumes with [`Wake::Received`] if a
    /// message arrives within the given cycles, otherwise with
    /// [`Wake::RecvTimedOut`].
    RecvTimeout(ChanId, Cycles),
    /// Condition wait with a deadline, releasing `lock`: resumes with
    /// [`Wake::CondWoken`] on notify or [`Wake::CondTimedOut`] on
    /// expiry — in both cases with the lock re-acquired.
    CondWaitTimeout(CondId, LockId, Cycles),
    /// Sleep for the given duration.
    Sleep(Cycles),
    /// Terminate the thread.
    Exit,
}

/// A thread's behaviour, written as a resumable state machine.
pub trait ThreadBody {
    /// Continues the thread; called once per completed operation.
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op;
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Round-robin scheduling quantum in cycles.
    ///
    /// The default is 1 ms of the 2.4 GHz CPU — coarse enough to keep
    /// event counts manageable, fine enough that a long query does not
    /// monopolize a core.
    pub quantum: Cycles,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { quantum: 2_400_000 }
    }
}

/// One hop of a deadlock cycle: `waiter` is queued on `lock`, which
/// `holder` currently holds. The links chain: each link's holder is the
/// next link's waiter, and the last holder is the first waiter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockLink {
    /// The blocked thread.
    pub waiter: ThreadId,
    /// Its name (for diagnostics).
    pub waiter_name: String,
    /// The lock it is queued on.
    pub lock: LockId,
    /// A current holder of that lock.
    pub holder: ThreadId,
    /// The holder's name.
    pub holder_name: String,
}

/// A lock-wait cycle found at idle: the run can never make progress
/// because each thread in the cycle waits on a lock another holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Virtual time the simulation wedged at.
    pub at: Cycles,
    /// The cycle, as thread → lock → holder hops.
    pub cycle: Vec<DeadlockLink>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock at t={}: ", self.at)?;
        for (i, l) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(
                f,
                "{}({}) waits {} held by {}({})",
                l.waiter_name, l.waiter, l.lock, l.holder_name, l.holder
            )?;
        }
        Ok(())
    }
}

/// A thread observed resuming repeatedly without virtual time moving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spinner {
    /// The spinning thread.
    pub thread: ThreadId,
    /// Its name.
    pub name: String,
    /// Resumes since virtual time last advanced.
    pub resumes: u64,
}

/// A zero-progress wake storm: more thread resumes happened at one
/// virtual instant than the configured step budget allows, so the run
/// was aborted instead of spinning forever (e.g. a retry loop that
/// never advances virtual time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LivelockReport {
    /// The virtual instant the storm happened at.
    pub at: Cycles,
    /// Resumes consumed at that instant (the exhausted budget).
    pub steps: u64,
    /// The threads doing the spinning, busiest first (top 8).
    pub spinners: Vec<Spinner>,
}

impl fmt::Display for LivelockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock at t={}: {} zero-progress resumes; spinning: ",
            self.at, self.steps
        )?;
        for (i, s) in self.spinners.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}({}) x{}", s.name, s.thread, s.resumes)?;
        }
        Ok(())
    }
}

/// How a bounded run ended.
#[must_use = "a run that deadlocked or livelocked ended early: check how it ended"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The virtual-time limit was reached with work still pending.
    ReachedLimit,
    /// Nothing remained to do, and no thread is wedged in a lock cycle.
    /// (Threads parked on a receive or condition with no peer are
    /// normal at the end of a run — servers waiting for requests.)
    Idle,
    /// The run wedged on a lock-wait cycle.
    Deadlock(DeadlockReport),
    /// The run was aborted after a zero-progress wake storm.
    Livelock(LivelockReport),
}

impl RunOutcome {
    /// Whether the run ended without a detected progress failure.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::ReachedLimit | RunOutcome::Idle)
    }

    /// Panics with the diagnostic unless [`RunOutcome::is_ok`]: for a
    /// caller that must not report the numbers of a run that ended
    /// early.
    #[track_caller]
    pub fn assert_ok(&self) {
        assert!(self.is_ok(), "the run ended early: {self}");
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::ReachedLimit => write!(f, "reached limit"),
            RunOutcome::Idle => write!(f, "idle"),
            RunOutcome::Deadlock(d) => d.fmt(f),
            RunOutcome::Livelock(l) => l.fmt(f),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    Computing,
    WaitingLock,
    WaitingCond,
    WaitingRecv,
    Sleeping,
    Exited,
}

struct Thread {
    name: String,
    proc: ProcId,
    machine: MachineId,
    body: Option<Box<dyn ThreadBody>>,
    stack: Vec<FrameId>,
    state: TState,
    pending_overhead: Cycles,
    /// Bumped on every resume; deadline events armed for an earlier
    /// epoch are stale and ignored (the wait they guarded already
    /// ended some other way).
    epoch: u64,
}

struct Proc {
    rt: Rc<RefCell<dyn Runtime>>,
    /// Ground-truth application compute cycles requested by this
    /// process's threads (excludes profiling overhead and fault
    /// slowdown inflation).
    compute_cycles: u64,
    /// Set when a fault-plan crash took the process down.
    crashed: bool,
}

/// An event of the queue's sorted run: due soon, and few pending.
enum NearEv {
    QuantumEnd(MachineId, Dispatch),
    Deliver(ChanId, Msg),
}

/// An event of the queue's heap: one that waits long.
enum EvKind {
    Timer {
        thread: ThreadId,
    },
    RecvDeadline {
        thread: ThreadId,
        chan: ChanId,
        epoch: u64,
    },
    CondDeadline {
        thread: ThreadId,
        cond: CondId,
        epoch: u64,
    },
    Crash {
        proc: ProcId,
    },
}

/// How many events of one kind were scheduled and how many have fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCount {
    /// Pushed onto the queue.
    pub scheduled: u64,
    /// Popped and handled (a stale deadline counts: it was popped).
    pub fired: u64,
}

/// What the event queue has carried so far, by kind. Observation only:
/// nothing in the engine reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCensus {
    /// Quantum ends (one per dispatch decision).
    pub quantum_end: KindCount,
    /// Message deliveries.
    pub deliver: KindCount,
    /// Sleep timers.
    pub timer: KindCount,
    /// Deadlines of timed receives.
    pub recv_deadline: KindCount,
    /// Deadlines of timed condition waits.
    pub cond_deadline: KindCount,
    /// Fault-plan crashes.
    pub crash: KindCount,
    /// Receive deadlines that fired after their receive had already
    /// ended some other way, and were discarded.
    pub recv_deadlines_stale: u64,
    /// Longest the sorted run of near events (quantum ends and
    /// deliveries) has been.
    pub peak_near: u64,
    /// Longest the heap of far events (timers, deadlines, crashes) has
    /// been.
    pub peak_events: u64,
}

impl EventCensus {
    fn of(&mut self, kind: &EvKind) -> &mut KindCount {
        match kind {
            EvKind::Timer { .. } => &mut self.timer,
            EvKind::RecvDeadline { .. } => &mut self.recv_deadline,
            EvKind::CondDeadline { .. } => &mut self.cond_deadline,
            EvKind::Crash { .. } => &mut self.crash,
        }
    }
}

/// The simulation.
pub struct Sim {
    cfg: SimConfig,
    now: Cycles,
    events: EventQueue<NearEv, EvKind>,
    census: EventCensus,
    ready: VecDeque<(ThreadId, Wake)>,
    threads: Vec<Thread>,
    procs: Vec<Proc>,
    /// Locks and condition variables.
    pub locks: LockTable,
    /// Channels.
    pub chans: ChanTable,
    /// Machines.
    pub machines: MachineTable,
    frames: SharedFrameTable,
    faults: Option<FaultPlan>,
    sched: Scheduler,
    /// Maximum thread resumes at a single virtual instant before the
    /// run is declared livelocked (`None` = unbounded, the default).
    step_budget: Option<u64>,
    /// Resumes since virtual time last advanced.
    spin_total: u64,
    /// Per-thread resume counts since virtual time last advanced.
    spin: HashMap<ThreadId, u64>,
    /// Passive communication-log recorder ([`Sim::enable_comm_log`]).
    /// `None` (the default) records nothing; when present it only
    /// observes sends/recvs — it draws no randomness and schedules no
    /// events, so enabling it never changes a run's behaviour.
    comm: Option<CommRecorder>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new(SimConfig::default())
    }
}

impl Sim {
    /// Creates an empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            cfg,
            now: 0,
            events: EventQueue::default(),
            census: EventCensus::default(),
            ready: VecDeque::new(),
            threads: Vec::new(),
            procs: Vec::new(),
            locks: LockTable::new(),
            chans: ChanTable::new(),
            machines: MachineTable::new(),
            frames: shared_frame_table(),
            faults: None,
            sched: Scheduler::default(),
            step_budget: None,
            spin_total: 0,
            spin: HashMap::new(),
            comm: None,
        }
    }

    /// Enables passive communication logging: from now on every send
    /// and every application-level recv is recorded into a
    /// [`CommLog`], together with the simulator-known ground truth
    /// (which send produced each recv, and which transaction root each
    /// message serves). Idempotent.
    pub fn enable_comm_log(&mut self) {
        if self.comm.is_none() {
            self.comm = Some(CommRecorder::new());
        }
    }

    /// Marks `p` as an external origin process for the comm log's
    /// ground truth: every send from its threads mints a fresh
    /// transaction root (e.g. each client request). Implies
    /// [`Sim::enable_comm_log`].
    pub fn mark_comm_origin(&mut self, p: ProcId) {
        self.enable_comm_log();
        self.comm
            .as_mut()
            .expect("just enabled")
            .mark_origin_proc(p.0);
    }

    /// Takes the recorded communication log, ending recording.
    /// `None` if [`Sim::enable_comm_log`] was never called.
    pub fn take_comm_log(&mut self) -> Option<CommLog> {
        self.comm.take().map(|r| r.finish())
    }

    /// Records an application-level recv when comm logging is enabled.
    /// Untagged messages (sent before logging was enabled) are skipped.
    fn record_recv(&mut self, chan: ChanId, t: ThreadId, msg: &Msg) {
        if let Some(rec) = self.comm.as_mut() {
            if let Some(tag) = msg.tag {
                let proc = self.threads[t.0 as usize].proc;
                rec.on_recv(self.now, chan.0, proc.0, t.0, msg.bytes, tag);
            }
        }
    }

    /// Installs a ready-queue tie-breaking policy. The default is
    /// [`SchedulePolicy::Fifo`], the engine's historical behaviour;
    /// any other policy changes only the order of same-instant resumes,
    /// so every run is still a legal interleaving.
    pub fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.sched = Scheduler::new(policy);
    }

    /// Bounds zero-progress wake storms: if more than `budget` thread
    /// resumes happen without virtual time advancing, the run stops
    /// with [`RunOutcome::Livelock`] naming the spinning threads.
    /// `None` (the default) disables the check.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget;
    }

    /// Installs a fault plan. Crash entries are scheduled immediately
    /// as events; drop/duplicate/delay verdicts and slowdown factors
    /// are consulted as the run proceeds.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for &(proc, at) in plan.crashes() {
            self.push_ev(at.max(self.now), EvKind::Crash { proc });
        }
        self.faults = Some(plan);
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The shared frame intern table.
    ///
    /// Borrowed; callers that need to hold on to the table clone the
    /// returned handle explicitly (a cheap `Rc` bump).
    pub fn frames(&self) -> &SharedFrameTable {
        &self.frames
    }

    /// Interns a frame name.
    pub fn frame(&self, name: &str) -> FrameId {
        self.frames.borrow_mut().intern(name)
    }

    /// The id the next [`Sim::add_process`] returns, for a runtime that
    /// must know its process before it is registered.
    pub fn next_proc(&self) -> ProcId {
        ProcId(self.procs.len() as u32)
    }

    /// Registers a process with a profiling runtime.
    pub fn add_process(&mut self, rt: Rc<RefCell<dyn Runtime>>) -> ProcId {
        self.procs.push(Proc {
            rt,
            compute_cycles: 0,
            crashed: false,
        });
        ProcId((self.procs.len() - 1) as u32)
    }

    /// Ground-truth application compute cycles requested by `p`'s
    /// threads so far — the reference mass that `p`'s profile must
    /// conserve. Profiling overhead and fault-slowdown inflation are
    /// excluded on purpose: neither is application work.
    pub fn proc_compute_cycles(&self, p: ProcId) -> u64 {
        self.procs[p.0 as usize].compute_cycles
    }

    /// Whether a fault-plan crash took `p` down.
    pub fn proc_crashed(&self, p: ProcId) -> bool {
        self.procs[p.0 as usize].crashed
    }

    /// Registers an unprofiled process.
    pub fn add_unprofiled_process(&mut self) -> ProcId {
        self.add_process(Rc::new(RefCell::new(NullRuntime)))
    }

    /// A process's runtime.
    pub fn runtime(&self, p: ProcId) -> Rc<RefCell<dyn Runtime>> {
        self.procs[p.0 as usize].rt.clone()
    }

    /// Collects the stage dumps of every profiled process, in process-id
    /// order. Processes whose runtime has nothing to dump (e.g.
    /// unprofiled [`NullRuntime`] clients) are skipped, so the result is
    /// the deterministic stage order the analysis pipeline expects.
    pub fn collect_dumps(&self) -> Vec<StageDump> {
        self.procs
            .iter()
            .filter_map(|p| p.rt.borrow().dump())
            .collect()
    }

    /// Registers a machine with `cores` CPUs.
    pub fn add_machine(&mut self, cores: u32) -> MachineId {
        self.machines.add(cores)
    }

    /// Registers a lock.
    pub fn add_lock(&mut self) -> LockId {
        self.locks.add_lock()
    }

    /// Registers a condition variable.
    pub fn add_cond(&mut self) -> CondId {
        self.locks.add_cond()
    }

    /// Registers a channel.
    pub fn add_channel(&mut self, latency: Cycles, cycles_per_byte: u64) -> ChanId {
        self.chans.add(latency, cycles_per_byte)
    }

    /// Spawns a thread in `proc` on `machine`; it resumes with
    /// [`Wake::Start`] when the simulation runs.
    pub fn spawn(
        &mut self,
        proc: ProcId,
        machine: MachineId,
        name: &str,
        body: Box<dyn ThreadBody>,
    ) -> ThreadId {
        let t = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread {
            name: name.to_owned(),
            proc,
            machine,
            body: Some(body),
            stack: Vec::new(),
            state: TState::Ready,
            pending_overhead: 0,
            epoch: 0,
        });
        self.procs[proc.0 as usize].rt.borrow_mut().on_spawn(t);
        self.ready.push_back((t, Wake::Start));
        t
    }

    /// A thread's name (for reports and tests).
    pub fn thread_name(&self, t: ThreadId) -> &str {
        &self.threads[t.0 as usize].name
    }

    /// The runtime of `t`'s process, borrowed.
    fn rt(&self, t: ThreadId) -> RefMut<'_, dyn Runtime> {
        self.procs[self.threads[t.0 as usize].proc.0 as usize]
            .rt
            .borrow_mut()
    }

    /// Calls one runtime hook for `t`, handing it `t`'s call stack, and
    /// charges the overhead cycles it returns to `t`'s next compute.
    fn hook(&mut self, t: ThreadId, f: impl FnOnce(&mut dyn Runtime, &[FrameId]) -> Cycles) {
        let th = &self.threads[t.0 as usize];
        let oh = f(&mut *self.rt(t), &th.stack);
        self.threads[t.0 as usize].pending_overhead += oh;
    }

    /// The event census so far.
    pub fn event_census(&self) -> EventCensus {
        EventCensus {
            peak_near: self.events.peak_near() as u64,
            peak_events: self.events.peak_events() as u64,
            ..self.census
        }
    }

    fn push_ev(&mut self, at: Cycles, kind: EvKind) {
        self.census.of(&kind).scheduled += 1;
        self.events.push(at, kind);
    }

    fn push_deliver(&mut self, at: Cycles, chan: ChanId, msg: Msg) {
        self.census.deliver.scheduled += 1;
        self.events.push_near(at, NearEv::Deliver(chan, msg));
    }

    /// Runs until virtual time `limit` (inclusive of events at
    /// `limit`) or until nothing remains to do, and reports how the run
    /// ended: the limit was reached, the simulation went idle, a
    /// lock-wait deadlock cycle wedged it, or a zero-progress wake
    /// storm exhausted the step budget ([`Sim::set_step_budget`]).
    pub fn run_until(&mut self, limit: Cycles) -> RunOutcome {
        loop {
            // Drain instantly runnable threads first, under the
            // installed tie-breaking policy.
            while !self.ready.is_empty() {
                let k = self.sched.pick(self.ready.len());
                let (t, wake) = self.ready.remove(k).expect("picked index in range");
                if let Some(report) = self.note_resume(t) {
                    return RunOutcome::Livelock(report);
                }
                self.resume_thread(t, wake);
            }
            let kind = match self.events.pop_due(limit) {
                Due::Empty => {
                    return match self.detect_lock_cycle() {
                        Some(report) => RunOutcome::Deadlock(report),
                        None => RunOutcome::Idle,
                    };
                }
                Due::Later => {
                    self.now = limit;
                    return RunOutcome::ReachedLimit;
                }
                Due::Near(at, NearEv::QuantumEnd(machine, d)) => {
                    self.advance_to(at);
                    self.census.quantum_end.fired += 1;
                    self.on_quantum_end(machine, d);
                    continue;
                }
                Due::Near(at, NearEv::Deliver(chan, msg)) => {
                    self.advance_to(at);
                    self.census.deliver.fired += 1;
                    self.on_deliver(chan, msg);
                    continue;
                }
                Due::Event(at, kind) => {
                    self.advance_to(at);
                    kind
                }
            };
            self.census.of(&kind).fired += 1;
            match kind {
                EvKind::Timer { thread } => {
                    if self.threads[thread.0 as usize].state == TState::Sleeping {
                        self.threads[thread.0 as usize].state = TState::Ready;
                        self.ready.push_back((thread, Wake::Slept));
                    }
                }
                EvKind::RecvDeadline {
                    thread,
                    chan,
                    epoch,
                } => {
                    let th = &self.threads[thread.0 as usize];
                    if th.epoch == epoch && th.state == TState::WaitingRecv {
                        self.chans.cancel_wait(chan, thread);
                        self.threads[thread.0 as usize].state = TState::Ready;
                        self.ready.push_back((thread, Wake::RecvTimedOut));
                    } else {
                        self.census.recv_deadlines_stale += 1;
                    }
                }
                EvKind::CondDeadline {
                    thread,
                    cond,
                    epoch,
                } => {
                    let th = &self.threads[thread.0 as usize];
                    if th.epoch == epoch && th.state == TState::WaitingCond {
                        self.on_cond_timeout(thread, cond);
                    }
                }
                EvKind::Crash { proc } => self.on_crash(proc),
            }
        }
    }

    /// Moves virtual time to a fired event's instant.
    fn advance_to(&mut self, at: Cycles) {
        if at > self.now {
            // Virtual time advances: the run is making progress.
            self.spin_total = 0;
            self.spin.clear();
        }
        self.now = at;
    }

    /// Runs until no events or runnable threads remain
    /// ([`RunOutcome::Idle`] on a clean drain).
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run_until(Cycles::MAX)
    }

    /// Runs to `limit` like [`Sim::run_until`], but in epochs
    /// of `epoch_len` virtual cycles, streaming each epoch's per-stage
    /// profile increment to `sink`.
    ///
    /// `sink.on_start` fires once with the fixed stage set (profiled
    /// processes in process-id order — the same order
    /// [`Sim::collect_dumps`] uses), then `sink.on_batch` fires once
    /// per epoch with sequence-numbered [`whodunit_core::delta`]
    /// batches, including a final partial epoch when the run ends
    /// early (idle, deadlock, livelock) or `limit` is not a multiple
    /// of `epoch_len`.
    ///
    /// Chunked execution is exact: events fire in `(time, seq)` order,
    /// the ready queue is always drained before the next event is
    /// popped (so it is empty at every epoch boundary), and hitting an
    /// epoch boundary only looks at the next event, which stays queued
    /// under the `seq` it was given — so the schedule, and therefore
    /// every profile, is bit-identical
    /// to a single `run_until(limit)` call. Streaming changes
    /// *when* profile state is observed, never what it is.
    pub fn run_streaming(
        &mut self,
        limit: Cycles,
        epoch_len: Cycles,
        sink: &mut dyn DeltaSink,
    ) -> RunOutcome {
        assert!(epoch_len > 0, "epoch_len must be positive");
        // Two dumps per stage, swapped every epoch: the one being
        // diffed against, and the one before it, whose storage the next
        // dump refills.
        let mut stages: Vec<Rc<RefCell<dyn Runtime>>> = Vec::new();
        let mut prev: Vec<StageDump> = Vec::new();
        for p in &self.procs {
            let mut d = StageDump::default();
            if p.rt.borrow().dump_into(&mut d) {
                stages.push(p.rt.clone());
                prev.push(d);
            }
        }
        let header = StreamHeader {
            stages: prev
                .iter()
                .map(|d| StreamStage {
                    proc: d.proc,
                    stage_name: d.stage_name.clone(),
                })
                .collect(),
        };
        sink.on_start(&header);
        let mut cur = vec![StageDump::default(); stages.len()];
        let mut seqs: Vec<u64> = vec![0; stages.len()];
        let mut epoch: u64 = 0;
        loop {
            let end = self.now.saturating_add(epoch_len).min(limit);
            let outcome = self.run_until(end);
            let mut deltas = Vec::new();
            for (i, rt) in stages.iter().enumerate() {
                assert!(
                    rt.borrow().dump_into(&mut cur[i]),
                    "profiled stage set changed mid-run"
                );
                let before = (epoch > 0).then(|| &prev[i]);
                if let Some(d) = diff_dump(i, seqs[i], before, &cur[i]) {
                    seqs[i] += 1;
                    deltas.push(d);
                }
            }
            std::mem::swap(&mut prev, &mut cur);
            sink.on_batch(EpochBatch {
                epoch,
                seq: epoch,
                end: self.now,
                deltas,
            });
            epoch += 1;
            match outcome {
                RunOutcome::ReachedLimit if self.now < limit => continue,
                other => return other,
            }
        }
    }

    /// Step accounting for the livelock bound: counts a resume against
    /// the current virtual instant and returns a report if the budget
    /// is exhausted.
    fn note_resume(&mut self, t: ThreadId) -> Option<LivelockReport> {
        let budget = self.step_budget?;
        self.spin_total += 1;
        *self.spin.entry(t).or_insert(0) += 1;
        if self.spin_total <= budget {
            return None;
        }
        let mut spinners: Vec<Spinner> = self
            .spin
            .iter()
            .map(|(&t, &resumes)| Spinner {
                thread: t,
                name: self.thread_name(t).to_owned(),
                resumes,
            })
            .collect();
        spinners.sort_by(|a, b| (b.resumes, a.thread.0).cmp(&(a.resumes, b.thread.0)));
        spinners.truncate(8);
        Some(LivelockReport {
            at: self.now,
            steps: self.spin_total,
            spinners,
        })
    }

    /// Searches the lock-wait graph for a cycle: an edge runs from each
    /// queued waiter to each current holder of the lock it waits on.
    /// Returns the cycle as thread → lock → holder hops, or `None` if
    /// the graph is acyclic (blocked threads that merely wait on a
    /// channel or condition are not part of this graph).
    fn detect_lock_cycle(&self) -> Option<DeadlockReport> {
        let edges = self.locks.wait_edges();
        if edges.is_empty() {
            return None;
        }
        let mut adj: HashMap<ThreadId, Vec<(LockId, ThreadId)>> = HashMap::new();
        for &(waiter, lock, holder) in &edges {
            adj.entry(waiter).or_default().push((lock, holder));
        }
        // Iterative DFS with an explicit path so the cycle can be
        // reported, not just detected.
        let mut color: HashMap<ThreadId, u8> = HashMap::new(); // 1 = on path, 2 = done
        let mut starts: Vec<ThreadId> = adj.keys().copied().collect();
        starts.sort_by_key(|t| t.0);
        for start in starts {
            if color.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            // Each stack entry: (thread, next edge index to try).
            let mut stack: Vec<(ThreadId, usize)> = vec![(start, 0)];
            let mut path: Vec<(ThreadId, LockId, ThreadId)> = Vec::new();
            color.insert(start, 1);
            while let Some(&mut (t, ref mut i)) = stack.last_mut() {
                let out = adj.get(&t).map(Vec::as_slice).unwrap_or(&[]);
                if *i >= out.len() {
                    color.insert(t, 2);
                    stack.pop();
                    path.pop();
                    continue;
                }
                let (lock, holder) = out[*i];
                *i += 1;
                match color.get(&holder).copied().unwrap_or(0) {
                    1 => {
                        // Found a cycle: the path from `holder` back to
                        // this edge closes it.
                        path.push((t, lock, holder));
                        let from = path.iter().position(|&(w, _, _)| w == holder).unwrap_or(0);
                        let cycle = path[from..]
                            .iter()
                            .map(|&(w, l, h)| DeadlockLink {
                                waiter: w,
                                waiter_name: self.thread_name(w).to_owned(),
                                lock: l,
                                holder: h,
                                holder_name: self.thread_name(h).to_owned(),
                            })
                            .collect();
                        return Some(DeadlockReport {
                            at: self.now,
                            cycle,
                        });
                    }
                    2 => {}
                    _ => {
                        color.insert(holder, 1);
                        path.push((t, lock, holder));
                        stack.push((holder, 0));
                    }
                }
            }
        }
        None
    }

    fn on_quantum_end(&mut self, machine: MachineId, d: Dispatch) {
        if self.threads[d.thread.0 as usize].state == TState::Exited {
            // Crashed mid-burst: free the core, abandon the remainder.
            self.machines.abandon_slice(machine, d);
        } else {
            let done = self.machines.complete_slice(machine, d);
            if done {
                self.threads[d.thread.0 as usize].state = TState::Ready;
                self.ready.push_back((d.thread, Wake::ComputeDone));
            }
        }
        self.dispatch_machine(machine);
    }

    /// A timed condition wait expired: leave the wait set and
    /// re-acquire the lock, resuming with [`Wake::CondTimedOut`] once
    /// it is held again. If a notify claimed the thread first, the
    /// deadline loses the race and does nothing.
    fn on_cond_timeout(&mut self, t: ThreadId, cond: CondId) {
        if let Some(lock) = self.locks.cond_cancel(cond, t) {
            self.acquire(t, lock, LockMode::Exclusive, WaitKind::CondTimedOut);
        }
    }

    /// A fault-plan crash: every thread of `proc` dies instantly. The
    /// threads are erased from channel receiver queues, machine run
    /// queues, lock wait queues, and condition wait sets; locks they
    /// held are released and surviving waiters granted. Messages
    /// already in flight toward the process still deliver into channel
    /// buffers, where they sit unread — exactly the view a live peer
    /// has of a dead one.
    fn on_crash(&mut self, proc: ProcId) {
        if self.procs[proc.0 as usize].crashed {
            return;
        }
        self.procs[proc.0 as usize].crashed = true;
        let victims: Vec<ThreadId> = (0..self.threads.len() as u32)
            .map(ThreadId)
            .filter(|&t| {
                let th = &self.threads[t.0 as usize];
                th.proc == proc && th.state != TState::Exited
            })
            .collect();
        for &t in &victims {
            let th = &mut self.threads[t.0 as usize];
            th.state = TState::Exited;
            th.body = None;
            th.pending_overhead = 0;
            self.chans.purge_thread(t);
            self.machines.purge_thread(t);
        }
        for (lock, granted) in self.locks.purge_threads(&victims) {
            self.wake_granted(lock, granted);
        }
    }

    fn on_deliver(&mut self, chan: ChanId, msg: Msg) {
        if let Some((t, msg)) = self.chans.deliver(chan, msg) {
            self.received(t, chan, msg);
        }
    }

    /// Completes `t`'s receive of `msg` from `chan`: the comm log
    /// records it, the runtime's receive hook runs, and `t` resumes
    /// with the message.
    fn received(&mut self, t: ThreadId, chan: ChanId, msg: Msg) {
        self.record_recv(chan, t, &msg);
        self.hook(t, |rt, _| rt.on_recv(t, msg.chain.as_ref()));
        self.threads[t.0 as usize].state = TState::Ready;
        self.ready.push_back((t, Wake::Received(msg)));
    }

    /// A receive on `chan`: completes at once from the buffer, or parks
    /// `t` on the channel, until `timeout` cycles from now if given.
    fn recv(&mut self, t: ThreadId, chan: ChanId, timeout: Option<Cycles>) {
        if let Some(msg) = self.chans.recv(chan, t) {
            return self.received(t, chan, msg);
        }
        self.threads[t.0 as usize].state = TState::WaitingRecv;
        if let Some(timeout) = timeout {
            let epoch = self.threads[t.0 as usize].epoch;
            self.push_ev(
                self.now + timeout,
                EvKind::RecvDeadline {
                    thread: t,
                    chan,
                    epoch,
                },
            );
        }
    }

    /// A condition wait: `t` joins `cond`'s wait set and releases
    /// `lock`, until `timeout` cycles from now if given.
    fn cond_wait(&mut self, t: ThreadId, cond: CondId, lock: LockId, timeout: Option<Cycles>) {
        self.locks.cond_wait(t, cond, lock);
        self.do_release(t, lock);
        self.threads[t.0 as usize].state = TState::WaitingCond;
        if let Some(timeout) = timeout {
            let epoch = self.threads[t.0 as usize].epoch;
            self.push_ev(
                self.now + timeout,
                EvKind::CondDeadline {
                    thread: t,
                    cond,
                    epoch,
                },
            );
        }
    }

    /// Grants `t` the lock now or queues it behind the holders and
    /// waiters; either way the grant resumes `t` with `kind`'s wake.
    fn acquire(&mut self, t: ThreadId, lock: LockId, mode: LockMode, kind: WaitKind) {
        let mut w = Waiter {
            thread: t,
            mode,
            since: self.now,
            hint: None,
            kind,
        };
        match self.locks.try_acquire(t, lock, mode) {
            Acquire::Granted => self.granted(lock, w),
            Acquire::Queued => {
                w.hint = self.rt(t).holder_hint(lock);
                self.locks.enqueue(lock, w);
                self.threads[t.0 as usize].state = TState::WaitingLock;
            }
        }
    }

    /// `w` holds `lock` now: the runtime's hook is told how long it
    /// waited, and the thread resumes with its kind's wake.
    fn granted(&mut self, lock: LockId, w: Waiter) {
        let (t, waited) = (w.thread, self.now - w.since);
        self.hook(t, |rt, _| {
            rt.on_lock_acquired(t, lock, w.mode, waited, w.hint)
        });
        self.threads[t.0 as usize].state = TState::Ready;
        self.ready.push_back((t, w.kind.wake(waited)));
    }

    fn dispatch_machine(&mut self, machine: MachineId) {
        while let Some(d) = self.machines.dispatch(machine, self.cfg.quantum) {
            self.census.quantum_end.scheduled += 1;
            self.events
                .push_near(self.now + d.slice, NearEv::QuantumEnd(machine, d));
        }
    }

    fn resume_thread(&mut self, t: ThreadId, wake: Wake) {
        if self.threads[t.0 as usize].state == TState::Exited {
            return;
        }
        self.threads[t.0 as usize].epoch += 1;
        let Some(mut body) = self.threads[t.0 as usize].body.take() else {
            return;
        };
        let op = {
            let mut cx = ThreadCx { sim: self, t };
            body.resume(&mut cx, wake)
        };
        self.threads[t.0 as usize].body = Some(body);
        self.process_op(t, op);
    }

    fn process_op(&mut self, t: ThreadId, op: Op) {
        let machine = self.threads[t.0 as usize].machine;
        match op {
            Op::Compute(cycles) => {
                self.hook(t, |rt, stack| rt.on_compute(t, stack, cycles));
                let proc = self.threads[t.0 as usize].proc;
                self.procs[proc.0 as usize].compute_cycles += cycles;
                let pend = std::mem::take(&mut self.threads[t.0 as usize].pending_overhead);
                // A slowdown window stretches the wall-clock cost of
                // the burst; the profiler was already told the
                // application-requested cycles, so profile mass stays
                // conserved against `proc_compute_cycles`.
                let factor = self
                    .faults
                    .as_ref()
                    .map_or(1, |f| f.slowdown_factor(machine, self.now));
                let total = (cycles + pend).saturating_mul(factor.max(1));
                self.threads[t.0 as usize].state = TState::Computing;
                self.machines.enqueue(machine, t, total);
                self.dispatch_machine(machine);
            }
            Op::Lock(lock, mode) => self.acquire(t, lock, mode, WaitKind::Lock),
            Op::Unlock(lock) => {
                self.do_release(t, lock);
                self.ready.push_back((t, Wake::Done));
            }
            Op::CondWait(cond, lock) => self.cond_wait(t, cond, lock, None),
            Op::CondWaitTimeout(cond, lock, timeout) => {
                self.cond_wait(t, cond, lock, Some(timeout));
            }
            Op::Notify(cond, all) => {
                let woken = self.locks.notify(cond, if all { None } else { Some(1) });
                for (wt, lock) in woken {
                    // The woken thread re-acquires its lock; the wait
                    // measured for crosstalk is only the re-acquire.
                    self.acquire(wt, lock, LockMode::Exclusive, WaitKind::Cond);
                }
                self.ready.push_back((t, Wake::Done));
            }
            Op::Send(chan, mut msg) => {
                let info = {
                    let th = &self.threads[t.0 as usize];
                    self.rt(t).on_send(t, &th.stack)
                };
                msg.chain = info.chain;
                if let Some(rec) = self.comm.as_mut() {
                    // A sender-side tap sees every send, including ones
                    // the wire later drops.
                    let proc = self.threads[t.0 as usize].proc;
                    msg.tag = Some(rec.on_send(self.now, chan.0, proc.0, t.0, msg.bytes));
                }
                self.threads[t.0 as usize].pending_overhead += info.cycles;
                let delay = self.chans.send_delay(chan, msg.bytes + info.extra_bytes);
                let now = self.now;
                let verdict = match self.faults.as_mut() {
                    Some(f) => f.send_verdict_at(chan, now),
                    None => crate::fault::SendVerdict::default(),
                };
                if verdict.copies == 0 {
                    // The sender already paid for the send (hooks,
                    // accounting); the wire just loses the message.
                    self.chans.note_dropped(chan);
                } else {
                    if verdict.extra_delay > 0 {
                        self.chans.note_delayed(chan);
                    }
                    let at = self.now + delay + verdict.extra_delay;
                    let dup = if verdict.copies > 1 {
                        msg.try_clone()
                    } else {
                        None
                    };
                    self.push_deliver(at, chan, msg);
                    if let Some(copy) = dup {
                        self.chans.note_duplicated(chan);
                        self.push_deliver(at, chan, copy);
                    }
                }
                self.ready.push_back((t, Wake::Done));
            }
            Op::Recv(chan) => self.recv(t, chan, None),
            Op::RecvTimeout(chan, timeout) => self.recv(t, chan, Some(timeout)),
            Op::Sleep(cycles) => {
                self.threads[t.0 as usize].state = TState::Sleeping;
                self.push_ev(self.now + cycles, EvKind::Timer { thread: t });
            }
            Op::Exit => {
                self.threads[t.0 as usize].state = TState::Exited;
                self.threads[t.0 as usize].body = None;
                self.rt(t).on_exit(t);
            }
        }
    }

    fn do_release(&mut self, t: ThreadId, lock: LockId) {
        self.hook(t, |rt, _| rt.on_lock_released(t, lock));
        let granted = self.locks.release(t, lock);
        self.wake_granted(lock, granted);
    }

    fn wake_granted(&mut self, lock: LockId, granted: Vec<Waiter>) {
        for w in granted {
            self.granted(lock, w);
        }
    }
}

/// A thread's view of the simulation during `resume`.
pub struct ThreadCx<'a> {
    sim: &'a mut Sim,
    t: ThreadId,
}

impl ThreadCx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.sim.now
    }

    /// The resuming thread's id.
    pub fn me(&self) -> ThreadId {
        self.t
    }

    /// The shared frame table (borrowed; clone the handle to keep it).
    pub fn frames(&self) -> &SharedFrameTable {
        &self.sim.frames
    }

    /// Interns a frame name.
    pub fn frame(&self, name: &str) -> FrameId {
        self.sim.frames.borrow_mut().intern(name)
    }

    /// The owning process's profiling runtime.
    pub fn runtime(&self) -> Rc<RefCell<dyn Runtime>> {
        self.sim.runtime(self.sim.threads[self.t.0 as usize].proc)
    }

    /// The thread's current call stack.
    pub fn stack(&self) -> &[FrameId] {
        &self.sim.threads[self.t.0 as usize].stack
    }

    /// Enters a procedure frame (calls the gprof-style hook).
    pub fn push_frame(&mut self, f: FrameId) {
        let t = self.t;
        self.sim.hook(t, |rt, _| rt.on_call(t, f));
        self.sim.threads[t.0 as usize].stack.push(f);
    }

    /// Leaves the current procedure frame.
    pub fn pop_frame(&mut self) {
        let t = self.t;
        self.sim.hook(t, |rt, _| rt.on_return(t));
        self.sim.threads[t.0 as usize].stack.pop();
    }

    /// Replaces the whole call stack (convenience for flat bodies).
    pub fn set_stack(&mut self, frames: &[FrameId]) {
        let th = &mut self.sim.threads[self.t.0 as usize];
        th.stack.clear();
        th.stack.extend_from_slice(frames);
    }

    /// Charges extra overhead cycles to this thread (consumed by its
    /// next compute burst).
    pub fn charge(&mut self, cycles: Cycles) {
        self.sim.threads[self.t.0 as usize].pending_overhead += cycles;
    }

    /// Models `n` internal call/return pairs of `f` within the current
    /// work (drives the gprof baseline's per-call overhead; free for
    /// sampling profilers).
    pub fn count_calls(&mut self, f: FrameId, n: u64) {
        let t = self.t;
        self.sim.hook(t, |rt, _| rt.on_calls(t, f, n));
    }

    /// Creates a new channel mid-run (e.g. a per-request reply pipe).
    pub fn add_channel(&mut self, latency: Cycles, cycles_per_byte: u64) -> ChanId {
        self.sim.chans.add(latency, cycles_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::profiler::{Whodunit, WhodunitConfig};

    /// A body driven by a scripted list of ops (for engine tests).
    struct Script {
        ops: VecDeque<Op>,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl Script {
        fn new(ops: Vec<Op>, log: Rc<RefCell<Vec<String>>>) -> Box<Self> {
            Box::new(Script {
                ops: ops.into(),
                log,
            })
        }
    }

    impl ThreadBody for Script {
        fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
            let entry = match &wake {
                Wake::Start => "start".to_owned(),
                Wake::Done => "done".to_owned(),
                Wake::ComputeDone => format!("computed@{}", cx.now()),
                Wake::LockAcquired { waited } => format!("locked(waited={waited})"),
                Wake::CondWoken { waited } => format!("condwoken(waited={waited})"),
                Wake::Received(m) => format!("recv({})", m.peek::<u32>().copied().unwrap_or(0)),
                Wake::Slept => format!("slept@{}", cx.now()),
                Wake::RecvTimedOut => format!("recvtimeout@{}", cx.now()),
                Wake::CondTimedOut { waited } => format!("condtimeout(waited={waited})"),
            };
            self.log.borrow_mut().push(format!("{}: {entry}", cx.me()));
            self.ops.pop_front().unwrap_or(Op::Exit)
        }
    }

    fn log() -> Rc<RefCell<Vec<String>>> {
        Rc::new(RefCell::new(Vec::new()))
    }

    #[test]
    fn compute_advances_time() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let l = log();
        sim.spawn(p, m, "t", Script::new(vec![Op::Compute(5000)], l.clone()));
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(sim.now(), 5000);
        let entries = l.borrow();
        assert_eq!(entries.as_slice(), &["t0: start", "t0: computed@5000"]);
    }

    #[test]
    fn single_core_serializes_two_threads() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let l = log();
        sim.spawn(
            p,
            m,
            "a",
            Script::new(vec![Op::Compute(1_000_000)], l.clone()),
        );
        sim.spawn(
            p,
            m,
            "b",
            Script::new(vec![Op::Compute(1_000_000)], l.clone()),
        );
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(
            sim.now(),
            2_000_000,
            "one core runs 2M cycles of work in 2M cycles"
        );
        assert_eq!(sim.machines.busy_cycles(MachineId(0)), 2_000_000);
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut sim = Sim::default();
        let m = sim.add_machine(2);
        let p = sim.add_unprofiled_process();
        let l = log();
        sim.spawn(
            p,
            m,
            "a",
            Script::new(vec![Op::Compute(1_000_000)], l.clone()),
        );
        sim.spawn(
            p,
            m,
            "b",
            Script::new(vec![Op::Compute(1_000_000)], l.clone()),
        );
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(sim.now(), 1_000_000);
    }

    #[test]
    fn lock_contention_measures_wait() {
        let mut sim = Sim::default();
        let m = sim.add_machine(2);
        let p = sim.add_unprofiled_process();
        let lk = sim.add_lock();
        let l = log();
        // Thread a: lock, compute 1000, unlock.
        sim.spawn(
            p,
            m,
            "a",
            Script::new(
                vec![
                    Op::Lock(lk, LockMode::Exclusive),
                    Op::Compute(1000),
                    Op::Unlock(lk),
                ],
                l.clone(),
            ),
        );
        // Thread b tries the same lock.
        sim.spawn(
            p,
            m,
            "b",
            Script::new(
                vec![Op::Lock(lk, LockMode::Exclusive), Op::Unlock(lk)],
                l.clone(),
            ),
        );
        assert!(sim.run_to_idle().is_ok());
        let entries = l.borrow();
        assert!(
            entries.iter().any(|e| e == "t1: locked(waited=1000)"),
            "{entries:?}"
        );
    }

    #[test]
    fn send_recv_delivers_with_delay() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let ch = sim.add_channel(500, 2);
        let l = log();
        sim.spawn(p, m, "rx", Script::new(vec![Op::Recv(ch)], l.clone()));
        sim.spawn(
            p,
            m,
            "tx",
            Script::new(vec![Op::Send(ch, Msg::new(7u32, 100))], l.clone()),
        );
        assert!(sim.run_to_idle().is_ok());
        // Delay = 500 + 100*2 = 700.
        assert_eq!(sim.now(), 700);
        assert!(l.borrow().iter().any(|e| e == "t0: recv(7)"));
    }

    #[test]
    fn condvar_roundtrip() {
        let mut sim = Sim::default();
        let m = sim.add_machine(2);
        let p = sim.add_unprofiled_process();
        let lk = sim.add_lock();
        let cv = sim.add_cond();
        let l = log();
        // Waiter: lock, cond-wait, unlock.
        sim.spawn(
            p,
            m,
            "waiter",
            Script::new(
                vec![
                    Op::Lock(lk, LockMode::Exclusive),
                    Op::CondWait(cv, lk),
                    Op::Unlock(lk),
                ],
                l.clone(),
            ),
        );
        // Notifier: compute (so the waiter is parked), lock, notify, unlock.
        sim.spawn(
            p,
            m,
            "notifier",
            Script::new(
                vec![
                    Op::Compute(10_000),
                    Op::Lock(lk, LockMode::Exclusive),
                    Op::Notify(cv, false),
                    Op::Unlock(lk),
                ],
                l.clone(),
            ),
        );
        assert!(sim.run_to_idle().is_ok());
        let entries = l.borrow();
        assert!(
            entries.iter().any(|e| e.starts_with("t0: condwoken")),
            "{entries:?}"
        );
    }

    #[test]
    fn whodunit_runtime_collects_profile_through_engine() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let frames = sim.frames().clone();
        let w = Rc::new(RefCell::new(Whodunit::new(
            WhodunitConfig::new(ProcId(0), "svc"),
            frames,
        )));
        let p = sim.add_process(w.clone());
        let l = log();

        struct Worker {
            inner: Script,
            f: FrameId,
            first: bool,
        }
        impl ThreadBody for Worker {
            fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
                if self.first {
                    cx.push_frame(self.f);
                    self.first = false;
                }
                self.inner.resume(cx, wake)
            }
        }
        let f = sim.frame("work");
        sim.spawn(
            p,
            m,
            "w",
            Box::new(Worker {
                inner: *Script::new(vec![Op::Compute(1_000_000)], l.clone()),
                f,
                first: true,
            }),
        );
        assert!(sim.run_to_idle().is_ok());
        let w = w.borrow();
        let cct = w
            .cct(whodunit_core::context::CtxId::ROOT)
            .expect("profiled");
        assert_eq!(cct.total().cycles, 1_000_000);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run() -> (Cycles, Vec<String>) {
            let mut sim = Sim::default();
            let m = sim.add_machine(1);
            let p = sim.add_unprofiled_process();
            let lk = sim.add_lock();
            let ch = sim.add_channel(100, 1);
            let l = log();
            sim.spawn(
                p,
                m,
                "a",
                Script::new(
                    vec![
                        Op::Lock(lk, LockMode::Exclusive),
                        Op::Compute(777),
                        Op::Unlock(lk),
                        Op::Send(ch, Msg::new(1u32, 10)),
                    ],
                    l.clone(),
                ),
            );
            sim.spawn(
                p,
                m,
                "b",
                Script::new(
                    vec![
                        Op::Lock(lk, LockMode::Exclusive),
                        Op::Unlock(lk),
                        Op::Recv(ch),
                    ],
                    l.clone(),
                ),
            );
            assert!(sim.run_to_idle().is_ok());
            let v = l.borrow().clone();
            (sim.now(), v)
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let l = log();
        sim.spawn(
            p,
            m,
            "t",
            Script::new(vec![Op::Compute(10_000_000)], l.clone()),
        );
        assert!(sim.run_until(1_000_000).is_ok());
        assert_eq!(sim.now(), 1_000_000);
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(sim.now(), 10_000_000);
    }

    #[test]
    fn comm_log_records_pairs_without_perturbing_the_run() {
        use whodunit_core::blackbox::CommKind;
        fn run(record: bool) -> (Cycles, Vec<String>, Option<CommLog>) {
            let mut sim = Sim::default();
            let m = sim.add_machine(1);
            let client = sim.add_unprofiled_process();
            let server = sim.add_unprofiled_process();
            let req = sim.add_channel(500, 2);
            let rsp = sim.add_channel(500, 2);
            if record {
                sim.mark_comm_origin(client);
            }
            let l = log();
            sim.spawn(
                server,
                m,
                "srv",
                Script::new(
                    vec![
                        Op::Recv(req),
                        Op::Compute(1000),
                        Op::Send(rsp, Msg::new(8u32, 50)),
                    ],
                    l.clone(),
                ),
            );
            sim.spawn(
                client,
                m,
                "cli",
                Script::new(
                    vec![Op::Send(req, Msg::new(7u32, 100)), Op::Recv(rsp)],
                    l.clone(),
                ),
            );
            assert!(sim.run_to_idle().is_ok());
            let v = l.borrow().clone();
            let comm = sim.take_comm_log();
            (sim.now(), v, comm)
        }
        let (t_off, log_off, comm_off) = run(false);
        let (t_on, log_on, comm_on) = run(true);
        // Observation only: the run is bit-identical either way.
        assert_eq!(t_off, t_on);
        assert_eq!(log_off, log_on);
        assert!(comm_off.is_none());
        let comm = comm_on.expect("recording was enabled");
        assert_eq!(comm.send_count(), 2);
        assert_eq!(comm.recv_count(), 2);
        // The client's request is the sole root; the reply inherits it.
        assert_eq!(comm.truth.roots.len(), 1);
        let origins = comm.truth_origins();
        assert!(origins.values().all(|&o| o == comm.truth.roots[0]));
        // Each recv pairs the send on its own channel.
        let pairs = comm.truth_pairs();
        for (&recv, &send) in &pairs {
            let r = comm.events[recv as usize];
            let s = comm.events[send as usize];
            assert_eq!(r.kind, CommKind::Recv);
            assert_eq!(s.kind, CommKind::Send);
            assert_eq!(r.chan, s.chan);
            assert!(r.at >= s.at + 500, "delivery respects channel latency");
        }
    }

    #[test]
    fn sleep_wakes_at_deadline() {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        let l = log();
        sim.spawn(p, m, "t", Script::new(vec![Op::Sleep(123_456)], l.clone()));
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(sim.now(), 123_456);
        assert!(l.borrow().iter().any(|e| e == "t0: slept@123456"));
    }
}
